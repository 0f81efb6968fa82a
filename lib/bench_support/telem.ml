(* Continuous-telemetry runner behind `ilpbench report`: run the
   overload soak (the harshest steady-state workload the repo has) with
   a Simclock-driven periodic sampler attached, derive the time series,
   verify the sampling machinery against the registry, and render the
   dashboard / JSON artifacts.

   The sampler tick is deliberately bounded: it reschedules itself only
   while ring capacity remains, so the soak's trailing
   [Simclock.run_until_idle] drains at most [capacity] extra events
   instead of livelocking on a self-perpetuating timer. *)

module M = Ilp_obs.Metrics
module Ts = Ilp_obs.Timeseries
module Recorder = Ilp_obs.Recorder
module Soak = Ilp_app.Soak
module Simclock = Ilp_netsim.Simclock

type config = {
  soak : Soak.config;
  interval_us : float;
  capacity : int;
}

(* SLO thresholds for the overload soak's virtual time: the end-to-end
   p99 may legitimately absorb Busy backoff and persist probing, so the
   bound is the soak's own patience; the ack-RTT p99 is Karn-filtered
   clean samples and should stay well under a virtual second even under
   forged-ack chaos. *)
let slos =
  [ { Ts.slo_hist = "rpc.latency_us";
      slo_percentile = 0.99;
      slo_limit = 30_000_000 };
    { Ts.slo_hist = "tcp.ack_rtt_us";
      slo_percentile = 0.99;
      slo_limit = 2_000_000 } ]

let default_config =
  { soak = Soak.default_config Soak.Overload;
    interval_us = 10_000.0;
    capacity = 512 }

let quick_config =
  { soak = { (Soak.default_config Soak.Overload) with runs = 4 };
    interval_us = 20_000.0;
    capacity = 256 }

type result = {
  outcome : Soak.outcome;
  ts : Ts.t;
  base : M.snapshot;
  final : M.snapshot;  (* registry state after the final sample *)
}

let run ?(log = fun ~violation:_ _ -> ()) ?(config = default_config) () =
  let ts =
    Ts.create ~capacity:config.capacity ~slos
      ~interval_us:config.interval_us M.default
  in
  let base = Ts.base ts in
  let clock_ref = ref None in
  let attach clock =
    clock_ref := Some clock;
    (* One tick is reserved for the explicit final sample after the
       soak settles, so the periodic chain takes at most capacity-1. *)
    let remaining = ref (config.capacity - 1) in
    let rec tick () =
      Ts.sample ts ~now:(Simclock.now clock);
      if !remaining > 0 then begin
        decr remaining;
        ignore (Simclock.schedule clock ~after:config.interval_us tick)
      end
    in
    if !remaining > 0 then begin
      decr remaining;
      ignore (Simclock.schedule clock ~after:config.interval_us tick)
    end
  in
  let outcome = Soak.run ~log ~on_clock:attach config.soak in
  (* Final sample: the telescoped sample deltas must now account for
     every counter bump of the whole soak. *)
  (match !clock_ref with
  | Some clock -> Ts.sample ts ~now:(Simclock.now clock)
  | None -> ());
  { outcome; ts; base; final = M.snapshot M.default }

(* Conservation: base + (sum of consecutive sampled deltas) must equal
   the final registry value for every counter — a dropped or corrupted
   sample slot breaks the telescoping.  Returns the offending names. *)
let conservation_failures r =
  List.filter_map
    (fun (name, v) ->
      match v with
      | M.Counter final ->
          let base =
            match M.find r.base name with Some (M.Counter n) -> n | _ -> 0
          in
          if base + Ts.delta_sum r.ts name <> final then Some name else None
      | _ -> None)
    r.final

let check r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match Soak.verdict r.outcome with
  | Soak.Held _ -> ()
  | Soak.Violated line | Soak.Vacuous line -> fail "%s" line);
  if Ts.taken r.ts < 2 then
    fail "sampler took %d samples (need at least 2)" (Ts.taken r.ts);
  (match conservation_failures r with
  | [] -> ()
  | names ->
      fail "sampled counter deltas do not sum to the registry: %s"
        (String.concat ", " names));
  List.iter
    (fun (slo, n) ->
      if n > 0 then
        fail "SLO breached: %s %s > %d (%d samples in breach)" slo.Ts.slo_hist
          (Ts.slo_gauge_name slo) slo.Ts.slo_limit n)
    (Ts.breaches r.ts);
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)

let dashboard_lines r = Ts.dashboard r.ts

let summary_lines r =
  Soak.summary_lines r.outcome
  @ [ Printf.sprintf "sampler: %d samples taken, %d retained, interval %.0f us"
        (Ts.taken r.ts) (Ts.count r.ts) (Ts.interval_us r.ts) ]

let to_json r = Ts.to_json r.ts

let write_flight ~path =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (Recorder.dump ());
  close_out oc
