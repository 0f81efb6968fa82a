(* Time-series sampler over a [Metrics] registry.

   A sampler owns a preallocated ring of sample slots; something with a
   clock (a soak harness, the telemetry runner) calls [sample] at a
   fixed virtual-time interval.  Each sample first refreshes the SLO
   percentile gauges and breach counters — so the stored snapshot
   includes them — then snapshots the whole registry into the ring.
   Derivations (counter rates, histogram percentiles, sparklines, JSON)
   happen only at read time. *)

module M = Metrics

type slo = { slo_hist : string; slo_percentile : float; slo_limit : int }

type t = {
  registry : M.t;
  interval_us : float;
  capacity : int;
  slos : slo list;
  base : M.snapshot;
  s_ts : float array;
  s_snap : M.snapshot array;
  mutable next : int;
  mutable taken : int;
}

let percentile_suffix q =
  (* 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9" *)
  let pct = q *. 100.0 in
  if Float.is_integer pct then Printf.sprintf "p%.0f" pct
  else Printf.sprintf "p%g" pct

let slo_gauge_name s = s.slo_hist ^ "." ^ percentile_suffix s.slo_percentile
let slo_breach_name s = s.slo_hist ^ ".slo_breaches"

let create ?(capacity = 512) ?(slos = []) ?(interval_us = 50_000.0) registry =
  if capacity < 1 then
    invalid_arg "Timeseries.create: capacity must be positive";
  if interval_us <= 0.0 then
    invalid_arg "Timeseries.create: interval_us must be positive";
  { registry;
    interval_us;
    capacity;
    slos;
    base = M.snapshot registry;
    s_ts = Array.make capacity 0.0;
    s_snap = Array.make capacity [];
    next = 0;
    taken = 0 }

let interval_us t = t.interval_us
let capacity t = t.capacity
let taken t = t.taken
let count t = min t.taken t.capacity
let base t = t.base

(* The standard dashboard percentiles; SLO-specific quantiles are added
   on top when an SLO names one outside this set. *)
let dashboard_quantiles = [ 0.50; 0.90; 0.99 ]

let refresh_slo_instruments t =
  if t.slos <> [] then begin
    let snap = M.snapshot t.registry in
    List.iter
      (fun s ->
        match M.find snap s.slo_hist with
        | Some (M.Histogram h) ->
            List.iter
              (fun q ->
                let name = s.slo_hist ^ "." ^ percentile_suffix q in
                M.set (M.gauge t.registry name) (M.percentile h q))
              (if List.mem s.slo_percentile dashboard_quantiles then
                 dashboard_quantiles
               else s.slo_percentile :: dashboard_quantiles);
            let p = M.percentile h s.slo_percentile in
            if h.M.count > 0 && p > s.slo_limit then
              M.inc (M.counter t.registry (slo_breach_name s)) 1
            else ignore (M.counter t.registry (slo_breach_name s))
        | _ ->
            (* Histogram not registered yet (no observations): still
               materialise the instruments so snapshots are stable. *)
            List.iter
              (fun q ->
                ignore
                  (M.gauge t.registry (s.slo_hist ^ "." ^ percentile_suffix q)))
              dashboard_quantiles;
            ignore (M.counter t.registry (slo_breach_name s)))
      t.slos
  end

let sample t ~now =
  refresh_slo_instruments t;
  let i = t.next in
  t.s_ts.(i) <- now;
  t.s_snap.(i) <- M.snapshot t.registry;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.taken <- t.taken + 1

let nth_oldest t i =
  let oldest = if t.taken <= t.capacity then 0 else t.next in
  (oldest + i) mod t.capacity

let samples t =
  List.init (count t) (fun i ->
      let j = nth_oldest t i in
      (t.s_ts.(j), t.s_snap.(j)))

(* Sum of consecutive counter deltas (base -> s1 -> ... -> sN).  By
   telescoping this equals [last - base] when no sample was corrupted;
   the conservation tests assert [base + delta_sum = final registry
   value]. *)
let delta_sum t name =
  let ss = samples t in
  let rec go prev acc = function
    | [] -> acc
    | (_, snap) :: rest ->
        go snap (acc + M.counter_diff snap prev name) rest
  in
  go t.base 0 ss

let breaches t =
  List.map
    (fun s ->
      let n =
        match samples t with
        | [] -> 0
        | ss ->
            let _, last = List.nth ss (List.length ss - 1) in
            (match M.find last (slo_breach_name s) with
            | Some (M.Counter n) -> n
            | _ -> 0)
      in
      (s, n))
    t.slos

let total_breaches t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (breaches t)

(* ---- derived series ---- *)

(* A series is the per-sample evolution of one scalar: counters as
   cumulative values plus rates per second, gauges as levels,
   histograms as the dashboard percentiles of the cumulative
   distribution at each sample. *)

let counter_at snap name =
  match M.find snap name with Some (M.Counter n) -> n | _ -> 0

let gauge_at snap name =
  match M.find snap name with Some (M.Gauge n) -> n | _ -> 0

let hist_at snap name =
  match M.find snap name with Some (M.Histogram h) -> Some h | _ -> None

let rates t name =
  let ss = Array.of_list (samples t) in
  let n = Array.length ss in
  Array.init n (fun i ->
      let prev_ts, prev_snap =
        if i = 0 then
          (* base snapshot has no timestamp; assume one interval *)
          (fst ss.(0) -. t.interval_us, t.base)
        else ss.(i - 1)
      in
      let ts, snap = ss.(i) in
      let dt_s = (ts -. prev_ts) /. 1_000_000.0 in
      if dt_s <= 0.0 then 0.0
      else
        float_of_int (counter_at snap name - counter_at prev_snap name)
        /. dt_s)

(* ---- sparklines ---- *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let lo = Array.fold_left min values.(0) values in
    let hi = Array.fold_left max values.(0) values in
    let b = Buffer.create (n * 3) in
    Array.iter
      (fun v ->
        let level =
          if hi <= lo then 0
          else
            let f = (v -. lo) /. (hi -. lo) in
            let l = int_of_float (f *. 7.0 +. 0.5) in
            if l < 0 then 0 else if l > 7 then 7 else l
        in
        Buffer.add_string b spark_levels.(level))
      values;
    Buffer.contents b
  end

let dashboard ?(width = 60) t =
  let ss = samples t in
  match ss with
  | [] -> [ "timeseries: no samples" ]
  | _ ->
      let ss_arr = Array.of_list ss in
      let n = Array.length ss_arr in
      let _, last = ss_arr.(n - 1) in
      let first_ts = fst ss_arr.(0) and last_ts = fst ss_arr.(n - 1) in
      let condense values =
        (* Squeeze the whole run into [width] columns, keeping the max
           of each bucket so short bursts survive the downsampling. *)
        let len = Array.length values in
        if len <= width then values
        else
          Array.init width (fun i ->
              let lo = i * len / width and hi = (i + 1) * len / width in
              let m = ref values.(lo) in
              for j = lo + 1 to hi - 1 do
                if values.(j) > !m then m := values.(j)
              done;
              !m)
      in
      (* Gauges like [rpc.latency_us.p99] are derived from a histogram
         by the SLO refresh; the histogram branch already renders those
         tracks, so skip the duplicate gauge rows. *)
      let derived_from_hist name =
        match String.rindex_opt name '.' with
        | Some i when i + 1 < String.length name && name.[i + 1] = 'p' -> (
            match M.find last (String.sub name 0 i) with
            | Some (M.Histogram _) -> true
            | _ -> false)
        | _ -> false
      in
      let header =
        Printf.sprintf
          "timeseries: %d samples (%d taken) every %.0f us, ts %.0f..%.0f us"
          n t.taken t.interval_us first_ts last_ts
      in
      let lines = ref [] in
      let add line = lines := line :: !lines in
      (* counters as rates *)
      List.iter
        (fun (name, v) ->
          match v with
          | M.Counter total when total - counter_at t.base name > 0 ->
              let r = rates t name in
              let peak = Array.fold_left max 0.0 r in
              add
                (Printf.sprintf "%-38s %s  peak %.0f/s, total %d" name
                   (sparkline (condense r)) peak total)
          | M.Gauge _ when not (derived_from_hist name) ->
              let values =
                condense
                  (Array.map
                     (fun (_, snap) -> float_of_int (gauge_at snap name))
                     ss_arr)
              in
              let any = Array.exists (fun v -> v <> 0.0) values in
              if any then
                add
                  (Printf.sprintf "%-38s %s  last %d" name (sparkline values)
                     (gauge_at last name))
          | M.Histogram h when h.M.count > 0 ->
              List.iter
                (fun q ->
                  let values =
                    condense
                      (Array.map
                         (fun (_, snap) ->
                           match hist_at snap name with
                           | Some h -> float_of_int (M.percentile h q)
                           | None -> 0.0)
                         ss_arr)
                  in
                  add
                    (Printf.sprintf "%-38s %s  last %d"
                       (name ^ "." ^ percentile_suffix q) (sparkline values)
                       (match hist_at last name with
                       | Some h -> M.percentile h q
                       | None -> 0)))
                dashboard_quantiles
          | _ -> ())
        last;
      (* SLO verdicts *)
      List.iter
        (fun (s, n) ->
          add
            (Printf.sprintf "slo %-34s %s <= %d: %s" (slo_gauge_name s)
               (percentile_suffix s.slo_percentile) s.slo_limit
               (if n = 0 then "ok" else Printf.sprintf "%d breaches" n)))
        (breaches t);
      header :: List.rev !lines

(* ---- JSON export ---- *)

let add_float_array b values =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" v)
      else Buffer.add_string b (Printf.sprintf "%.3f" v))
    values;
  Buffer.add_char b ']'

let add_int_array b values =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (string_of_int v))
    values;
  Buffer.add_char b ']'

let to_json t =
  let ss = Array.of_list (samples t) in
  let n = Array.length ss in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"interval_us\": %.0f,\n  \"samples\": %d,\n  \"taken\": %d,\n"
       t.interval_us n t.taken);
  Buffer.add_string b "  \"ts_us\": ";
  add_float_array b (Array.map fst ss);
  Buffer.add_string b ",\n  \"series\": {";
  let last = if n = 0 then [] else snd ss.(n - 1) in
  let first_series = ref true in
  let sep () =
    if !first_series then first_series := false else Buffer.add_char b ',';
    Buffer.add_string b "\n    "
  in
  List.iter
    (fun (name, v) ->
      match v with
      | M.Counter _ ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf "\"%s\": {\"kind\": \"counter\", \"values\": " name);
          add_int_array b (Array.map (fun (_, s) -> counter_at s name) ss);
          Buffer.add_string b ", \"rate_per_s\": ";
          add_float_array b (rates t name);
          Buffer.add_char b '}'
      | M.Gauge _ ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf "\"%s\": {\"kind\": \"gauge\", \"values\": " name);
          add_int_array b (Array.map (fun (_, s) -> gauge_at s name) ss);
          Buffer.add_char b '}'
      | M.Histogram _ ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf "\"%s\": {\"kind\": \"histogram\"" name);
          List.iter
            (fun q ->
              Buffer.add_string b
                (Printf.sprintf ", \"%s\": " (percentile_suffix q));
              add_int_array b
                (Array.map
                   (fun (_, s) ->
                     match hist_at s name with
                     | Some h -> M.percentile h q
                     | None -> 0)
                   ss))
            dashboard_quantiles;
          Buffer.add_string b ", \"count\": ";
          add_int_array b
            (Array.map
               (fun (_, s) ->
                 match hist_at s name with Some h -> h.M.count | None -> 0)
               ss);
          Buffer.add_char b '}')
    last;
  Buffer.add_string b "\n  },\n  \"slos\": [";
  List.iteri
    (fun i (s, breaches) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"hist\": \"%s\", \"percentile\": %g, \"limit_us\": %d, \
            \"breaches\": %d}"
           s.slo_hist s.slo_percentile s.slo_limit breaches))
    (breaches t);
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
