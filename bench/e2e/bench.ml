(* One benchmark run: build the worlds a workload needs, warm them up,
   then alternate fixed-work samples between them, and reduce the samples
   to the benchmark's metrics.

   An untraced run has two worlds, ILP and separate.  A traced run adds a
   traced twin of each, so the same process also measures what tracing
   costs and checks that it changes nothing on the wire.  The number of
   rounds is fixed by the workload and [--seconds] alone, so a seed
   always means the same work, and every virtual-time result is a
   function of the workload, the seed and the run length. *)

module W = World

type stat = { value : float; median : float; q1 : float; q3 : float; n : int }
type metric = { name : string; unit : string; stat : stat }

(* What a world put on the wire and how it behaved in virtual time after
   its first [check_at] samples — the point both an untraced and a
   traced run reach, so the two can be compared. *)
type det = { digest : int; goodput_mbps : float; sim_p90_us : float; det_rpcs : int }

type result = {
  metrics : metric list;
  attempted : int;
  dets : (string * det) list;
  layers : (string * float * (string * float) list) list;
      (* per traced world: its measured wall time and its layer shares,
         all in ns per byte *)
  info : string list;
  chrome : string option;
}

let pct sorted q = Ilp_bench.Report.percentile_sorted sorted q

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let spread ?value l =
  let a = sorted l in
  let median = pct a 0.5 in
  { value = Option.value value ~default:median; median; q1 = pct a 0.25;
    q3 = pct a 0.75; n = Array.length a }

let single v = { value = v; median = v; q1 = v; q3 = v; n = 1 }

(* A host time measured in a round, scaled by the probe run at the end of
   that round (see [Probe]); the host-time metrics are medians of these. *)
let scale probe_ns v = v *. Probe.reference_ns /. probe_ns

(* One world of a run and everything measured on it.  The per-sample
   lists run newest first, one entry per round, like the run's list of
   probe times. *)
type lane = {
  label : string;
  world : W.t;
  traced : bool;
  mutable samples : int;
  mutable wall_ns : float;
  mutable cpu_ns : float;
  mutable bytes : int;
  mutable rpcs : int;
  mutable sim_us : float;  (* virtual time the samples spanned *)
  mutable ns_per_byte : float list;  (* host time, per sample *)
  mutable host_us : float list list;  (* every RPC's host time, per sample *)
  mutable sim_all : float list;  (* every RPC's virtual time *)
  mutable gc_words : float;
  mutable gc_per_byte : float list;
  counts : float array;
  mutable layer_ns_per_byte : float array list;  (* per traced sample *)
  mutable det : det option;
}

let rounds ~quick ~seconds (wl : W.workload) =
  if quick then 1 else max 2 (int_of_float (Float.ceil (seconds /. wl.W.round_s)))

(* A traced round runs four worlds, so a traced run does half the
   rounds; that is also where every run takes its [det] snapshot. *)
let check_at ~quick ~seconds wl = max 1 (rounds ~quick ~seconds wl / 2)

let goodput l = float_of_int (l.bytes * 8) /. l.sim_us
let p90 l = pct (sorted l) 0.90

let gc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Self time per layer plus the two engine lanes, in microseconds. *)
let layer_names = List.map Attr.name Attr.kinds @ [ "engine.tx"; "engine.rx" ]

let layer_us (a : Attr.t) =
  Array.append (Array.copy a.Attr.self_us) [| a.Attr.engine_tx_us; a.Attr.engine_rx_us |]

let sample ~check_at lane =
  let w = lane.world in
  let wl = w.W.wl in
  let c0 = W.counters w and g0 = gc_words () and a0 = layer_us w.W.attr in
  let wall, cpu = W.run_sample w ~rpcs:wl.W.sample_rpcs ~traced:lane.traced in
  let g1 = gc_words () and c1 = W.counters w and a1 = layer_us w.W.attr in
  let bytes = w.W.done_rpcs * wl.W.file_len in
  let fb = float_of_int bytes in
  Array.iteri (fun i v -> lane.counts.(i) <- lane.counts.(i) +. (v -. c0.(i))) c1;
  lane.samples <- lane.samples + 1;
  lane.wall_ns <- lane.wall_ns +. wall;
  lane.cpu_ns <- lane.cpu_ns +. cpu;
  lane.bytes <- lane.bytes + bytes;
  lane.rpcs <- lane.rpcs + w.W.done_rpcs;
  lane.sim_us <- lane.sim_us +. (w.W.last_done_sim -. w.W.sample_start_sim);
  lane.ns_per_byte <- (cpu /. fb) :: lane.ns_per_byte;
  lane.host_us <- w.W.host_us :: lane.host_us;
  lane.sim_all <- List.rev_append w.W.sim_us lane.sim_all;
  lane.gc_words <- lane.gc_words +. (g1 -. g0);
  lane.gc_per_byte <- ((g1 -. g0) /. fb) :: lane.gc_per_byte;
  if lane.traced then
    lane.layer_ns_per_byte <-
      Array.mapi (fun i v -> (v -. a0.(i)) *. 1000.0 /. fb) a1 :: lane.layer_ns_per_byte;
  if lane.samples = check_at then
    lane.det <-
      Some
        { digest = !(w.W.digest); goodput_mbps = goodput lane;
          sim_p90_us = p90 lane.sim_all; det_rpcs = lane.rpcs }

let lanes_of ~traced =
  [ ("ilp", Ilp_core.Engine.Ilp, false); ("separate", Ilp_core.Engine.Separate, false) ]
  @
  if traced then
    [ ("ilp-traced", Ilp_core.Engine.Ilp, true);
      ("separate-traced", Ilp_core.Engine.Separate, true) ]
  else []

let new_lane (wl : W.workload) ~seed (label, mode, traced) =
  let world = W.create wl ~mode ~seed in
  ignore (W.run_sample world ~rpcs:wl.W.warmup_rpcs ~traced:false);
  { label; world; traced; samples = 0; wall_ns = 0.0; cpu_ns = 0.0; bytes = 0; rpcs = 0;
    sim_us = 0.0;
    ns_per_byte = []; host_us = []; sim_all = []; gc_words = 0.0;
    gc_per_byte = []; counts = Array.make (Array.length W.counter_names) 0.0;
    layer_ns_per_byte = []; det = None }

let lane lanes label = List.find (fun l -> l.label = label) lanes

let host_ns_per_byte ~probes l = List.map2 scale probes l.ns_per_byte

let rpc_host_us ~probes l =
  List.concat (List.map2 (fun p us -> List.map (scale p) us) probes l.host_us)

let median l = (spread l).median

(* Every world of a run does the same work from the same seed, so each
   must put the same bytes on the wire and keep the same virtual time. *)
let check_gates (wl : W.workload) lanes =
  let first = List.hd lanes in
  List.iter
    (fun l ->
      if l.det <> first.det || !(l.world.W.digest) <> !(first.world.W.digest) then
        W.gate "%s: %s and %s differ on the wire or in virtual time" wl.W.name first.label
          l.label)
    lanes

(* The traced world's per-layer metrics; their time shares must add up
   to its measured wall time. *)
let per_layer (wl : W.workload) lanes ~probes =
  let ilp = lane lanes "ilp" and sep = lane lanes "separate" in
  let b = lane lanes "ilp-traced" and d = lane lanes "separate-traced" in
  let shares l =
    Array.map (fun v -> v *. 1000.0 /. float_of_int l.bytes) (layer_us l.world.W.attr)
  in
  let check l =
    let parts = Array.fold_left ( +. ) 0.0 (shares l) in
    let total = l.wall_ns /. float_of_int l.bytes in
    if Float.abs (parts -. total) > 0.01 *. total then
      W.gate "%s: %s layer self times sum to %.2f ns/B, measured %.2f ns/B" wl.W.name
        l.label parts total;
    (l.label, total, List.combine layer_names (Array.to_list (shares l)))
  in
  let layers = [ check b; check d ] in
  let s = shares b in
  let time =
    List.mapi
      (fun i n ->
        let name =
          match n with
          | "bench.other" -> "bench.other_ns_per_byte"
          | "engine.tx" | "engine.rx" -> n ^ ".ns_per_byte"
          | _ -> n ^ ".self_ns_per_byte"
        in
        (name, "ns/B", spread ~value:s.(i) (List.map (fun a -> a.(i)) b.layer_ns_per_byte)))
      layer_names
  in
  let c name = W.counter ~name b.counts in
  let kib l = float_of_int l.bytes /. 1024.0 and rpcs = float_of_int b.rpcs in
  let ratio n d = if d = 0.0 then 0.0 else n /. d in
  let self k = Attr.self_us b.world.W.attr k *. 1000.0 in
  let enters k = float_of_int (Attr.enters b.world.W.attr k) in
  let total = b.wall_ns /. float_of_int b.bytes in
  let host l = median (host_ns_per_byte ~probes l) in
  let scalars =
    [ ("netsim.link.ns_per_datagram", "ns", ratio (self Attr.Link) (c "link.sent"));
      ("tcp.data_rx.ns_per_segment", "ns", ratio (self Attr.Data_rx) (enters Attr.Data_rx));
      ("tcp.ack_rx.ns_per_ack", "ns", ratio (self Attr.Ack_rx) (enters Attr.Ack_rx));
      ("rpc.reply.ns_per_reply", "ns", ratio (self Attr.Reply) (c "rpc.replies_sent"));
      ("netsim.clock.pending_peak", "count", float_of_int !(b.world.W.pending_peak));
      ("netsim.link.datagrams_per_kib", "1/KiB", c "link.sent" /. kib b);
      ("netsim.link.drop_ratio", "ratio", ratio (c "link.dropped") (c "link.sent"));
      ("tcp.retransmit_ratio", "ratio", ratio (c "tcp.retransmissions") (c "tcp.segments_sent"));
      ("tcp.rto_fallbacks_per_rpc", "1/rpc", c "tcp.rto_fallbacks" /. rpcs);
      ("tcp.ooo_placed_ratio", "ratio", ratio (c "tcp.ooo_placed") (c "tcp.out_of_order"));
      ("rpc.client.retries_per_rpc", "1/rpc", c "rpc.client.retries" /. rpcs);
      ("memsim.sim_us_per_kib", "us/KiB", c "memsim.us" /. kib b);
      ( "memsim.sim_us_per_kib_separate", "us/KiB",
        W.counter ~name:"memsim.us" d.counts /. kib d );
      ("memsim.accesses_per_kib", "1/KiB", c "memsim.accesses" /. kib b);
      ("fastpath.copied_bytes_per_byte", "B/B", c "fastpath.copied" /. float_of_int b.bytes);
      ("fastpath.pool.fresh_allocs_per_rpc", "1/rpc", c "pool.fresh_allocs" /. rpcs);
      ("engine.ilp_gain", "ratio", host sep /. host ilp);
      ("attr.coverage", "ratio", 1.0 -. (s.(Attr.index Attr.Bench) /. total));
      ("attr.trace_overhead", "ratio", host b /. host ilp);
      ( "attr.foreign_clock_spans", "1/rpc",
        float_of_int (b.world.W.attr.Attr.foreign + d.world.W.attr.Attr.foreign)
        /. float_of_int (b.rpcs + d.rpcs) ) ]
  in
  (layers, time @ List.map (fun (n, u, v) -> (n, u, single v)) scalars)

let end_to_end lanes ~probes ~setup_s =
  let ilp = lane lanes "ilp" and sep = lane lanes "separate" in
  [ ("host_ns_per_byte", "ns/B", spread (host_ns_per_byte ~probes ilp));
    ("host_ns_per_byte_separate", "ns/B", spread (host_ns_per_byte ~probes sep));
    ("rpc_host_us_p50", "us", spread (rpc_host_us ~probes ilp));
    ("sim_goodput_mbps", "Mbit/s", single (goodput ilp));
    ("rpc_sim_us_p90", "us", single (p90 ilp.sim_all));
    ( "gc_words_per_byte", "words/B",
      spread ~value:(ilp.gc_words /. float_of_int ilp.bytes) ilp.gc_per_byte );
    ( "top_heap_mb", "MB",
      single
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0) );
    ("setup_s", "s", spread setup_s) ]

(* Set-up (world build, handshakes, warm-up batch) is timed several
   times, each repetition scaled by a probe run right after it; all but
   the last set of worlds is torn down at once, which also runs the
   teardown gates early, and collected, so that discarded worlds do not
   count in the peak heap. *)
let setup_reps ~quick ~traced = if quick || traced then 1 else 5

let run ?(quick = false) (wl : W.workload) ~seed ~seconds ~traced =
  Attr.install_clock ();
  let wl =
    if quick then { wl with W.sample_rpcs = max 2 (wl.W.clients / 4); warmup_rpcs = 1 }
    else wl
  in
  let check_at = check_at ~quick ~seconds wl in
  let n_rounds = if traced then check_at else rounds ~quick ~seconds wl in
  let setup_s = ref [] and lanes = ref [] in
  for r = 1 to setup_reps ~quick ~traced do
    let t0 = W.cpu_ns () in
    let ls = List.map (new_lane wl ~seed) (lanes_of ~traced) in
    let s = (W.cpu_ns () -. t0) /. 1e9 in
    setup_s := scale (Probe.time_ns ()) s :: !setup_s;
    if r < setup_reps ~quick ~traced then begin
      List.iter (fun l -> W.teardown l.world) ls;
      Gc.full_major ()
    end
    else lanes := ls
  done;
  let lanes = !lanes and probes = ref [] in
  for _ = 1 to n_rounds do
    List.iter (sample ~check_at) lanes;
    probes := Probe.time_ns () :: !probes
  done;
  let probes = !probes in
  check_gates wl lanes;
  let layers, metrics =
    if traced then per_layer wl lanes ~probes
    else ([], end_to_end lanes ~probes ~setup_s:!setup_s)
  in
  let chrome =
    if traced then Some (Attr.chrome_json (lane lanes "ilp-traced").world.W.attr) else None
  in
  List.iter (fun l -> W.teardown l.world) lanes;
  let info =
    Printf.sprintf "# workload %s seed %d %s: %d rounds of %d rpcs per world" wl.W.name seed
      (if traced then "traced" else "untraced")
      n_rounds wl.W.sample_rpcs
    :: Printf.sprintf "# host-speed probe: median %.1f us, reference %.1f us"
         (median probes /. 1000.0) (Probe.reference_ns /. 1000.0)
    :: List.map
         (fun l ->
           let d = Option.get l.det in
           let all = sorted (List.concat l.host_us) and b = float_of_int l.bytes in
           Printf.sprintf
             "# %-16s after %d rpcs: wire digest %016x  goodput %.4f Mbit/s  sim p90 %.1f us\n\
              # %-16s whole run, unscaled: host %.3f ns/B (wall %.3f)  rpc host p50 %.1f us  \
              p99 %.1f us"
             l.label d.det_rpcs d.digest d.goodput_mbps d.sim_p90_us l.label
             (l.cpu_ns /. b) (l.wall_ns /. b) (pct all 0.5) (pct all 0.99))
         lanes
    @ List.map
        (fun (l, total, shares) ->
          Printf.sprintf "# %s measured %.3f ns/B:%s" l total
            (String.concat ""
               (List.map (fun (n, v) -> Printf.sprintf " %s %.3f" n v) shares)))
        layers
  in
  { metrics = List.map (fun (name, unit, stat) -> { name; unit; stat }) metrics;
    attempted = List.fold_left (fun a l -> a + l.rpcs) 0 lanes;
    dets = List.map (fun l -> (l.label, Option.get l.det)) lanes;
    layers;
    info;
    chrome }
