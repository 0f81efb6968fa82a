(* The unified observability layer: the metrics registry and its
   counter families, the span tracer, and — the load-bearing property —
   that instrumenting the stack changed nothing: traced and untraced runs
   put identical bytes on the wire and charge identical simulated
   cycles, and the disabled path (counter-block bumps included)
   allocates nothing. *)

open Ilp_memsim
module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace
module Engine = Ilp_core.Engine
module Soak = Ilp_app.Soak
module Recorder = Ilp_obs.Recorder
module Ts = Ilp_obs.Timeseries

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_counter_and_gauge () =
  let r = M.create () in
  let c = M.counter r "c" in
  M.inc c 1;
  M.inc c 41;
  check "counter accumulates" 42 (M.counter_value c);
  checkb "find-or-create returns the same counter" true (M.counter r "c" == c);
  let g = M.gauge r "g" in
  M.set g 7;
  M.add_gauge g (-3);
  check "gauge set+add" 4 (M.gauge_value g)

let test_kind_mismatch () =
  let r = M.create () in
  ignore (M.counter r "x");
  (match M.gauge r "x" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match M.histogram r "x" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_histogram_buckets () =
  check "v <= 0 lands in bucket 0" 0 (M.bucket_of 0);
  check "negative lands in bucket 0" 0 (M.bucket_of (-37));
  check "1 lands in bucket 1" 1 (M.bucket_of 1);
  check "2 lands in bucket 2" 2 (M.bucket_of 2);
  check "3 lands in bucket 2" 2 (M.bucket_of 3);
  check "4 lands in bucket 3" 3 (M.bucket_of 4);
  check "255 lands in bucket 8" 8 (M.bucket_of 255);
  check "256 lands in bucket 9" 9 (M.bucket_of 256);
  (* Every bucket's own bounds map back to it. *)
  for i = 1 to M.n_buckets - 1 do
    let lo, hi = M.bucket_bounds i in
    check (Printf.sprintf "lo of bucket %d" i) i (M.bucket_of lo);
    check (Printf.sprintf "hi of bucket %d" i) i (M.bucket_of hi)
  done

let test_histogram_merge_and_diff () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  List.iter (M.observe h) [ 1; 2; 3; 100 ];
  let s1 = M.snapshot r in
  List.iter (M.observe h) [ 7; 7 ];
  let s2 = M.snapshot r in
  (match M.find (M.diff s2 s1) "lat" with
  | Some (M.Histogram d) ->
      check "diff count" 2 d.M.count;
      check "diff sum" 14 d.M.sum;
      check "diff bucket of 7" 2 d.M.buckets.(M.bucket_of 7)
  | _ -> Alcotest.fail "diff lost the histogram");
  match M.find (M.merge s1 s1) "lat" with
  | Some (M.Histogram m) ->
      check "merge doubles count" 8 m.M.count;
      check "merge doubles sum" 212 m.M.sum
  | _ -> Alcotest.fail "merge lost the histogram"

let test_golden_render () =
  let r = M.create () in
  M.inc (M.counter r "a.count") 3;
  M.set (M.gauge r "b.level") 7;
  let h = M.histogram r "c.hist" in
  List.iter (M.observe h) [ 1; 2; 3 ];
  let expected =
    "a.count                                  3\n\
     b.level                                  7 (gauge)\n\
     c.hist                                   count=3 sum=6\n\
    \  [1,1]=1 [2,3]=2\n"
  in
  check_s "stable rendering" expected (M.render (M.snapshot r))

let counter_of snap name =
  match M.find snap name with
  | Some (M.Counter n) -> n
  | _ -> Alcotest.fail ("counter missing from snapshot: " ^ name)

let test_family_blocks_sum () =
  let r = M.create () in
  let f = M.family r [| "f.a"; "f.b" |] in
  let b1 = M.block f and b2 = M.block f in
  b1.(0) <- b1.(0) + 3;
  b2.(0) <- b2.(0) + 4;
  b2.(1) <- b2.(1) + 9;
  let s = M.snapshot r in
  check "slot 0 sums over both blocks" 7 (counter_of s "f.a");
  check "slot 1 sums over both blocks" 9 (counter_of s "f.b");
  checkb "same names, same order: the same family" true
    (M.family r [| "f.a"; "f.b" |] == f)

let test_family_late_block_in_diff () =
  let r = M.create () in
  let f = M.family r [| "late.n" |] in
  let early = M.block f in
  early.(0) <- 5;
  let s1 = M.snapshot r in
  let late = M.block f in
  late.(0) <- late.(0) + 2;
  early.(0) <- early.(0) + 1;
  check "a block born after the snapshot counts in the diff" 3
    (M.counter_diff (M.snapshot r) s1 "late.n")

let test_family_registration_order () =
  let r = M.create () in
  ignore (M.counter r "first");
  ignore (M.family r [| "z.one"; "a.two"; "m.three" |]);
  ignore (M.gauge r "last");
  Alcotest.(check (list string))
    "snapshot keeps registration order"
    [ "first"; "z.one"; "a.two"; "m.three"; "last" ]
    (List.map fst (M.snapshot r))

let test_family_kind_clash () =
  let r = M.create () in
  ignore (M.gauge r "g");
  ignore (M.histogram r "h");
  List.iter
    (fun names ->
      match M.family r names with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ [| "ok.1"; "g" |]; [| "h" |] ]

let test_counter_diff_absent () =
  let r = M.create () in
  M.inc (M.counter r "present") 5;
  let s = M.snapshot r in
  check "absent name diffs as 0" 0 (M.counter_diff s s "never-registered");
  check "against empty snapshot" 5 (M.counter_diff s [] "present")

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_ring_wraparound () =
  Trace.enable ~capacity:8 ();
  for i = 1 to 12 do
    Trace.span Trace.Send_marshal ~packet:i ~ts:(float_of_int i) ~dur:1.0
  done;
  Trace.disable ();
  let spans = Trace.spans () in
  check "ring keeps capacity spans" 8 (List.length spans);
  check "recorded counts evictions" 12 (Trace.recorded ());
  check "dropped = overflow" 4 (Trace.dropped ());
  (* Oldest first, the first four evicted, none duplicated. *)
  List.iteri
    (fun i (s : Trace.span_rec) -> check "oldest-first order" (i + 5) s.Trace.packet)
    spans

let test_packet_ids () =
  Trace.disable ();
  check "begin_packet disabled is 0" 0 (Trace.begin_packet ());
  Trace.enable ~capacity:16 ();
  let a = Trace.begin_packet () in
  let b = Trace.begin_packet () in
  checkb "ids increase" true (b = a + 1);
  check "current tracks last begin" b (Trace.current_packet ());
  Trace.disable ()

(* ------------------------------------------------------------------ *)
(* Traced vs untraced: identical bytes, identical cycles *)

let make_sim () = Sim.create (Config.custom ())

let install sim s =
  let addr = Alloc.alloc sim.Sim.alloc ~align:8 (String.length s) in
  Mem.poke_string sim.Sim.mem ~pos:addr s;
  addr

let read_back sim addr len =
  Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:addr ~len)

(* One send + one receive through a fresh engine; returns the wire bytes
   and the total simulated cycles the run charged. *)
let send_recv ~mode ~header_style =
  let sim = make_sim () in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key:"engineKY" () in
  let eng = Engine.create sim ~cipher ~mode ~header_style () in
  let payload = String.init 333 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let payload_addr = install sim payload in
  let prepared =
    Engine.prepare_send eng ~prefix:"PFXWORDS" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.len in
  ignore (prepared.Engine.fill sim.Sim.mem ~dst:wire);
  (match mode with
  | Engine.Ilp -> (
      match Engine.rx_integrated eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.len with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
  | Engine.Separate -> (
      match Engine.rx_separate eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.len with
      | Ok () -> ()
      | Error e -> Alcotest.fail e));
  (read_back sim wire prepared.Engine.len, Machine.cycles sim.Sim.machine)

let test_tracing_changes_nothing () =
  List.iter
    (fun (mode, style, name) ->
      Trace.disable ();
      let wire_off, cycles_off = send_recv ~mode ~header_style:style in
      Trace.enable ~capacity:4096 ();
      let wire_on, cycles_on = send_recv ~mode ~header_style:style in
      let n_spans = List.length (Trace.spans ()) in
      Trace.disable ();
      check_s (name ^ ": identical wire bytes") wire_off wire_on;
      Alcotest.(check (float 0.0))
        (name ^ ": identical cycle charges")
        cycles_off cycles_on;
      (* ILP: 4 fused send + 3 fused recv spans.  Separate: 3 send passes
         + 2 recv passes — the TCP checksum stage belongs to the socket,
         which this direct engine drive bypasses. *)
      let min_spans = match mode with Engine.Ilp -> 7 | Engine.Separate -> 5 in
      checkb (name ^ ": spans were recorded") true (n_spans >= min_spans))
    [ (Engine.Ilp, Engine.Leading, "ilp/leading");
      (Engine.Ilp, Engine.Trailer, "ilp/trailer");
      (Engine.Separate, Engine.Leading, "separate/leading");
      (Engine.Separate, Engine.Trailer, "separate/trailer") ]

let test_tracing_changes_nothing_framed () =
  (* The framed receive adds prelude parsing, combined checksums and
     final placement to the traced path; instrumenting it must still
     change nothing — identical payload and wire bytes either way. *)
  let module Ft = Ilp_app.File_transfer in
  let setup =
    { (Ft.default_setup ~machine:(Config.custom ()) ~mode:Engine.Ilp) with
      Ft.framing = true;
      mss = Some 256;
      copies = 2 }
  in
  Trace.disable ();
  let off = Ft.run setup in
  Trace.enable ~capacity:65536 ();
  let on = Ft.run setup in
  let n_spans = List.length (Trace.spans ()) in
  Trace.disable ();
  checkb "both framed runs completed" true (off.Ft.ok && on.Ft.ok);
  check "identical payload bytes" off.Ft.payload_bytes on.Ft.payload_bytes;
  check "identical wire bytes" off.Ft.wire_bytes on.Ft.wire_bytes;
  check "identical replies" off.Ft.n_replies on.Ft.n_replies;
  checkb "framed spans were recorded" true (n_spans > 0)

let test_disabled_path_allocation_free () =
  Trace.disable ();
  let blk = M.block (M.family M.default [| "test_obs.probe" |]) in
  let h = M.histogram M.default "test_obs.probe_hist" in
  let n = 10_000 in
  let one () =
    let t0 = if Trace.enabled () then Trace.now () else 0.0 in
    Trace.span Trace.Send_marshal ~packet:(Trace.current_packet ()) ~ts:t0
      ~dur:0.0;
    Trace.instant Trace.Tcp_retransmit ~packet:0 ~ts:0.0;
    ignore (Trace.begin_packet ());
    Recorder.note Recorder.State ~conn:0 ~arg:0 ~ts:0.0;
    blk.(0) <- blk.(0) + 1;
    M.observe h 42
  in
  for _ = 1 to 64 do one () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do one () done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Recorder.clear ();
  checkb
    (Printf.sprintf "disabled instrumentation allocates (%.4f words/call)"
       per_call)
    true (per_call <= 0.01)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles *)

let hist_of r name =
  match M.find (M.snapshot r) name with
  | Some (M.Histogram h) -> h
  | _ -> Alcotest.fail ("histogram missing from snapshot: " ^ name)

let test_percentile () =
  let r = M.create () in
  let h = M.histogram r "p" in
  check "empty histogram -> 0" 0 (M.percentile (hist_of r "p") 0.99);
  (* Single observation: every quantile lands inside its bucket. *)
  M.observe h 100;
  let lo, hi = M.bucket_bounds (M.bucket_of 100) in
  List.iter
    (fun q ->
      let v = M.percentile (hist_of r "p") q in
      checkb
        (Printf.sprintf "single-obs p%.0f within bucket" (q *. 100.0))
        true
        (v >= lo && v <= hi))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* Quantiles are monotone in q. *)
  for v = 1 to 1000 do
    M.observe h v
  done;
  let hv = hist_of r "p" in
  let prev = ref 0 in
  List.iter
    (fun q ->
      let v = M.percentile hv q in
      checkb (Printf.sprintf "monotone at q=%.2f" q) true (v >= !prev);
      prev := v)
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ];
  (* Bucket 62 holds everything up to max_int; interpolation must not
     overflow into a negative result. *)
  let big = M.histogram r "p_big" in
  M.observe big max_int;
  M.observe big (max_int - 1);
  let lo62, _ = M.bucket_bounds (M.n_buckets - 1) in
  let v = M.percentile (hist_of r "p_big") 0.99 in
  checkb "bucket-62 percentile stays in range" true (v >= lo62 && v <= max_int);
  (* Out-of-range quantiles are rejected. *)
  (match M.percentile hv 1.5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match M.percentile hv (-0.1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_recorder_ring () =
  let saved = Recorder.capacity () in
  Fun.protect
    ~finally:(fun () -> Recorder.resize saved)
    (fun () ->
      Recorder.resize 8;
      check "resize sets capacity" 8 (Recorder.capacity ());
      check "resize clears" 0 (Recorder.count ());
      for i = 1 to 5 do
        Recorder.note Recorder.Retransmit ~conn:1 ~arg:i ~ts:(float_of_int i)
      done;
      Recorder.note Recorder.Abort ~conn:2 ~arg:0 ~ts:6.0;
      check "all retained below capacity" 6 (Recorder.count ());
      check "noted counts everything" 6 (Recorder.noted ());
      check "nothing dropped yet" 0 (Recorder.dropped ());
      check "filter by conn" 5 (List.length (Recorder.entries ~conn:1 ()));
      (match Recorder.last ~conn:1 2 with
      | [ a; b ] ->
          check "last returns the tail" 4 a.Recorder.arg;
          check "last is oldest-first" 5 b.Recorder.arg
      | l -> Alcotest.fail (Printf.sprintf "last returned %d" (List.length l)));
      (* Overflow the ring: oldest entries fall off, counters keep up. *)
      for i = 7 to 15 do
        Recorder.note Recorder.Keepalive ~conn:3 ~arg:i ~ts:(float_of_int i)
      done;
      check "retained capped at capacity" 8 (Recorder.count ());
      check "noted keeps counting" 15 (Recorder.noted ());
      check "dropped = noted - retained" 7 (Recorder.dropped ());
      (match Recorder.entries () with
      | oldest :: _ ->
          checkb "oldest survivor is post-wrap" true (oldest.Recorder.ts >= 8.0)
      | [] -> Alcotest.fail "ring empty after wrap");
      (* Dump: header plus one line per retained entry; the socket
         module's arg printer decodes state indices. *)
      (match Recorder.dump () with
      | header :: lines ->
          check_s "dump header" "flight recorder: 8 retained / 15 noted (7 dropped)"
            header;
          check "dump body lines" 8 (List.length lines)
      | [] -> Alcotest.fail "empty dump");
      Recorder.note Recorder.State ~conn:9 ~arg:0 ~ts:1.0;
      let line =
        match Recorder.last ~conn:9 1 with
        | [ e ] -> Recorder.entry_line e
        | _ -> Alcotest.fail "missing state entry"
      in
      checkb "arg printer decodes the state" true
        (String.length line > 0
        &&
        let has_sub sub =
          let n = String.length line and m = String.length sub in
          let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
          go 0
        in
        has_sub "CLOSED");
      (* Disabled recorder notes nothing. *)
      Recorder.disable ();
      let before = Recorder.noted () in
      Recorder.note Recorder.Rst_tx ~conn:1 ~arg:0 ~ts:0.0;
      Recorder.enable ();
      check "disabled note is dropped" before (Recorder.noted ()))

(* ------------------------------------------------------------------ *)
(* Time series *)

let test_timeseries_ring () =
  let r = M.create () in
  let c = M.counter r "ts.c" in
  let g = M.gauge r "ts.g" in
  let ts = Ts.create ~capacity:4 ~interval_us:10.0 r in
  for i = 1 to 6 do
    M.inc c i;
    M.set g (10 * i);
    Ts.sample ts ~now:(float_of_int i *. 10.0)
  done;
  check "taken counts every sample" 6 (Ts.taken ts);
  check "retained capped at capacity" 4 (Ts.count ts);
  (match Ts.samples ts with
  | (ts0, _) :: _ -> checkb "oldest retained is post-wrap" true (ts0 = 30.0)
  | [] -> Alcotest.fail "no samples");
  (* Telescoping conservation survives the ring wrap: the first
     retained delta is measured against the base snapshot. *)
  check "delta_sum telescopes to final - base" 21 (Ts.delta_sum ts "ts.c");
  let rates = Ts.rates ts "ts.c" in
  check "one rate per retained sample" 4 (Array.length rates);
  checkb "dashboard renders" true (List.length (Ts.dashboard ts) > 1)

let test_timeseries_slo () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  let slo = { Ts.slo_hist = "lat"; slo_percentile = 0.99; slo_limit = 100 } in
  let ts = Ts.create ~capacity:8 ~slos:[ slo ] ~interval_us:10.0 r in
  M.observe h 10;
  Ts.sample ts ~now:10.0;
  check "within limit: no breach" 0 (Ts.total_breaches ts);
  M.observe h 1_000_000;
  Ts.sample ts ~now:20.0;
  checkb "over limit: breach counted" true (Ts.total_breaches ts > 0);
  (* The derived gauge mirrors the registry percentile. *)
  match M.find (snd (List.nth (Ts.samples ts) 1)) "lat.p99" with
  | Some (M.Gauge v) ->
      check "p99 gauge tracks the histogram"
        (M.percentile (hist_of r "lat") 0.99)
        v
  | _ -> Alcotest.fail "lat.p99 gauge missing from sample"

(* The tentpole end-to-end gate: sampling an overload soak through the
   Simclock hook loses nothing — base + sampled deltas = final registry
   value for every counter, and the healthy-run SLOs hold. *)
let test_sampler_conservation_soak () =
  let r = Ilp_bench.Telem.run ~config:Ilp_bench.Telem.quick_config () in
  (match Ilp_bench.Telem.conservation_failures r with
  | [] -> ()
  | names ->
      Alcotest.fail ("sampler lost counts for: " ^ String.concat ", " names));
  checkb "at least two samples" true (Ts.taken r.Ilp_bench.Telem.ts >= 2);
  match Ilp_bench.Telem.check r with
  | Ok () -> ()
  | Error fs -> Alcotest.fail (String.concat "; " fs)

(* ------------------------------------------------------------------ *)
(* Conservation: the lying-receiver identity *)

(* The lying receiver's forged acks are rejected by the server data
   sockets (invalid SACK blocks plus typed Misbehaving_peer aborts), and
   those are all the rejections the registry saw: no other socket of the
   soak rejects anything. *)
let test_conservation_overload_soak () =
  let cfg = Soak.default_overload_config in
  let before = M.snapshot M.default in
  let o = Soak.run_overload cfg in
  let after = M.snapshot M.default in
  let d name = M.counter_diff after before name in
  checkb "overload invariants hold" true (Soak.overload_invariants_hold o);
  check "forged rejections = sack_invalid + misbehaving aborts"
    o.Soak.forged_rejections
    (d "tcp.sack_invalid" + d "tcp.abort.misbehaving_peer")

(* ------------------------------------------------------------------ *)
(* Tracerun: the ilpbench trace driver *)

let test_tracerun_quick_complete () =
  let r = Ilp_bench.Tracerun.run ~quick:true () in
  checkb "at least one complete send and recv chain" true
    (Ilp_bench.Tracerun.complete r);
  check "nothing evicted at this size" 0 r.Ilp_bench.Tracerun.dropped;
  checkb "chrome json shape" true
    (String.length r.Ilp_bench.Tracerun.json > 2
    && String.sub r.Ilp_bench.Tracerun.json 0 15 = "{\"traceEvents\":")

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
          Alcotest.test_case "log2 bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "histogram merge and diff" `Quick
            test_histogram_merge_and_diff;
          Alcotest.test_case "golden render" `Quick test_golden_render;
          Alcotest.test_case "counter_diff of absent names" `Quick
            test_counter_diff_absent;
          Alcotest.test_case "family blocks sum in snapshot" `Quick
            test_family_blocks_sum;
          Alcotest.test_case "late block shows in diff" `Quick
            test_family_late_block_in_diff;
          Alcotest.test_case "family keeps registration order" `Quick
            test_family_registration_order;
          Alcotest.test_case "family clash with gauge/histogram" `Quick
            test_family_kind_clash ] );
      ( "trace",
        [ Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
          Alcotest.test_case "packet ids" `Quick test_packet_ids ] );
      ( "overhead",
        [ Alcotest.test_case "traced = untraced (bytes and cycles)" `Quick
            test_tracing_changes_nothing;
          Alcotest.test_case "traced = untraced (framed receive)" `Quick
            test_tracing_changes_nothing_framed;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free ] );
      ( "percentile",
        [ Alcotest.test_case "log2 percentile" `Quick test_percentile ] );
      ( "recorder",
        [ Alcotest.test_case "ring, filters, dump" `Quick test_recorder_ring ] );
      ( "timeseries",
        [ Alcotest.test_case "ring wrap and delta conservation" `Quick
            test_timeseries_ring;
          Alcotest.test_case "SLO gauges and breaches" `Quick
            test_timeseries_slo;
          Alcotest.test_case "sampler conservation over overload soak" `Slow
            test_sampler_conservation_soak ] );
      ( "conservation",
        [ Alcotest.test_case "overload ledgers = metrics" `Slow
            test_conservation_overload_soak ] );
      ( "tracerun",
        [ Alcotest.test_case "quick trace has complete chains" `Slow
            test_tracerun_quick_complete ] ) ]
