(* The complete measured system: end-to-end transfers for every cipher and
   mode, and the memory-behaviour invariants the paper's conclusions rest
   on. *)

open Ilp_memsim
module Ft = Ilp_app.File_transfer
module World = Ilp_app.World
module Engine = Ilp_core.Engine
module Linkage = Ilp_core.Linkage
module M = Ilp_obs.Metrics

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_setup ?(machine = Config.ss10_30) ?(cipher = Ft.Safer_simplified)
    ?(mode = Engine.Ilp) ?(copies = 2) ?(max_reply = 1024) ?(loss_rate = 0.0)
    ?(linkage = Linkage.Macro) ?(coalesce = false)
    ?(header_style = Engine.Leading) ?(rx_placement = Engine.Early)
    ?(uniform_units = false) ?(native = false) () =
  { (Ft.default_setup ~machine ~mode) with
    Ft.cipher;
    copies;
    max_reply;
    loss_rate;
    linkage;
    coalesce_writes = coalesce;
    header_style;
    rx_placement;
    uniform_units;
    native }

let run s =
  let r = Ft.run s in
  if r.Ft.verdict <> World.Complete then
    Alcotest.failf "transfer failed: %s" (World.verdict_to_string r.Ft.verdict);
  r

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let a = Ilp_app.Workload.generate ~len:1000 ~seed:5 in
  let b = Ilp_app.Workload.generate ~len:1000 ~seed:5 in
  let c = Ilp_app.Workload.generate ~len:1000 ~seed:6 in
  checkb "same seed same bytes" true (String.equal a b);
  checkb "different seed different bytes" false (String.equal a c);
  check "length" 1000 (String.length a);
  check "paper file" (15 * 1024) Ilp_app.Workload.paper_file_len

let test_workload_install () =
  let sim = Sim.create (Config.custom ()) in
  let s = Ilp_app.Workload.generate ~len:100 ~seed:1 in
  let addr = Ilp_app.Workload.install sim s in
  Alcotest.(check string)
    "installed" s
    (Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:addr ~len:100))

(* ------------------------------------------------------------------ *)
(* End-to-end matrix *)

let test_matrix () =
  List.iter
    (fun cipher ->
      List.iter
        (fun mode ->
          let r = run (small_setup ~cipher ~mode ~copies:1 ()) in
          check "all payload delivered" (15 * 1024) r.Ft.payload_bytes)
        [ Engine.Ilp; Engine.Separate ])
    [ Ft.Safer_simplified; Ft.Simple_encryption; Ft.Safer_full 6; Ft.Des ]

let test_native_backend_end_to_end () =
  (* The whole protocol — TCP checksum verification included — must work
     when the data manipulations run on the native fast path, in both
     modes and for both a SWAR and a table-driven cipher. *)
  List.iter
    (fun cipher ->
      List.iter
        (fun mode ->
          let r = run (small_setup ~cipher ~mode ~native:true ~copies:1 ()) in
          check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
          check "no checksum failures" 0 r.Ft.checksum_failures)
        [ Engine.Ilp; Engine.Separate ])
    [ Ft.Simple_encryption; Ft.Safer_simplified ]

let test_under_loss () =
  let r = run (small_setup ~loss_rate:0.2 ~copies:3 ()) in
  checkb "retransmissions occurred" true (r.Ft.retransmissions > 0);
  check "no checksum failures without corruption" 0 r.Ft.checksum_failures

let test_trailer_style () =
  let r = run (small_setup ~header_style:Engine.Trailer ()) in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes

let test_function_call_linkage_runs () =
  let r = run (small_setup ~linkage:Linkage.function_calls ()) in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes

let test_packet_sizes () =
  List.iter
    (fun max_reply ->
      let r = run (small_setup ~copies:1 ~max_reply ()) in
      check
        (Printf.sprintf "payload for %d" max_reply)
        (15 * 1024) r.Ft.payload_bytes)
    [ 256; 512; 768; 1280; 100; 17 ]

let test_streaming_replies () =
  (* [mss = Some m] smaller than a reply forces every reply through
     [Socket.send_stream] — segmented, pipelined, reassembled — and the
     transfer must still verify byte-exact.  The registry's
     engine.stream_fills counter witnesses that the per-segment fused
     range fills actually ran. *)
  let before = M.snapshot M.default in
  let r =
    run { (small_setup ~copies:1 ~max_reply:1024 ()) with Ft.mss = Some 256 }
  in
  check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
  check "no checksum failures" 0 r.Ft.checksum_failures;
  let after = M.snapshot M.default in
  checkb "replies travelled as fused per-segment range fills" true
    (M.counter_diff after before "engine.stream_fills" > 0)

(* ------------------------------------------------------------------ *)
(* The paper's memory-behaviour claims as invariants *)

let pair_runs ?cipher () =
  let ilp = run (small_setup ?cipher ~mode:Engine.Ilp ~copies:4 ()) in
  let non = run (small_setup ?cipher ~mode:Engine.Separate ~copies:4 ()) in
  (ilp, non)

let test_ilp_reduces_memory_accesses () =
  let ilp, non = pair_runs () in
  let total (r : Ft.result) k = Stats.accesses r.Ft.total_stats k in
  checkb "fewer reads" true (total ilp Stats.Read < total non Stats.Read);
  checkb "fewer writes" true (total ilp Stats.Write < total non Stats.Write);
  (* "up to 30%": at least 15% fewer in our configuration. *)
  let reduction =
    1.0
    -. (float_of_int (total ilp Stats.Read + total ilp Stats.Write)
        /. float_of_int (total non Stats.Read + total non Stats.Write))
  in
  checkb "substantial reduction" true (reduction > 0.15)

let test_ilp_receive_miss_ratio_rises () =
  (* Section 4.2: with the simplified SAFER, the receive-side D-cache miss
     ratio rises sharply under ILP (4.7% -> 18.7% in the paper). *)
  let ilp, non = pair_runs () in
  let ratio (r : Ft.result) = Stats.data_miss_ratio r.Ft.recv_stats in
  checkb "ILP ratio much higher" true (ratio ilp > 2.0 *. ratio non);
  (* And the cause is 1-byte write misses. *)
  let byte_miss (r : Ft.result) =
    Stats.misses_of_size r.Ft.recv_stats Stats.Write ~size:1 ~level:1
  in
  checkb "byte-write misses explode" true (byte_miss ilp > 10 * max 1 (byte_miss non))

let test_simple_encryption_no_miss_explosion () =
  (* With the table-free word-oriented cipher the pathology disappears. *)
  let ilp, non = pair_runs ~cipher:Ft.Simple_encryption () in
  let wm (r : Ft.result) = Stats.misses r.Ft.recv_stats Stats.Write ~level:1 in
  checkb "ILP write misses do not explode" true (wm ilp < 2 * max 1 (wm non))

let test_ilp_faster_both_paths () =
  let ilp, non = pair_runs () in
  checkb "send faster" true (Ft.mean ilp.Ft.send_us < Ft.mean non.Ft.send_us);
  checkb "recv faster" true (Ft.mean ilp.Ft.recv_us < Ft.mean non.Ft.recv_us)

let test_function_calls_lose_the_benefit () =
  (* Section 3.2.1: substituting macros by function calls loses the ILP
     gain. *)
  let non = run (small_setup ~mode:Engine.Separate ~copies:4 ()) in
  let calls =
    run (small_setup ~mode:Engine.Ilp ~linkage:Linkage.function_calls ~copies:4 ())
  in
  let macro = run (small_setup ~mode:Engine.Ilp ~copies:4 ()) in
  let proc (r : Ft.result) = Ft.mean r.Ft.send_us +. Ft.mean r.Ft.recv_us in
  let gain_macro = (proc non -. proc macro) /. proc non in
  let gain_calls = (proc non -. proc calls) /. proc non in
  checkb "macro gain substantial" true (gain_macro > 0.10);
  checkb "call gain mostly gone" true (gain_calls < 0.5 *. gain_macro)

let test_coalesced_stores_cut_write_misses () =
  (* Section 2.2: sizing stores to Le removes the per-byte write misses. *)
  let plain = run (small_setup ~mode:Engine.Ilp ~copies:4 ()) in
  let lcm = run (small_setup ~mode:Engine.Ilp ~coalesce:true ~copies:4 ()) in
  let wm (r : Ft.result) = Stats.misses r.Ft.recv_stats Stats.Write ~level:1 in
  checkb "LCM stores cut receive write misses by >2x" true (2 * wm lcm < wm plain)

let test_no_l2_machine_slower () =
  (* Two machines identical except for the second-level cache: dropping
     the L2 must cost cycles (the SS10-30 effect). *)
  let base = Config.ss10_41 in
  let without = { base with Config.name = "SS10-41-noL2"; l2 = None } in
  let r_with = run (small_setup ~machine:base ()) in
  let r_without = run (small_setup ~machine:without ()) in
  let proc (r : Ft.result) = Ft.mean r.Ft.recv_us +. Ft.mean r.Ft.send_us in
  checkb "missing L2 costs time" true (proc r_without > proc r_with)

let test_late_placement_end_to_end () =
  (* Section 3.2.3: deferring the manipulations to delivery time still
     transfers correctly and costs about the same (the separate checksum
     pass is offset by the dropped tap and lower register pressure). *)
  let early = run (small_setup ()) in
  let late = run (small_setup ~rx_placement:Engine.Late ()) in
  check "all payload delivered" (2 * 15 * 1024) late.Ft.payload_bytes;
  let r (x : Ft.result) = Ft.mean x.Ft.recv_us in
  checkb "receive times within 10%" true
    (Float.abs (r late -. r early) /. r early < 0.10)

let test_uniform_units () =
  (* Section 5: uniform unit sizes transfer correctly and shave the
     per-invocation dispatch. *)
  let mixed = run (small_setup ()) in
  let uniform = run (small_setup ~uniform_units:true ()) in
  check "all payload delivered" (2 * 15 * 1024) uniform.Ft.payload_bytes;
  checkb "uniform units are no slower" true
    (Ft.mean uniform.Ft.send_us <= Ft.mean mixed.Ft.send_us +. 0.5)

let test_stall_accounting () =
  let r = run (small_setup ()) in
  checkb "stall time measured" true (r.Ft.send_stall_us > 0.0 && r.Ft.recv_stall_us > 0.0);
  checkb "stall below total machine time" true
    (r.Ft.send_stall_us +. r.Ft.recv_stall_us < r.Ft.total_machine_us);
  checkb "ifetch stall non-negative" true (r.Ft.ifetch_stall_us >= 0.0)

let test_des_much_slower_than_simplified () =
  (* The paper's reason for simplifying SAFER: realistic ciphers drown the
     stack. *)
  let des = run (small_setup ~cipher:Ft.Des ~copies:1 ()) in
  let simplified = run (small_setup ~cipher:Ft.Safer_simplified ~copies:1 ()) in
  checkb "DES dominates processing" true
    (Ft.mean des.Ft.send_us > 3.0 *. Ft.mean simplified.Ft.send_us)

(* ------------------------------------------------------------------ *)
(* Data path: at the application level the single-copy pooled path must
   deliver every byte and leak nothing, also when the wire misbehaves
   (and, in "world", when the pool recycles nothing). *)

let test_data_path_pooled_under_chaos () =
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.15;
      corrupt_rate = 0.05;
      dup_rate = 0.05 }
  in
  let base =
    { (small_setup ~copies:2 ()) with
      Ft.impairments = Some imp;
      deadline_us = 60_000_000.0 }
  in
  let r = run base in
  checkb "chaos actually bit (retransmissions)" true (r.Ft.retransmissions > 0);
  check "all payload delivered under chaos" (2 * 15 * 1024) r.Ft.payload_bytes;
  check "no leaks under chaos" 0 r.Ft.pool_leaks

(* ------------------------------------------------------------------ *)
(* The v2 ("Reverso") framed receive: negotiated end-to-end, byte-exact,
   and able to land out-of-order segments at their final TSDU offset. *)

let with_framing s = { s with Ft.framing = true }

let test_framed_transfer_matrix () =
  (* Framing must deliver byte-exact across modes and backends, both
     with whole-message replies and pipelined streaming. *)
  List.iter
    (fun (mode, native, mss) ->
      let s =
        { (small_setup ~mode ~native ~copies:1 ()) with Ft.framing = true; mss }
      in
      let r = run s in
      check "all payload delivered" (15 * 1024) r.Ft.payload_bytes;
      check "no checksum failures" 0 r.Ft.checksum_failures;
      check "no pool leaks" 0 r.Ft.pool_leaks)
    [ (Engine.Ilp, false, None);
      (Engine.Ilp, false, Some 256);
      (Engine.Ilp, true, Some 256);
      (Engine.Separate, false, Some 256);
      (Engine.Separate, true, None) ]

let test_framed_equals_unframed_payload () =
  (* Same application bytes either way; the framed wire carries the
     preludes on top (one seg_unit per reply TSDU). *)
  let base = { (small_setup ~copies:1 ()) with Ft.mss = Some 256 } in
  let plain = run base in
  let framed = run (with_framing base) in
  check "same payload" plain.Ft.payload_bytes framed.Ft.payload_bytes;
  checkb "framed wire strictly larger (preludes)" true
    (framed.Ft.wire_bytes > plain.Ft.wire_bytes);
  check "prelude overhead is one seg_unit per reply"
    (framed.Ft.wire_bytes - plain.Ft.wire_bytes)
    (framed.Ft.n_replies * 8)

let test_framed_ooo_final_placement () =
  (* A jittery wire reorders pipelined segments; with framing on, the
     receiver must land them at their final TSDU offset (witnessed by
     the tcp.ooo_placed counter) and still verify byte-exact. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.jitter_us = 120.0;
      delay_spike_rate = 0.2;
      delay_spike_us = 600.0 }
  in
  let before = M.snapshot M.default in
  let r =
    run
      { (small_setup ~copies:2 ()) with
        Ft.framing = true;
        mss = Some 256;
        impairments = Some imp;
        deadline_us = 60_000_000.0 }
  in
  check "all payload delivered" (2 * 15 * 1024) r.Ft.payload_bytes;
  check "no pool leaks" 0 r.Ft.pool_leaks;
  let after = M.snapshot M.default in
  checkb "out-of-order segments landed at final placement" true
    (M.counter_diff after before "tcp.ooo_placed" > 0)

let test_framed_under_chaos () =
  (* Loss, corruption and duplication against the framed receive: the
     transfer must still be byte-exact (corrupt preludes rejected by the
     segment checksum, retransmissions recovering), and must agree with
     the unframed run on payload. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.15;
      corrupt_rate = 0.05;
      dup_rate = 0.05;
      jitter_us = 100.0 }
  in
  let base =
    { (small_setup ~copies:2 ()) with
      Ft.mss = Some 256;
      impairments = Some imp;
      deadline_us = 60_000_000.0 }
  in
  let framed = run (with_framing base) in
  let plain = run base in
  checkb "chaos actually bit (retransmissions)" true
    (framed.Ft.retransmissions > 0);
  check "same payload under chaos" plain.Ft.payload_bytes
    framed.Ft.payload_bytes;
  check "no leaks under chaos" 0 framed.Ft.pool_leaks

let test_framed_crc_trailer_sack_interplay () =
  (* The end-to-end CRC32 trailer, SACK loss recovery and the framed
     receive all stack: a lossy, jittery wire forces SACK-driven hole
     retransmissions while every delivered TSDU still verifies its
     trailer behind the framing prelude. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.12;
      jitter_us = 150.0 }
  in
  let base =
    { (small_setup ~copies:2 ()) with
      Ft.crc = true;
      mss = Some 256;
      impairments = Some imp;
      deadline_us = 60_000_000.0 }
  in
  let framed = run (with_framing base) in
  let plain = run base in
  check "same payload with trailer + framing" plain.Ft.payload_bytes
    framed.Ft.payload_bytes;
  checkb "loss actually bit (retransmissions)" true
    (framed.Ft.retransmissions > 0);
  check "no pool leaks" 0 framed.Ft.pool_leaks;
  (* The trailer rides inside the engine TSDU, so the framed overhead is
     still exactly one prelude per reply. *)
  check "prelude overhead unchanged by the trailer"
    (framed.Ft.wire_bytes - plain.Ft.wire_bytes)
    (framed.Ft.n_replies * 8)

(* ------------------------------------------------------------------ *)
(* Adversarial wire and the soak harness *)

let test_fault_free_impairments_unchanged () =
  (* Routing the transfer through the impairment model with fault_free
     settings must reproduce the legacy run exactly: same bytes, same
     timings, same counters. *)
  let legacy = run (small_setup ~copies:1 ()) in
  let before = M.snapshot M.default in
  let via =
    run
      { (small_setup ~copies:1 ()) with
        Ft.impairments = Some Ilp_netsim.Link.fault_free }
  in
  let after = M.snapshot M.default in
  check "same payload" legacy.Ft.payload_bytes via.Ft.payload_bytes;
  check "same wire bytes" legacy.Ft.wire_bytes via.Ft.wire_bytes;
  check "same retransmissions (none)" 0 via.Ft.retransmissions;
  checkb "same machine time" true
    (legacy.Ft.total_machine_us = via.Ft.total_machine_us);
  checkb "clean drop ledger" true
    (List.for_all
       (fun r ->
         M.counter_diff after before
           ("tcp.drop." ^ Ilp_tcp.Socket.drop_reason_to_string r)
         = 0)
       Ilp_tcp.Socket.drop_reasons)

let test_transfer_reports_typed_error_under_chaos () =
  (* A wire hostile enough to kill the transfer must yield a typed error,
     not a hang or an exception. *)
  let imp =
    { Ilp_netsim.Link.fault_free with
      Ilp_netsim.Link.loss_rate = 0.9; corrupt_rate = 0.5 }
  in
  let r =
    Ft.run
      { (small_setup ~copies:1 ()) with
        Ft.impairments = Some imp;
        deadline_us = 10_000_000.0 }
  in
  checkb "typed verdict" true
    (match r.Ft.verdict with World.Typed _ -> true | _ -> false)

module Soak = Ilp_app.Soak

let soak_smoke cfg =
  let o = Soak.run cfg in
  let t = o.Soak.tally in
  check "all iterations accounted" cfg.Soak.runs
    (t.Soak.byte_exact + t.Soak.typed + t.Soak.escaped + t.Soak.silent);
  check "one run per iteration" cfg.Soak.runs t.Soak.runs;
  checkb "invariants hold" true (Soak.invariants_hold o);
  o

let chaos = Soak.default_config (Soak.Chaos { intensity = 1.0 })

let test_soak_smoke () =
  let t = (soak_smoke { chaos with Soak.runs = 48; file_len = 512 }).Soak.tally in
  checkb "chaos actually bit" true
    (Soak.counter t "link.corrupted" > 0 && Soak.counter t "link.dropped" > 0);
  checkb "some transfers survived" true (t.Soak.byte_exact > 0)

let test_soak_deterministic () =
  let cfg = { chaos with Soak.runs = 16; file_len = 512 } in
  let o1 = soak_smoke cfg in
  let o2 = soak_smoke cfg in
  checkb "same seed, same outcome" true (o1 = o2);
  let o3 = soak_smoke { cfg with Soak.seed = 2 } in
  checkb "different seed, different ledger" true
    (o1.Soak.tally.Soak.delta <> o3.Soak.tally.Soak.delta)

let test_overload_soak_smoke () =
  let cfg = { (Soak.default_config Soak.Overload) with Soak.file_len = 1024 } in
  let o = Soak.run cfg in
  let t = o.Soak.tally in
  checkb "graceful-degradation invariants hold" true (Soak.invariants_hold o);
  check "every client classified" cfg.Soak.runs
    (t.Soak.byte_exact + t.Soak.typed + t.Soak.silent);
  checkb "honest majority completed" true (t.Soak.byte_exact >= 6);
  checkb "misbehaving clients got typed outcomes" true (t.Soak.typed >= 2);
  checkb "zero-window machinery exercised" true
    (Soak.counter t "tcp.persist_probes" > 0);
  checkb "dead reader aborted Peer_stalled" true
    (Soak.counter t "tcp.abort.peer_stalled" >= 1);
  (match o.Soak.figures with
  | Soak.Overload_figures f ->
      checkb "budget ceiling respected" true (f.peak_queued_bytes <= f.queue_cap)
  | Soak.Chaos_figures | Soak.Crash_figures _ -> Alcotest.fail "overload figures");
  (* Deterministic under a fixed seed. *)
  let o2 = Soak.run cfg in
  checkb "same seed, same outcome" true (o = o2)

let test_crash_soak_smoke () =
  let cfg =
    { (Soak.default_config Soak.Crash) with Soak.runs = 8; file_len = 1024 }
  in
  let o = Soak.run cfg in
  let t = o.Soak.tally in
  checkb "fault-model invariants hold" true (Soak.invariants_hold o);
  check "every transfer classified" cfg.Soak.runs
    (t.Soak.byte_exact + t.Soak.typed + t.Soak.silent);
  checkb "crashes actually happened" true (Soak.counter t "netsim.crashes" > 0);
  (match o.Soak.figures with
  | Soak.Crash_figures f ->
      checkb "some transfer resumed across a restart" true
        (f.resumed_completed > 0);
      check "never restarted from byte zero" 0 f.restarts_from_zero;
      check "no stale timers after any crash" 0 f.stale_timers;
      check "dedup ledger conserved" 0 f.dedup_violations
  | Soak.Chaos_figures | Soak.Overload_figures _ -> Alcotest.fail "crash figures");
  check "pool balanced" 0 t.Soak.pool_leaks;
  checkb "the verdict holds" true
    (match Soak.verdict o with Soak.Held _ -> true | _ -> false);
  (* Deterministic under a fixed seed. *)
  let o2 = Soak.run cfg in
  checkb "same seed, same outcome" true (o = o2)

let test_crash_soak_vacuous () =
  (* A crash soak that ran nothing holds every invariant, yet exercised
     no crash: its verdict must still fail it. *)
  let o = Soak.run { (Soak.default_config Soak.Crash) with Soak.runs = 0 } in
  checkb "invariants hold on nothing" true (Soak.invariants_hold o);
  checkb "the verdict is vacuous" true
    (match Soak.verdict o with Soak.Vacuous _ -> true | _ -> false)

let test_soak_repro () =
  let s = Soak.repro in
  Alcotest.(check string) "chaos defaults" "--seed 1 -n 512 --size 512" (s chaos);
  Alcotest.(check string) "crash"
    "--crash --seed 7 -n 16 --size 1024"
    (s { (Soak.default_config Soak.Crash) with seed = 7; runs = 16; file_len = 1024 });
  Alcotest.(check string) "intensity and machine"
    "--seed 7 -n 256 --size 256 --intensity 1.5 --machine SS20-60"
    (s
       { (Soak.default_config (Soak.Chaos { intensity = 1.5 })) with
         seed = 7;
         runs = 256;
         file_len = 256;
         machine = Ilp_memsim.Config.ss20_60 })

let test_overload_lying_receiver () =
  (* The lying-receiver persona forges SACK feedback through the link's
     tamper hook; every forgery must be either rejected (and counted) by
     the server's SACK validation or answered with a typed
     Misbehaving_peer abort — and its own transfer must still be
     byte-exact or typed, never silently wrong. *)
  let cfg = { (Soak.default_config Soak.Overload) with Soak.file_len = 2048 } in
  let o = Soak.run cfg in
  let n = Soak.counter o.Soak.tally in
  checkb "graceful-degradation invariants hold" true (Soak.invariants_hold o);
  checkb "the lying receiver actually forged acks" true (n "link.tampered" > 0);
  checkb "forged feedback was rejected or typed-aborted" true
    (n "tcp.sack_invalid" + n "tcp.abort.misbehaving_peer" > 0);
  match o.Soak.figures with
  | Soak.Overload_figures f ->
      checkb "no forgery went unpunished" false f.forgery_unpunished
  | Soak.Chaos_figures | Soak.Crash_figures _ -> Alcotest.fail "overload figures"

(* ------------------------------------------------------------------ *)
(* World: the one wiring of the paper's connection plan *)

module Socket = Ilp_tcp.Socket
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client
module Simclock = Ilp_netsim.Simclock
module Datagram = Ilp_netsim.Datagram

let world_key = "worldTST"

let plain_world ?pool () =
  World.create ?pool Config.ss10_30 ~link:(fun clock ~deliver ->
      Ilp_netsim.Link.create clock ~delay_us:50.0 ~deliver ())

let world_engine ?(mode = Engine.Ilp) ?(native = false) w =
  World.engine w (fun sim ~pool ->
      let backend =
        if native then
          Engine.Native
            (Ilp_fastpath.Cipher.Safer_simplified
               (Ilp_cipher.Safer_simplified.expand_key world_key))
        else Engine.Simulated
      in
      Engine.create sim
        ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key:world_key ())
        ~mode ~backend ~pool ())

(* One server and one client on [base .. base + 3], a 2 KiB file
   registered, handshakes not yet run. *)
let served ?rx ?mode ?native w ~base =
  let clock = World.clock w in
  let server =
    Rpc_server.create ~clock ~engine:(world_engine ?mode ?native w) ()
  in
  let c = World.connect w server ?rx { Socket.default_config with mss = 2048 } ~base in
  let client =
    Rpc_client.create ~clock ~engine:(world_engine ?mode ?native w)
      ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data ()
  in
  let file = Ilp_app.Workload.generate ~len:2048 ~seed:9 in
  let addr = Ilp_app.Workload.install (World.sim w) file in
  Rpc_server.add_file server ~name:"w.bin" ~addr ~len:2048;
  (server, c, client, file)

let fetch ?(name = "w.bin") w client file =
  (match
     Rpc_client.request_file client ~name ~copies:1 ~max_reply:512
       ~expected:file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  Simclock.run_until_idle (World.clock w)

let verdict_t =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | World.Complete -> "Complete"
        | World.Typed s -> "Typed " ^ s
        | World.Silent -> "Silent"))
    ( = )

(* A segment that opens a connection: SYN without ACK. *)
let is_bare_syn d =
  match Ilp_netsim.Ipv4.decapsulate d.Datagram.payload with
  | Error _ -> false
  | Ok _ -> (
      match
        Ilp_tcp.Tcp_header.of_string d.Datagram.payload
          ~pos:Ilp_netsim.Ipv4.header_len
      with
      | Error _ -> false
      | Ok h ->
          Ilp_tcp.Tcp_header.(has h syn && not (has h ack_flag)))

let test_world_connection_plan () =
  let w = plain_world () in
  let seen = ref [] in
  let rx role s d =
    seen := (role, d) :: !seen;
    Socket.handle_datagram s d
  in
  let server, c, client, file = served ~rx w ~base:40 in
  Simclock.run_until_idle (World.clock w);
  let roles =
    [ (World.Srv_ctrl, c.World.srv_ctrl); (World.Cli_ctrl, c.World.cli_ctrl);
      (World.Srv_data, c.World.srv_data); (World.Cli_data, c.World.cli_data) ]
  in
  List.iteri
    (fun i (role, s) ->
      let port = 40 + i in
      let mine = List.filter (fun (r, _) -> r = role) !seen in
      checkb "established" true (Socket.state s = Socket.Established);
      check "sockets sit on base..base+3 in role order" port (Socket.local_port s);
      checkb "rx saw the role" true (mine <> []);
      checkb "rx saw the role only on its own port" true
        (List.for_all (fun (_, d) -> d.Datagram.dst_port = port) mine))
    roles;
  let first role =
    match List.rev (List.filter (fun (r, _) -> r = role) !seen) with
    | (_, d) :: _ -> d
    | [] -> Alcotest.fail "role never reached"
  in
  (* Each connection is opened by the side that sends on it: the client
     opens the control connection, the server the data connection. *)
  checkb "client opens ctrl: srv_ctrl first hears a SYN" true
    (is_bare_syn (first World.Srv_ctrl));
  checkb "server opens data: cli_data first hears a SYN" true
    (is_bare_syn (first World.Cli_data));
  checkb "cli_ctrl first hears a SYN-ACK" false (is_bare_syn (first World.Cli_ctrl));
  checkb "srv_data first hears a SYN-ACK" false (is_bare_syn (first World.Srv_data));
  check "one admitted connection" 1 (Rpc_server.connections server);
  fetch w client file;
  Alcotest.check verdict_t "one request ends Complete" World.Complete
    (World.verdict client);
  checkb "requests flow client -> server" true
    ((Socket.stats c.World.cli_ctrl).Socket.bytes_sent > 0
    && (Socket.stats c.World.srv_ctrl).Socket.bytes_sent = 0);
  checkb "replies flow server -> client" true
    ((Socket.stats c.World.srv_data).Socket.bytes_sent > 0
    && (Socket.stats c.World.cli_data).Socket.bytes_sent = 0)

let test_world_verdicts () =
  let w = plain_world () in
  let _, c, client, file = served w ~base:40 in
  (* A dead reader: its window never opens, so the server's data socket
     will abort while the client itself holds no failure. *)
  Socket.set_advertised_window c.World.cli_data 0;
  Simclock.run_until_idle (World.clock w);
  Alcotest.check verdict_t "a fresh client is silent" World.Silent
    (World.verdict client);
  Alcotest.check verdict_t "a request that never left" (World.Typed "typed: local refusal")
    (World.verdict ~refused:true client);
  fetch w client file;
  Alcotest.check verdict_t "the server's abort when the client holds nothing"
    (World.Typed
       ("typed (server side): "
       ^ Socket.abort_reason_to_string Socket.Peer_stalled))
    (World.verdict ~conn:c client);
  Alcotest.check verdict_t "the client's own outcome outranks the server's"
    (World.Typed "typed: local refusal")
    (World.verdict ~refused:true ~conn:c client);
  let _, c2, client2, file2 = served w ~base:44 in
  Simclock.run_until_idle (World.clock w);
  fetch w client2 file2;
  Alcotest.check verdict_t "a finished transfer" World.Complete
    (World.verdict ~conn:c2 client2);
  let _, _, client3, file3 = served w ~base:48 in
  Simclock.run_until_idle (World.clock w);
  fetch ~name:"missing.bin" w client3 file3;
  Alcotest.check verdict_t "a request the server rejected"
    (World.Typed "typed: rejected") (World.verdict client3)

let is_rst d =
  match Ilp_netsim.Ipv4.decapsulate d.Datagram.payload with
  | Error _ -> false
  | Ok _ -> (
      match
        Ilp_tcp.Tcp_header.of_string d.Datagram.payload
          ~pos:Ilp_netsim.Ipv4.header_len
      with
      | Error _ -> false
      | Ok h -> Ilp_tcp.Tcp_header.(has h rst))

let test_world_verdict_ctrl_abort () =
  (* The server's control socket hears the client's SYN and nothing
     after it, so it gives up in its handshake; the client established
     its side and never hears the reset.  The client holds nothing, the
     server's data socket is fine: only the control socket's abort makes
     the verdict typed. *)
  let w = plain_world () in
  let heard = ref 0 in
  let rx role s d =
    match role with
    | World.Srv_ctrl ->
        incr heard;
        if !heard = 1 then Socket.handle_datagram s d
    | World.Cli_ctrl -> if not (is_rst d) then Socket.handle_datagram s d
    | World.Srv_data | World.Cli_data -> Socket.handle_datagram s d
  in
  let _, c, client, _ = served ~rx w ~base:40 in
  Simclock.run_until_idle (World.clock w);
  checkb "the client holds no failure" true (Rpc_client.failure client = None);
  checkb "the server data socket is fine" true
    (Socket.failure c.World.srv_data = None);
  checkb "the server control socket aborted in its handshake" true
    (Socket.failure c.World.srv_ctrl = Some Socket.Handshake_failed);
  Alcotest.check verdict_t "typed by the server's control socket"
    (World.Typed
       ("typed (server side): "
       ^ Socket.abort_reason_to_string Socket.Handshake_failed))
    (World.verdict ~conn:c client)

let test_silent_stall () =
  (* A stall nobody reports is silent, the end every soak hunts.  Here a
     server hangs after its handshake: its control socket takes the
     request and nothing answers it.  No endpoint aborts, the clock goes
     idle. *)
  let w = plain_world () in
  let _, c, client, file = served w ~base:40 in
  Simclock.run_until_idle (World.clock w);
  Socket.set_on_message c.World.srv_ctrl (fun ~len:_ -> ());
  fetch w client file;
  Alcotest.check verdict_t "an unanswered request" World.Silent
    (World.verdict ~conn:c client);
  (* A measured transfer whose virtual-time budget ends before its first
     reply stalls the same way, and reports it so: the chaos soak counts
     this verdict as silent. *)
  let r = Ft.run { (small_setup ~copies:1 ()) with Ft.deadline_us = 1.0 } in
  Alcotest.check verdict_t "a transfer out of time" World.Silent r.Ft.verdict;
  check "nothing delivered" 0 r.Ft.payload_bytes

let test_world_pool_audit () =
  (* Native separate-mode engines stage each send in a pool buffer that
     only [Engine.destroy] returns. *)
  let pool = Ilp_fastpath.Pool.create () in
  let w = plain_world ~pool () in
  let _, _, client, file = served ~mode:Engine.Separate ~native:true w ~base:40 in
  Simclock.run_until_idle (World.clock w);
  fetch w client file;
  Alcotest.check verdict_t "transfer complete" World.Complete (World.verdict client);
  checkb "a staging buffer is still out" true (Ilp_fastpath.Pool.outstanding pool > 0);
  check "pool_leaks destroys every engine, then the pool balances" 0
    (World.pool_leaks w)

let test_world_pool_exhaustion () =
  (* A cap-0 shared pool recycles nothing: every acquire falls back to a
     fresh allocation, and the transfer must neither fail nor leak. *)
  let pool = Ilp_fastpath.Pool.create ~class_cap:0 () in
  let w = plain_world ~pool () in
  let _, _, client, file = served w ~base:40 in
  Simclock.run_until_idle (World.clock w);
  fetch w client file;
  Alcotest.check verdict_t "transfer complete on fallback" World.Complete
    (World.verdict client);
  check "all payload delivered on fallback" (String.length file)
    (Rpc_client.bytes_received client);
  let s = Ilp_fastpath.Pool.stats pool in
  checkb "fallback allocated fresh" true (s.Ilp_fastpath.Pool.fresh_allocs > 0);
  checkb "nothing recycled at cap 0" true
    (s.Ilp_fastpath.Pool.fresh_allocs = s.Ilp_fastpath.Pool.acquired);
  check "shared pool balanced" 0 (World.pool_leaks w)

let () =
  Alcotest.run "app"
    [ ( "workload",
        [ Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "install" `Quick test_workload_install ] );
      ( "world",
        [ Alcotest.test_case "connection plan" `Quick test_world_connection_plan;
          Alcotest.test_case "verdict table" `Quick test_world_verdicts;
          Alcotest.test_case "verdict sees the server control socket" `Quick
            test_world_verdict_ctrl_abort;
          Alcotest.test_case "silent stall" `Quick test_silent_stall;
          Alcotest.test_case "pool audit" `Quick test_world_pool_audit;
          Alcotest.test_case "pool exhaustion fallback" `Quick
            test_world_pool_exhaustion ] );
      ( "end-to-end",
        [ Alcotest.test_case "cipher x mode matrix" `Slow test_matrix;
          Alcotest.test_case "native backend end-to-end" `Quick
            test_native_backend_end_to_end;
          Alcotest.test_case "under loss" `Quick test_under_loss;
          Alcotest.test_case "trailer style" `Quick test_trailer_style;
          Alcotest.test_case "function-call linkage" `Quick
            test_function_call_linkage_runs;
          Alcotest.test_case "packet sizes" `Slow test_packet_sizes;
          Alcotest.test_case "streaming replies" `Quick test_streaming_replies ] );
      ( "paper invariants",
        [ Alcotest.test_case "ILP reduces memory accesses" `Quick
            test_ilp_reduces_memory_accesses;
          Alcotest.test_case "receive miss ratio rises" `Quick
            test_ilp_receive_miss_ratio_rises;
          Alcotest.test_case "simple encryption: no explosion" `Quick
            test_simple_encryption_no_miss_explosion;
          Alcotest.test_case "ILP faster on both paths" `Quick test_ilp_faster_both_paths;
          Alcotest.test_case "function calls lose the benefit" `Quick
            test_function_calls_lose_the_benefit;
          Alcotest.test_case "LCM stores cut write misses" `Quick
            test_coalesced_stores_cut_write_misses;
          Alcotest.test_case "no-L2 machine pays more cycles" `Quick
            test_no_l2_machine_slower;
          Alcotest.test_case "late placement" `Quick test_late_placement_end_to_end;
          Alcotest.test_case "uniform units" `Quick test_uniform_units;
          Alcotest.test_case "stall accounting" `Quick test_stall_accounting;
          Alcotest.test_case "DES dominates" `Quick test_des_much_slower_than_simplified ] );
      ( "data path",
        [ Alcotest.test_case "pooled transfer under chaos" `Quick
            test_data_path_pooled_under_chaos ] );
      ( "framed receive",
        [ Alcotest.test_case "framed transfer matrix" `Quick
            test_framed_transfer_matrix;
          Alcotest.test_case "framed = unframed payload" `Quick
            test_framed_equals_unframed_payload;
          Alcotest.test_case "ooo final placement" `Quick
            test_framed_ooo_final_placement;
          Alcotest.test_case "framed under chaos" `Quick
            test_framed_under_chaos;
          Alcotest.test_case "crc trailer + sack interplay" `Quick
            test_framed_crc_trailer_sack_interplay ] );
      ( "adversarial",
        [ Alcotest.test_case "fault-free impairments unchanged" `Quick
            test_fault_free_impairments_unchanged;
          Alcotest.test_case "typed error under chaos" `Quick
            test_transfer_reports_typed_error_under_chaos;
          Alcotest.test_case "soak smoke" `Slow test_soak_smoke;
          Alcotest.test_case "soak determinism" `Quick test_soak_deterministic;
          Alcotest.test_case "overload soak smoke" `Slow test_overload_soak_smoke;
          Alcotest.test_case "lying receiver punished" `Slow
            test_overload_lying_receiver;
          Alcotest.test_case "crash soak smoke" `Slow test_crash_soak_smoke;
          Alcotest.test_case "crash soak vacuous verdict" `Quick
            test_crash_soak_vacuous;
          Alcotest.test_case "soak repro line" `Quick test_soak_repro ] ) ]
