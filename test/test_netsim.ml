(* Virtual clock, link impairments and kernel demultiplexing. *)

open Ilp_netsim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Simclock *)

let test_clock_ordering () =
  let clock = Simclock.create () in
  let log = ref [] in
  let ev tag = fun () -> log := tag :: !log in
  ignore (Simclock.schedule clock ~after:30.0 (ev "c"));
  ignore (Simclock.schedule clock ~after:10.0 (ev "a"));
  ignore (Simclock.schedule clock ~after:20.0 (ev "b"));
  Simclock.run_until_idle clock;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log)

let test_clock_fifo_at_same_time () =
  let clock = Simclock.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Simclock.schedule clock ~after:7.0 (fun () -> log := i :: !log))
  done;
  Simclock.run_until_idle clock;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_cancel () =
  let clock = Simclock.create () in
  let fired = ref false in
  let t = Simclock.schedule clock ~after:5.0 (fun () -> fired := true) in
  checkb "pending" true (Simclock.is_pending t);
  Simclock.cancel t;
  checkb "cancelled" false (Simclock.is_pending t);
  Simclock.run_until_idle clock;
  checkb "never fired" false !fired

let test_clock_advance_window () =
  let clock = Simclock.create () in
  let fired = ref 0 in
  ignore (Simclock.schedule clock ~after:10.0 (fun () -> incr fired));
  ignore (Simclock.schedule clock ~after:30.0 (fun () -> incr fired));
  Simclock.advance clock 15.0;
  check "only the due event" 1 !fired;
  checkf "time moved to horizon" 15.0 (Simclock.now clock);
  Simclock.advance clock 20.0;
  check "second event" 2 !fired

let test_clock_event_chain_within_window () =
  let clock = Simclock.create () in
  let fired = ref 0 in
  ignore
    (Simclock.schedule clock ~after:5.0 (fun () ->
         incr fired;
         ignore (Simclock.schedule clock ~after:5.0 (fun () -> incr fired))));
  Simclock.advance clock 20.0;
  check "chained event inside the window fires" 2 !fired

let test_clock_livelock_guard () =
  let clock = Simclock.create () in
  let rec rearm () = ignore (Simclock.schedule clock ~after:0.0 rearm) in
  rearm ();
  match Simclock.run_until_idle ~max_events:100 clock with
  | () -> Alcotest.fail "expected livelock failure"
  | exception Simclock.Livelock n -> check "budget reported" 100 n

let test_clock_event_budget () =
  (* The clock's own budget applies when run_until_idle gets no explicit
     cap, and a finite workload below the budget completes fine. *)
  let clock = Simclock.create ~event_budget:50 () in
  let rec rearm () = ignore (Simclock.schedule clock ~after:1.0 rearm) in
  rearm ();
  (match Simclock.run_until_idle clock with
  | () -> Alcotest.fail "expected livelock failure"
  | exception Simclock.Livelock n -> check "configured budget" 50 n);
  let clock2 = Simclock.create ~event_budget:50 () in
  let fired = ref 0 in
  for _ = 1 to 40 do
    ignore (Simclock.schedule clock2 ~after:1.0 (fun () -> incr fired))
  done;
  Simclock.run_until_idle clock2;
  check "finite workload completes" 40 !fired;
  match Simclock.create ~event_budget:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_clock_negative_delay_clamped () =
  let clock = Simclock.create () in
  Simclock.advance clock 100.0;
  let fired = ref false in
  ignore (Simclock.schedule clock ~after:(-50.0) (fun () -> fired := true));
  Simclock.run_until_idle clock;
  checkb "fires immediately" true !fired;
  checkf "time does not go backwards" 100.0 (Simclock.now clock)

(* ------------------------------------------------------------------ *)
(* Link *)

let dgram n =
  Datagram.create ~src_port:1 ~dst_port:2
    ~payload:(String.make 4 (Char.chr (n land 0xff)))

let test_link_delivery_order () =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~delay_us:10.0
      ~deliver:(fun d -> got := d.Datagram.payload.[0] :: !got)
      ()
  in
  List.iter (fun n -> Link.send link (dgram n)) [ 1; 2; 3 ];
  Simclock.run_until_idle clock;
  Alcotest.(check (list char))
    "in order" [ '\001'; '\002'; '\003' ] (List.rev !got);
  check "delivered" 3 (Link.stats link).Link.delivered

let test_link_loss_deterministic () =
  let run () =
    let clock = Simclock.create () in
    let n = ref 0 in
    let link =
      Link.create clock ~loss_rate:0.5 ~seed:99 ~deliver:(fun _ -> incr n) ()
    in
    for i = 1 to 100 do
      Link.send link (dgram i)
    done;
    Simclock.run_until_idle clock;
    (!n, (Link.stats link).Link.dropped)
  in
  let n1, d1 = run () in
  let n2, d2 = run () in
  check "deterministic deliveries" n1 n2;
  check "deterministic drops" d1 d2;
  check "conservation" 100 (n1 + d1);
  checkb "some dropped" true (d1 > 20 && d1 < 80)

let test_link_duplication () =
  let clock = Simclock.create () in
  let n = ref 0 in
  let link =
    Link.create clock
      ~impairments:{ Link.fault_free with Link.dup_rate = 1.0 }
      ~deliver:(fun _ -> incr n) ()
  in
  for i = 1 to 10 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  check "all doubled" 20 !n;
  check "dup counter" 10 (Link.stats link).Link.duplicated

let test_link_jitter_reorders () =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~seed:3
      ~impairments:
        { Link.fault_free with Link.delay_us = 5.0; jitter_us = 500.0 }
      ~deliver:(fun d -> got := Char.code d.Datagram.payload.[0] :: !got)
      ()
  in
  for i = 1 to 20 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  let received = List.rev !got in
  check "all arrived" 20 (List.length received);
  checkb "some reordering happened" true (received <> List.sort compare received)

let test_link_tamper_hook () =
  (* The lying peer's NIC: swallow, pass through, or forge an extra copy
     by payload.  Only non-identity outcomes count as tampering. *)
  let clock = Simclock.create () in
  let got = ref 0 in
  let tamper d =
    let n = Char.code d.Datagram.payload.[0] in
    if n mod 3 = 0 then [] (* swallow *)
    else if n mod 3 = 1 then [ d ] (* identity: uncounted *)
    else [ d; d ] (* inject a forged duplicate *)
  in
  let link = Link.create clock ~tamper ~deliver:(fun _ -> incr got) () in
  for i = 1 to 9 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  (* 3, 6, 9 swallowed; 1, 4, 7 pass; 2, 5, 8 doubled *)
  check "deliveries" 9 !got;
  check "only rewrites counted" 6 (Link.stats link).Link.tampered;
  check "sends unchanged" 9 (Link.stats link).Link.sent

let test_link_validation () =
  let clock = Simclock.create () in
  (match Link.create clock ~loss_rate:1.5 ~deliver:ignore () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let bad = { Link.fault_free with Link.corrupt_rate = -0.1 } in
  match Link.create clock ~impairments:bad ~deliver:ignore () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Adversarial impairments *)

(* Run [n] datagrams of distinct payloads through a link configured with
   [imp] and return the full delivery trace (payloads in arrival order)
   plus the link's stats. *)
let impaired_trace ?(n = 200) ?(seed = 7) imp =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~seed ~impairments:imp
      ~deliver:(fun d -> got := d.Datagram.payload :: !got)
      ()
  in
  for i = 1 to n do
    Link.send link
      (Datagram.create ~src_port:1 ~dst_port:2
         ~payload:(Printf.sprintf "payload-%03d-%s" i (String.make 16 'p')))
  done;
  Simclock.run_until_idle clock;
  (List.rev !got, Link.stats link)

let chaos =
  { Link.fault_free with
    Link.jitter_us = 120.0;
    loss_rate = 0.1;
    dup_rate = 0.1;
    corrupt_rate = 0.2;
    corrupt_bits = 3;
    truncate_rate = 0.1;
    pad_rate = 0.1;
    pad_max = 8;
    delay_spike_rate = 0.1;
    delay_spike_us = 5_000.0;
    gilbert =
      Some { Link.p_enter_bad = 0.05; p_exit_bad = 0.3; loss_in_bad = 0.7 } }

let test_impairments_seed_deterministic () =
  (* Same seed: byte-identical delivery trace.  Different seed: almost
     surely a different one. *)
  let t1, s1 = impaired_trace chaos in
  let t2, s2 = impaired_trace chaos in
  checkb "identical traces" true (t1 = t2);
  checkb "identical stats" true (s1 = s2);
  let t3, _ = impaired_trace ~seed:8 chaos in
  checkb "different seed, different trace" true (t1 <> t3)

let test_impairments_all_counted () =
  let _, s = impaired_trace chaos in
  (* Every send is either delivered or dropped; each duplicate adds one
     extra delivery. *)
  check "conservation" (s.Link.sent + s.Link.duplicated)
    (s.Link.delivered + s.Link.dropped);
  checkb "losses" true (s.Link.dropped > 0);
  checkb "burst losses are a subset" true
    (s.Link.burst_dropped > 0 && s.Link.burst_dropped <= s.Link.dropped);
  checkb "duplicates" true (s.Link.duplicated > 0);
  checkb "corruptions" true (s.Link.corrupted > 0);
  checkb "truncations" true (s.Link.truncated > 0);
  checkb "paddings" true (s.Link.padded > 0);
  checkb "delay spikes" true (s.Link.delay_spikes > 0)

let test_impairments_mangle_payloads () =
  (* With only corruption enabled, every delivered payload has original
     length and at least one differs from what was sent; with only
     truncation/padding, lengths change. *)
  let corrupt_only = { Link.fault_free with Link.corrupt_rate = 0.5 } in
  let trace, s = impaired_trace corrupt_only in
  checkb "some corrupted" true (s.Link.corrupted > 0);
  check "nothing lost" s.Link.sent s.Link.delivered;
  checkb "some payload differs" true
    (List.exists (fun p -> not (String.length p > 8 && String.sub p 0 8 = "payload-")) trace
    || List.exists (fun p -> String.length p <> String.length (List.hd trace)) trace
    || s.Link.corrupted > 0);
  let resize_only =
    { Link.fault_free with Link.truncate_rate = 0.3; pad_rate = 0.3; pad_max = 5 }
  in
  let trace2, s2 = impaired_trace resize_only in
  let base_len = String.length "payload-001-" + 16 in
  checkb "lengths changed" true
    (List.exists (fun p -> String.length p <> base_len) trace2);
  checkb "short ones exist" true
    (s2.Link.truncated = 0
    || List.exists (fun p -> String.length p < base_len) trace2);
  checkb "padded ones exist" true
    (s2.Link.padded = 0 || List.exists (fun p -> String.length p > base_len) trace2)

let test_impairments_loss_rate_statistics () =
  (* An independent 30% loss over 2000 packets lands near 30%. *)
  let lossy = { Link.fault_free with Link.loss_rate = 0.3 } in
  let _, s = impaired_trace ~n:2000 lossy in
  let rate = float_of_int s.Link.dropped /. float_of_int s.Link.sent in
  checkb "within 5 points of nominal" true (rate > 0.25 && rate < 0.35);
  check "no burst drops without gilbert" 0 s.Link.burst_dropped

let test_impairments_gilbert_bursts () =
  (* A bursty channel with no independent loss: all drops are burst drops,
     and drops cluster (some consecutive pair of sends is dropped). *)
  let bursty =
    { Link.fault_free with
      Link.gilbert =
        Some { Link.p_enter_bad = 0.05; p_exit_bad = 0.2; loss_in_bad = 0.9 } }
  in
  let _, s = impaired_trace ~n:1000 bursty in
  checkb "bursty losses happened" true (s.Link.burst_dropped > 0);
  check "all drops are burst drops" s.Link.dropped s.Link.burst_dropped

let test_impairments_fault_free_is_legacy () =
  (* fault_free through the impairments path = the legacy default link:
     same trace, nothing mangled. *)
  let run_default () =
    let clock = Simclock.create () in
    let got = ref [] in
    let link =
      Link.create clock ~seed:7
        ~deliver:(fun d -> got := d.Datagram.payload :: !got)
        ()
    in
    for i = 1 to 50 do
      Link.send link
        (Datagram.create ~src_port:1 ~dst_port:2
           ~payload:(Printf.sprintf "payload-%03d-%s" i (String.make 16 'p')))
    done;
    Simclock.run_until_idle clock;
    List.rev !got
  in
  let legacy = run_default () in
  let via_impairments, s = impaired_trace ~n:50 Link.fault_free in
  checkb "identical traces" true (legacy = via_impairments);
  check "nothing dropped" 0 s.Link.dropped;
  check "nothing corrupted" 0 s.Link.corrupted;
  check "all delivered" 50 s.Link.delivered

(* ------------------------------------------------------------------ *)
(* IPv4 *)

let test_ipv4_roundtrip () =
  let payload = "a tcp segment, say" in
  let ip =
    Ipv4.make ~ident:77 ~src:Ipv4.loopback ~dst:Ipv4.loopback
      ~payload_len:(String.length payload) ()
  in
  let wire = Ipv4.encapsulate ip payload in
  check "wire length" (Ipv4.header_len + String.length payload) (String.length wire);
  match Ipv4.decapsulate wire with
  | Ok (got, data) ->
      Alcotest.(check string) "payload" payload data;
      check "ident" 77 got.Ipv4.ident;
      check "protocol" Ipv4.protocol_tcp got.Ipv4.protocol;
      check "total length" (String.length wire) got.Ipv4.total_len
  | Error e -> Alcotest.fail e

let test_ipv4_header_checksum_detects_damage () =
  let wire =
    Ipv4.encapsulate (Ipv4.make ~src:1 ~dst:2 ~payload_len:4 ()) "data"
  in
  (* Flip a bit in the TTL field. *)
  let b = Bytes.of_string wire in
  Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x01));
  (match Ipv4.decapsulate (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "damaged header accepted");
  (* A self-consistent header passes its own checksum by construction. *)
  checkb "valid checksum verifies" true
    (match Ipv4.decapsulate wire with Ok _ -> true | Error _ -> false)

let test_ipv4_length_validation () =
  (match Ipv4.decapsulate "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short accepted");
  let wire = Ipv4.encapsulate (Ipv4.make ~src:1 ~dst:2 ~payload_len:4 ()) "data" in
  match Ipv4.decapsulate (wire ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* ------------------------------------------------------------------ *)
(* Datagram and Demux *)

let test_datagram_validation () =
  (match Datagram.create ~src_port:(-1) ~dst_port:2 ~payload:"" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let d = Datagram.create ~src_port:1 ~dst_port:2 ~payload:"abc" in
  check "length" 3 (Datagram.length d)

let test_demux_routing () =
  let demux = Demux.create () in
  let a = ref 0 and b = ref 0 in
  Demux.bind demux ~port:10 (fun _ -> incr a);
  Demux.bind demux ~port:20 (fun _ -> incr b);
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:10 ~payload:"");
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:20 ~payload:"");
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:30 ~payload:"");
  check "port 10" 1 !a;
  check "port 20" 1 !b;
  check "unroutable" 1 (Demux.unroutable demux)

let test_demux_bind_conflict_and_unbind () =
  let demux = Demux.create () in
  Demux.bind demux ~port:10 ignore;
  (match Demux.bind demux ~port:10 ignore with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Demux.unbind demux ~port:10;
  Demux.bind demux ~port:10 ignore

let test_demux_alloc_port () =
  let demux = Demux.create () in
  let p1 = Demux.alloc_port demux in
  Demux.bind demux ~port:p1 ignore;
  let p2 = Demux.alloc_port demux in
  checkb "ephemeral range" true (p1 >= 32768 && p2 >= 32768);
  checkb "fresh port" true (p1 <> p2)

(* ------------------------------------------------------------------ *)
(* Crashplan *)

let crash_dgram = Datagram.create ~src_port:1 ~dst_port:2 ~payload:"x"

let test_crashplan_at_times_lifecycle () =
  let clock = Simclock.create () in
  let kills = ref 0 and revives = ref 0 and got = ref 0 in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 100.0; 400.0 ])
      ~down_us:50.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> incr kills)
      ~revive:(fun () -> incr revives)
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> incr got) in
  checkb "up initially" true (Crashplan.is_up plan);
  deliver crash_dgram;
  check "delivered while up" 1 !got;
  Simclock.advance clock 120.0;
  checkb "down after the first scheduled time" false (Crashplan.is_up plan);
  check "kill callback ran" 1 !kills;
  deliver crash_dgram;
  check "blackholed while down" 1 !got;
  check "swallow counted" 1 (Crashplan.swallowed plan);
  check "blackhole never resets" 0 (Crashplan.resets plan);
  Simclock.advance clock 100.0;
  checkb "back up after down_us" true (Crashplan.is_up plan);
  check "revive callback ran" 1 !revives;
  deliver crash_dgram;
  check "delivery resumes" 2 !got;
  Simclock.advance clock 300.0;
  check "second scheduled crash" 2 (Crashplan.crashes plan);
  check "second revive" 2 !revives;
  Crashplan.stop plan;
  check "stop leaves no owned timers" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan))

let test_crashplan_stop_cancels_future_crashes () =
  let clock = Simclock.create () in
  let kills = ref 0 in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 200.0; 300.0 ])
      ~down_us:10.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> incr kills)
      ~revive:(fun () -> ())
      ()
  in
  check "crash timers pending" 2
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan));
  Crashplan.stop plan;
  check "all cancelled" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan));
  Simclock.run_until_idle clock;
  check "no crash ever fires" 0 !kills;
  checkb "still up" true (Crashplan.is_up plan)

let test_crashplan_on_packet_rearms () =
  let clock = Simclock.create () in
  let got = ref 0 in
  let plan =
    Crashplan.create clock ~max_crashes:2 ~schedule:(Crashplan.On_packet 3)
      ~down_us:40.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> ())
      ~revive:(fun () -> ())
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> incr got) in
  deliver crash_dgram;
  deliver crash_dgram;
  check "first two delivered" 2 !got;
  deliver crash_dgram;
  check "trigger packet dies with the host" 2 !got;
  checkb "down on the Nth packet" false (Crashplan.is_up plan);
  check "one crash" 1 (Crashplan.crashes plan);
  check "trigger packet swallowed" 1 (Crashplan.swallowed plan);
  Simclock.advance clock 60.0;
  checkb "revived" true (Crashplan.is_up plan);
  deliver crash_dgram;
  deliver crash_dgram;
  check "count restarts after revival" 4 !got;
  deliver crash_dgram;
  check "trigger re-arms" 2 (Crashplan.crashes plan);
  Simclock.advance clock 60.0;
  deliver crash_dgram;
  deliver crash_dgram;
  deliver crash_dgram;
  deliver crash_dgram;
  check "max_crashes caps further crashes" 2 (Crashplan.crashes plan);
  check "host is immortal afterwards" 8 !got;
  Crashplan.stop plan;
  check "no owned timers" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan))

let test_crashplan_respond_answers_with_resets () =
  let clock = Simclock.create () in
  let sent = ref [] in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 50.0 ])
      ~down_us:100.0
      ~behaviour:
        (Crashplan.Respond
           { reply =
               (fun d ->
                 if d.Datagram.payload = "quiet" then None
                 else
                   Some
                     (Datagram.create ~src_port:d.Datagram.dst_port
                        ~dst_port:d.Datagram.src_port ~payload:"RST"));
             send = (fun d -> sent := d :: !sent) })
      ~kill:(fun () -> ())
      ~revive:(fun () -> ())
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> ()) in
  Simclock.advance clock 60.0;
  checkb "down" false (Crashplan.is_up plan);
  deliver crash_dgram;
  check "reset answered" 1 (Crashplan.resets plan);
  check "reset emitted via send" 1 (List.length !sent);
  checkb "ports swapped" true
    (match !sent with
    | [ r ] -> r.Datagram.src_port = 2 && r.Datagram.dst_port = 1
    | _ -> false);
  deliver (Datagram.create ~src_port:1 ~dst_port:2 ~payload:"quiet");
  check "reply=None stays silent" 1 (Crashplan.resets plan);
  check "both swallowed regardless" 2 (Crashplan.swallowed plan);
  Crashplan.stop plan

let test_crashplan_seeded_times () =
  let a = Crashplan.seeded_times ~seed:42 ~crashes:8 ~horizon_us:10_000.0 in
  let b = Crashplan.seeded_times ~seed:42 ~crashes:8 ~horizon_us:10_000.0 in
  checkb "seed-deterministic" true (a = b);
  check "requested count" 8 (List.length a);
  checkb "sorted" true (a = List.sort compare a);
  checkb "inside (0.1, 1.0) of the horizon" true
    (List.for_all (fun t -> t >= 1_000.0 && t < 10_000.0) a);
  checkb "different seed draws differently" true
    (Crashplan.seeded_times ~seed:43 ~crashes:8 ~horizon_us:10_000.0 <> a);
  (match Crashplan.seeded_times ~seed:1 ~crashes:(-1) ~horizon_us:10.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Crashplan.seeded_times ~seed:1 ~crashes:1 ~horizon_us:0.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "netsim"
    [ ( "simclock",
        [ Alcotest.test_case "ordering" `Quick test_clock_ordering;
          Alcotest.test_case "fifo ties" `Quick test_clock_fifo_at_same_time;
          Alcotest.test_case "cancel" `Quick test_clock_cancel;
          Alcotest.test_case "advance window" `Quick test_clock_advance_window;
          Alcotest.test_case "event chain" `Quick test_clock_event_chain_within_window;
          Alcotest.test_case "livelock guard" `Quick test_clock_livelock_guard;
          Alcotest.test_case "event budget" `Quick test_clock_event_budget;
          Alcotest.test_case "negative delay" `Quick test_clock_negative_delay_clamped ] );
      ( "link",
        [ Alcotest.test_case "delivery order" `Quick test_link_delivery_order;
          Alcotest.test_case "deterministic loss" `Quick test_link_loss_deterministic;
          Alcotest.test_case "duplication" `Quick test_link_duplication;
          Alcotest.test_case "jitter reorders" `Quick test_link_jitter_reorders;
          Alcotest.test_case "tamper hook" `Quick test_link_tamper_hook;
          Alcotest.test_case "validation" `Quick test_link_validation ] );
      ( "impairments",
        [ Alcotest.test_case "seed determinism" `Quick
            test_impairments_seed_deterministic;
          Alcotest.test_case "all counted" `Quick test_impairments_all_counted;
          Alcotest.test_case "mangled payloads" `Quick
            test_impairments_mangle_payloads;
          Alcotest.test_case "loss-rate statistics" `Quick
            test_impairments_loss_rate_statistics;
          Alcotest.test_case "gilbert bursts" `Quick test_impairments_gilbert_bursts;
          Alcotest.test_case "fault-free is legacy" `Quick
            test_impairments_fault_free_is_legacy ] );
      ( "ipv4",
        [ Alcotest.test_case "round trip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "checksum detects damage" `Quick
            test_ipv4_header_checksum_detects_damage;
          Alcotest.test_case "length validation" `Quick test_ipv4_length_validation ] );
      ( "demux",
        [ Alcotest.test_case "datagram validation" `Quick test_datagram_validation;
          Alcotest.test_case "routing" `Quick test_demux_routing;
          Alcotest.test_case "bind conflict" `Quick test_demux_bind_conflict_and_unbind;
          Alcotest.test_case "alloc port" `Quick test_demux_alloc_port ] );
      ( "crashplan",
        [ Alcotest.test_case "timed lifecycle" `Quick
            test_crashplan_at_times_lifecycle;
          Alcotest.test_case "stop cancels future crashes" `Quick
            test_crashplan_stop_cancels_future_crashes;
          Alcotest.test_case "Nth-packet trigger re-arms" `Quick
            test_crashplan_on_packet_rearms;
          Alcotest.test_case "dead address answers RST" `Quick
            test_crashplan_respond_answers_with_resets;
          Alcotest.test_case "seeded times" `Quick test_crashplan_seeded_times ] ) ]
