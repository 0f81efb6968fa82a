(* User-level TCP: header codec, ring buffer, RTO estimation,
   end-to-end socket behaviour under loss, reordering, duplication and
   corruption, and the pure reassembly, scoreboard and congestion state
   machines checked against reference models. *)

open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
module Datagram = Ilp_netsim.Datagram
open Ilp_tcp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Header *)

let sample_header =
  Tcp_header.make ~seq:123456789 ~ack:987654321
    ~flags:(Tcp_header.ack_flag lor Tcp_header.psh)
    ~window:8192 ~checksum:0xBEEF ~urgent:7 ~src_port:1234 ~dst_port:80 ()

let test_header_string_roundtrip () =
  let s = Tcp_header.to_string sample_header in
  check "size" Tcp_header.size (String.length s);
  match Tcp_header.of_string s ~pos:0 with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok h -> checkb "round trip" true (h = sample_header)

let test_header_decode_bounds () =
  let s = Tcp_header.to_string sample_header in
  checkb "negative pos rejected" true
    (Result.is_error (Tcp_header.of_string s ~pos:(-1)));
  checkb "truncated buffer rejected" true
    (Result.is_error (Tcp_header.of_string s ~pos:1));
  checkb "runt rejected" true
    (Result.is_error (Tcp_header.of_string "short" ~pos:0));
  (match Tcp_header.of_string_exn s ~pos:0 with
  | h -> checkb "exn wrapper agrees" true (h = sample_header)
  | exception Invalid_argument _ -> Alcotest.fail "spurious raise");
  match Tcp_header.of_string_exn "short" ~pos:0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A record for [Tcp_header.read_mem] to fill. *)
let blank_header () = Tcp_header.make ~src_port:0 ~dst_port:0 ()

(* The writer seals [sample_header]'s fields into simulated memory (the
   urgent pointer 0, the checksum its own), and the reader gives them
   back, both charged. *)
let test_header_mem_roundtrip () =
  let sim = Sim.create (Config.custom ()) in
  let h = sample_header and payload_acc = Ilp_checksum.Internet.empty in
  let len =
    Tcp_header.seal_mem sim.Sim.mem ~pos:256 ~seq:h.seq ~ack:h.ack ~flags:h.flags
      ~window:h.window ~sack:[] ~src_port:h.src_port ~dst_port:h.dst_port ~payload_acc
      ~payload_len:0
  in
  check "header length" Tcp_header.size len;
  let want = { h with Tcp_header.urgent = 0 } in
  want.checksum <- Tcp_header.checksum want ~payload_acc ~payload_len:0;
  let got = blank_header () in
  check "read length" len (Tcp_header.read_mem sim.Sim.mem ~pos:256 ~total:len got);
  checkb "round trip through simulated memory" true (got = want);
  checkb "header traffic was charged" true
    (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Write > 0
    && Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read > 0)

let test_header_flags () =
  checkb "ack set" true (Tcp_header.has sample_header Tcp_header.ack_flag);
  checkb "psh set" true (Tcp_header.has sample_header Tcp_header.psh);
  checkb "syn clear" false (Tcp_header.has sample_header Tcp_header.syn)

let test_header_checksum_consistency () =
  (* The checksum computed over a payload verifies against a recomputation
     with the same parts. *)
  let payload = "hello, checksummed world" in
  let acc =
    Ilp_checksum.Internet.add_string Ilp_checksum.Internet.empty payload
  in
  let ck =
    Tcp_header.checksum sample_header ~payload_acc:acc
      ~payload_len:(String.length payload)
  in
  let ck2 =
    Tcp_header.checksum sample_header ~payload_acc:acc
      ~payload_len:(String.length payload)
  in
  check "deterministic" ck ck2;
  let acc' =
    Ilp_checksum.Internet.add_string Ilp_checksum.Internet.empty
      ("h" ^ String.sub payload 1 (String.length payload - 1))
  in
  check "same data same sum"
    (Tcp_header.checksum sample_header ~payload_acc:acc'
       ~payload_len:(String.length payload))
    ck;
  let corrupt =
    Ilp_checksum.Internet.add_string Ilp_checksum.Internet.empty
      ("X" ^ String.sub payload 1 (String.length payload - 1))
  in
  checkb "different data different sum" true
    (Tcp_header.checksum sample_header ~payload_acc:corrupt
       ~payload_len:(String.length payload)
    <> ck)

(* A sender writes each header once, straight into memory: [seal_mem]
   writes exactly the bytes of [make] of the same fields with the
   checksum field filled in (the window saturated at 16 bits, at most
   three SACK blocks kept), and allocates nothing, options or not;
   [seal_bytes] writes the same bytes uncharged. *)
let test_header_sealed () =
  let payload = "a sealed segment" in
  let payload_acc =
    Ilp_checksum.Internet.add_string Ilp_checksum.Internet.empty payload
  in
  let payload_len = String.length payload in
  let sim = Sim.create (Config.custom ()) in
  let seal ~window ~sack =
    Tcp_header.seal_mem sim.Sim.mem ~pos:256 ~seq:4242 ~ack:77
      ~flags:Tcp_header.ack_flag ~window ~sack ~src_port:1234 ~dst_port:80 ~payload_acc
      ~payload_len
  in
  List.iter
    (fun (window, sack) ->
      let m =
        Tcp_header.make ~seq:4242 ~ack:77 ~flags:Tcp_header.ack_flag ~window ~sack
          ~src_port:1234 ~dst_port:80 ()
      in
      m.checksum <- Tcp_header.checksum m ~payload_acc ~payload_len;
      let want = Tcp_header.to_string m in
      let what = Printf.sprintf "window %d, %d blocks" window (List.length sack) in
      let len = seal ~window ~sack in
      Alcotest.(check string) what want
        (Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:256 ~len));
      let b = Bytes.make 64 '\xaa' in
      let blen =
        Tcp_header.seal_bytes b ~off:3 ~seq:4242 ~ack:77 ~flags:Tcp_header.ack_flag
          ~window ~sack ~src_port:1234 ~dst_port:80 ~payload_acc ~payload_len
      in
      Alcotest.(check string) (what ^ ", uncharged") want (Bytes.sub_string b 3 blen))
    [ (8192, []); (70_000, []); (-1, [ (10, 20) ]);
      (4096, [ (10, 20); (30, 40); (50, 60); (70, 80) ]) ];
  let per_op f =
    f ();
    let n = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  Alcotest.(check (float 0.001))
    "sealed without options: nothing" 0.0
    (per_op (fun () -> ignore (seal ~window:8192 ~sack:[])));
  let blocks = [ (10, 20); (30, 40); (50, 60) ] in
  Alcotest.(check (float 0.001))
    "sealed with three blocks: nothing" 0.0
    (per_op (fun () -> ignore (seal ~window:8192 ~sack:blocks)))

(* Random headers (0-3 SACK blocks) with hostile bytes patched into the
   data offset and the option area, the segment cut short or run long:
   the charged in-place reader gives [of_string]'s verdict, fields and
   header length. *)
let gen_hostile_header =
  let open QCheck.Gen in
  let u16 = int_bound 0xffff and u32 = int_bound 0xffff_ffff in
  pair (pair u16 u16) (pair u32 u32) >>= fun ((src_port, dst_port), (seq, ack)) ->
  pair (int_bound 0xfff) (triple u16 u16 u16) >>= fun (flags, (window, checksum, urgent)) ->
  int_range 0 3 >>= fun n ->
  list_repeat n (pair u32 u32) >>= fun sack ->
  let h =
    Tcp_header.make ~seq ~ack ~flags ~window ~checksum ~urgent ~sack ~src_port ~dst_port ()
  in
  let s = Tcp_header.to_string h in
  (* Patch the data offset's nibble, then bytes anywhere in the first 48. *)
  opt (int_bound 15) >>= fun words ->
  small_list (pair (int_bound 47) (int_bound 255)) >>= fun patches ->
  int_range (-16) 24 >>= fun delta ->
  string_size (return (Int.max 0 delta)) >>= fun tail ->
  let b = Bytes.of_string (s ^ String.make 28 '\000') in
  Option.iter
    (fun w -> Bytes.set_uint8 b 12 ((w lsl 4) lor (Bytes.get_uint8 b 12 land 0x0f)))
    words;
  List.iter (fun (pos, v) -> Bytes.set_uint8 b pos v) patches;
  let len = Int.max Tcp_header.size (String.length s + Int.min 0 delta) in
  return (Bytes.sub_string b 0 len ^ tail)

let prop_header_reader_matches_of_string =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"in-place header reader = of_string: verdict, fields, length"
    (QCheck.make ~print:(fun s -> String.escaped s) gen_hostile_header)
    (fun wire ->
      let sim = Sim.create (Config.custom ()) in
      Mem.poke_string sim.Sim.mem ~pos:512 wire;
      let got = blank_header () in
      let len = Tcp_header.read_mem sim.Sim.mem ~pos:512 ~total:(String.length wire) got in
      match Tcp_header.of_string wire ~pos:0 with
      | Ok h -> len = Tcp_header.wire_size h && got = h
      | Error _ -> len = Tcp_header.bad_options)

(* The writer, over random fields, windows past 16 bits and up to four
   blocks, writes exactly the bytes [to_string] writes for [make] of the
   same fields with the checksum filled in (the header a sender
   transmits), charged and uncharged alike. *)
let prop_header_writer_matches_to_string =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"header writer = to_string of the sealed header, checksum included"
    QCheck.(
      quad
        (pair (int_bound 0xffff) (int_bound 0xffff))
        (pair (int_bound 0xffff_ffff) (int_bound 0xffff_ffff))
        (pair (int_bound 0xfff) (int_range (-10) 100_000))
        (pair
           (list_of_size Gen.(int_range 0 4) (pair (int_bound 0xffff_ffff) (int_bound 0xffff_ffff)))
           (string_of_size Gen.(int_bound 40))))
    (fun ((src_port, dst_port), (seq, ack), (flags, window), (sack, payload)) ->
      let payload_acc =
        Ilp_checksum.Internet.add_string Ilp_checksum.Internet.empty payload
      in
      let payload_len = String.length payload in
      let m = Tcp_header.make ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port () in
      m.checksum <- Tcp_header.checksum m ~payload_acc ~payload_len;
      let want = Tcp_header.to_string m in
      let sim = Sim.create (Config.custom ()) in
      let len =
        Tcp_header.seal_mem sim.Sim.mem ~pos:256 ~seq ~ack ~flags ~window ~sack ~src_port
          ~dst_port ~payload_acc ~payload_len
      in
      let b = Bytes.create Tcp_header.max_wire_size in
      let blen =
        Tcp_header.seal_bytes b ~off:0 ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port
          ~payload_acc ~payload_len
      in
      Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:256 ~len) = want
      && Bytes.sub_string b 0 blen = want)

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let test_ring_basic () =
  let sim = Sim.create (Config.custom ()) in
  let ring = Ring.create sim ~size:100 in
  check "initially empty" 100 (Ring.available ring);
  let a = Ring.reserve ring 40 in
  let b = Ring.reserve ring 40 in
  checkb "reserved" true (a >= 0 && b >= 0);
  checkb "contiguous" true (b = a + 40);
  check "in flight" 2 (Ring.in_flight ring);
  check "no room for 40 more" (-1) (Ring.reserve ring 40);
  Ring.release_exn ring;
  check "released" 1 (Ring.in_flight ring);
  checkb "oldest is b" true (Ring.peek_oldest ring = Some (b, 40))

let test_ring_wrap_waste () =
  let sim = Sim.create (Config.custom ()) in
  let ring = Ring.create sim ~size:100 in
  let a = Ring.reserve ring 60 in
  checkb "reserved" true (a >= 0);
  Ring.release_exn ring;
  (* Head is at 60; a 50-byte reservation cannot span the end, so the
     40-byte tail is wasted and the region starts at the base again. *)
  let b = Ring.reserve ring 50 in
  checkb "wrapped to base" true (b = a);
  check "waste accounted" 10 (Ring.available ring);
  Ring.release_exn ring;
  check "waste freed with the entry" 100 (Ring.available ring)

let test_ring_reserve_too_big () =
  let sim = Sim.create (Config.custom ()) in
  let ring = Ring.create sim ~size:64 in
  check "over-size rejected" (-1) (Ring.reserve ring 65);
  check "zero rejected" (-1) (Ring.reserve ring 0)

let test_ring_release_empty () =
  let sim = Sim.create (Config.custom ()) in
  let ring = Ring.create sim ~size:64 in
  checkb "typed error" true (Ring.release ring = Error `Empty);
  (match Ring.release_exn ring with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  (* A release after a successful reserve works through both APIs. *)
  checkb "reserved" true (Ring.reserve ring 8 >= 0);
  checkb "ok when non-empty" true (Ring.release ring = Ok ())

let prop_ring_fifo =
  QCheck.Test.make ~count:100 ~name:"ring reservations release FIFO and restore space"
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 40))
    (fun lens ->
      let sim = Sim.create (Config.custom ()) in
      let ring = Ring.create sim ~size:128 in
      List.iter
        (fun len ->
          let addr = Ring.reserve ring len in
          if addr >= 0 then begin
            (* Release at random-ish parity to exercise interleaving. *)
            if Ring.in_flight ring > 2 then Ring.release_exn ring
          end
          else if Ring.in_flight ring > 0 then Ring.release_exn ring)
        lens;
      while Ring.in_flight ring > 0 do
        Ring.release_exn ring
      done;
      Ring.available ring = 128)

(* ------------------------------------------------------------------ *)
(* RTO *)

let test_rto_defaults_and_sampling () =
  let r = Rto.create ~initial_us:1000.0 ~min_us:100.0 ~max_us:10_000.0 () in
  checkb "initial" true (Rto.timeout_us r = 1000.0);
  Rto.sample r ~sent_at:100.0 ~now:500.0;
  checkb "after sample, srtt known" true (Rto.srtt_us r = Some 400.0);
  let t = Rto.timeout_us r in
  checkb "timeout within clamps" true (t >= 100.0 && t <= 10_000.0)

let test_rto_backoff () =
  let r = Rto.create ~initial_us:1000.0 ~min_us:100.0 ~max_us:10_000.0 () in
  let t0 = Rto.timeout_us r in
  Rto.backoff r;
  let t1 = Rto.timeout_us r in
  checkb "doubles" true (t1 = 2.0 *. t0);
  Rto.backoff r;
  Rto.backoff r;
  Rto.backoff r;
  Rto.backoff r;
  checkb "clamped at max" true (Rto.timeout_us r <= 10_000.0);
  Rto.reset_backoff r;
  checkb "reset" true (Rto.timeout_us r = t0)

let test_rto_smoothing () =
  let r = Rto.create ~min_us:50.0 () in
  List.iter (fun v -> Rto.sample r ~sent_at:0.0 ~now:v) [ 100.0; 100.0; 100.0; 100.0 ];
  let t = Rto.timeout_us r in
  (* srtt = 100, rttvar decays: timeout approaches min-bounded srtt. *)
  checkb "converges near srtt" true (t < 500.0 *. 2.0)

(* The estimator as it was with a [float option] srtt, the arithmetic
   written the same way: the flat estimator must agree bit for bit. *)
module Rto_ref = struct
  type t = { mutable srtt : float option; mutable rttvar : float; mutable shift : int }

  let create () = { srtt = None; rttvar = 0.0; shift = 0 }

  let sample t rtt =
    (match t.srtt with
    | None ->
        t.srtt <- Some rtt;
        t.rttvar <- rtt /. 2.0
    | Some srtt ->
        let err = rtt -. srtt in
        t.rttvar <- t.rttvar +. ((Float.abs err -. t.rttvar) /. 4.0);
        t.srtt <- Some (srtt +. (err /. 8.0)));
    t.shift <- 0

  let timeout_us t ~initial_us ~min_us ~max_us =
    let base = match t.srtt with None -> initial_us | Some s -> s +. (4.0 *. t.rttvar) in
    Float.min max_us (Float.max min_us (base *. float_of_int (1 lsl t.shift)))
end

(* Samples fold with no allocation (the estimate's floats are stored
   flat), and the timeouts match the option-based estimator bit for bit
   through samples, backoffs and resets. *)
let test_rto_flat () =
  let r = Rto.create ~initial_us:3000.0 ~min_us:200.0 ~max_us:400_000.0 () in
  let m = Rto_ref.create () in
  let bits f = Int64.bits_of_float f in
  let same what =
    Alcotest.(check int64) what
      (bits (Rto_ref.timeout_us m ~initial_us:3000.0 ~min_us:200.0 ~max_us:400_000.0))
      (bits (Rto.timeout_us r))
  in
  same "before any sample";
  let prng = Ilp_netsim.Xorshift.create 7 in
  for i = 1 to 400 do
    let sent_at = float_of_int i *. 1000.0 +. Ilp_netsim.Xorshift.float prng in
    let now = sent_at +. 10.0 +. (5000.0 *. Ilp_netsim.Xorshift.float prng) in
    (match i mod 7 with
    | 3 ->
        Rto.backoff r;
        m.Rto_ref.shift <- Int.min 12 (m.Rto_ref.shift + 1)
    | 5 ->
        Rto.reset_backoff r;
        m.Rto_ref.shift <- 0
    | _ ->
        Rto.sample r ~sent_at ~now;
        Rto_ref.sample m (now -. sent_at));
    same (Printf.sprintf "after step %d" i)
  done;
  checkb "srtt as the reference" true (Rto.srtt_us r = m.Rto_ref.srtt);
  let words =
    let sent_at = Sys.opaque_identity 1000.0 and now = Sys.opaque_identity 1750.5 in
    Rto.sample r ~sent_at ~now;
    let n = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do Rto.sample r ~sent_at ~now done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  Alcotest.(check (float 0.001)) "Rto.sample allocates nothing" 0.0 words

(* ------------------------------------------------------------------ *)
(* Socket integration *)

type world = {
  sim : Sim.t;
  clock : Simclock.t;
  a : Socket.t;
  b : Socket.t;
  link : Link.t;
  app : int;  (* [b]'s receive area: delivered TSDUs start here *)
}

(* The receive handler every world's [b] starts with: a plain charged
   copy of each accepted segment to its TSDU offset in a [len]-byte
   application area; a segment that would overflow the area is rejected
   (dropped as [Bad_length]), so a TSDU larger than the receiver can
   hold ends in a typed abort, never silent truncation. *)
let copy_handler ~area ~len:area_len =
  Socket.Rx_separate
    (fun m ~src ~dst_off ~len ->
      if dst_off + len > area_len then Error "overflow"
      else begin
        Mem.blit m ~src ~dst:(area + dst_off) ~len ~unit_len:4;
        Ok ()
      end)

let make_world ?(loss_rate = 0.0) ?(jitter_us = 0.0) ?(dup_rate = 0.0) ?(seed = 11)
    ?(mss = 1024)
    ?(sack = Socket.default_config.Socket.sack)
    ?(send_buffer = Socket.default_config.Socket.send_buffer)
    ?(recv_window = Socket.default_config.Socket.recv_window) ?rx_area
    ?(rx_handler = true) ?tamper ?(mangle = fun _ s -> s) () =
  (* [mangle n] rewrites the nth datagram's payload, then [tamper] (a
     lying NIC) sees the result; both run as the link's tamper hook, and
     an untouched datagram passes as itself so [Link.stats.tampered]
     counts only real rewrites. *)
  let count = ref 0 in
  let tamper d =
    incr count;
    let payload = mangle !count d.Datagram.payload in
    let d =
      if payload == d.Datagram.payload then d
      else
        Datagram.create ~src_port:d.Datagram.src_port ~dst_port:d.Datagram.dst_port
          ~payload
    in
    match tamper with None -> [ d ] | Some f -> f d
  in
  let w =
    Ilp_app.World.create (Config.custom ()) ~link:(fun clock ~deliver ->
        Link.create clock ~seed ~tamper ~deliver
          ~impairments:
            { Link.fault_free with
              Link.delay_us = 25.0; loss_rate; jitter_us; dup_rate }
          ())
  in
  let sim = Ilp_app.World.sim w in
  let cfg =
    { Socket.default_config with
      mss;
      sack;
      send_buffer;
      recv_window
    }
  in
  let a = Ilp_app.World.socket w cfg ~port:100 in
  let b = Ilp_app.World.socket w cfg ~port:200 in
  (* [rx_area] (default: one MSS) bounds the TSDUs [b] can reassemble. *)
  let rx_area = Option.value rx_area ~default:mss in
  let app = Alloc.alloc sim.Sim.alloc ~align:64 rx_area in
  if rx_handler then
    Socket.set_rx_processing b (copy_handler ~area:app ~len:rx_area);
  { sim; clock = Ilp_app.World.clock w; a; b; link = Ilp_app.World.link w; app }

let connect w =
  Socket.listen w.b;
  Socket.connect w.a ~remote_port:200;
  Simclock.run_until_idle w.clock

let collect_into w buf =
  Socket.set_on_message w.b (fun ~len ->
      Buffer.add_bytes buf (Mem.peek_bytes w.sim.Sim.mem ~pos:w.app ~len))

(* Pump the world while pushing messages as buffer space allows.
   [burst_us] controls the pacing: large values ack each message before
   the next is sent, small values keep many segments in flight. *)
let transfer ?(burst_us = 1_000.0) w messages =
  let pending = Queue.of_seq (List.to_seq messages) in
  let guard = ref 100_000 in
  while (not (Queue.is_empty pending)) && !guard > 0 do
    decr guard;
    (match Queue.peek_opt pending with
    | None -> ()
    | Some payload -> (
        let fill m ~dst ~off:_ ~len:_ =
          Mem.poke_string m ~pos:dst payload;
          None
        in
        match Socket.send_message w.a ~len:(String.length payload) ~fill with
        | Ok () -> ignore (Queue.pop pending)
        | Error _ -> ()));
    Simclock.advance w.clock burst_us
  done;
  (* Let retransmissions finish. *)
  Simclock.run_until_idle w.clock

let test_handshake () =
  let w = make_world () in
  connect w;
  Alcotest.(check string)
    "a established" "ESTABLISHED"
    (Socket.state_to_string (Socket.state w.a));
  Alcotest.(check string)
    "b established" "ESTABLISHED"
    (Socket.state_to_string (Socket.state w.b))

(* One host runs one TCP and one kernel text: a second socket on the
   same Sim fetches the lines the first socket's SYN left in the L1i, so
   its SYN receive and SYN-ACK send miss no instruction line (with a
   5 KiB copy per socket they missed 80, one per line). *)
let test_code_image_shared () =
  let w =
    Ilp_app.World.create Config.ss10_30 ~link:(fun clock ~deliver ->
        Link.create clock ~delay_us:25.0 ~deliver ())
  in
  let stats = Machine.stats (Ilp_app.World.sim w).Sim.machine in
  let ifetch_misses () = Stats.misses stats Stats.Ifetch ~level:1 in
  let a = Ilp_app.World.socket w Socket.default_config ~port:100 in
  let syn = ref None in
  let rx s d =
    let before = ifetch_misses () in
    Socket.handle_datagram s d;
    if !syn = None then syn := Some (ifetch_misses () - before)
  in
  let b = Ilp_app.World.socket w ~rx Socket.default_config ~port:200 in
  Socket.listen b;
  Socket.connect a ~remote_port:200;
  Simclock.run_until_idle (Ilp_app.World.clock w);
  checkb "b established" true (Socket.state b = Socket.Established);
  check "SYN receive + SYN-ACK send: level-1 Ifetch misses" 0 (Option.get !syn)

let test_handshake_under_loss () =
  (* Seed chosen so that packets (including handshake ones) do drop. *)
  let w = make_world ~loss_rate:0.4 ~seed:5 () in
  connect w;
  checkb "a eventually established" true (Socket.state w.a = Socket.Established)

let test_simple_transfer () =
  let w = make_world () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  transfer w [ "hello"; "world"; String.make 1000 'x' ];
  Alcotest.(check string)
    "stream intact"
    ("helloworld" ^ String.make 1000 'x')
    (Buffer.contents got);
  check "no retransmissions" 0 (Socket.stats w.a).Socket.retransmissions

let test_transfer_under_loss () =
  let w = make_world ~loss_rate:0.2 ~seed:17 () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 40 (fun i -> String.make (50 + (i * 13 mod 500)) (Char.chr (65 + (i mod 26)))) in
  transfer w msgs;
  Alcotest.(check string) "stream intact" (String.concat "" msgs) (Buffer.contents got);
  checkb "retransmissions happened" true ((Socket.stats w.a).Socket.retransmissions > 0)

let test_transfer_with_reordering () =
  let w = make_world ~jitter_us:2500.0 ~seed:23 () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 30 (fun i -> Printf.sprintf "message-%02d-%s" i (String.make 40 '.')) in
  transfer w msgs;
  Alcotest.(check string) "stream intact" (String.concat "" msgs) (Buffer.contents got);
  checkb "out-of-order segments seen" true ((Socket.stats w.b).Socket.out_of_order > 0)

let test_transfer_with_duplication () =
  let w = make_world ~dup_rate:0.5 ~seed:31 () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 20 (fun i -> Printf.sprintf "%04d-payload" i) in
  transfer w msgs;
  Alcotest.(check string) "duplicates filtered" (String.concat "" msgs) (Buffer.contents got);
  checkb "duplicates seen" true ((Socket.stats w.b).Socket.duplicates > 0)

(* One host copy per datagram: the kernel part builds the IP datagram
   once, straight from the kernel buffer, and the receiver checks it and
   DMAs the segment from where it lies.  So from the send to the end of
   the peer's receive (its ack included), a 1448-byte segment costs more
   host words than a 64-byte one only by its wire string's own words,
   and the 64-byte trip stays within a fixed budget. *)
let test_datagram_one_host_copy () =
  let w = make_world ~mss:1448 () in
  connect w;
  let delivered = ref 0 in
  Socket.set_on_message w.b (fun ~len -> delivered := !delivered + len);
  let trip len =
    let payload = String.make len 'd' in
    let fill m ~dst ~off:_ ~len:_ =
      Mem.poke_string m ~pos:dst payload;
      None
    in
    fun () ->
      (match Socket.send_message w.a ~len ~fill with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send refused");
      Simclock.run_until_idle w.clock
  in
  let words_per_trip f =
    f ();
    f ();
    let n = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let small = words_per_trip (trip 64) and big = words_per_trip (trip 1448) in
  (* Around the wire strings the trip's bookkeeping is pinned too: the
     send-side copy is timed without a box (6 words a datagram before),
     the ack frees its segment without a closure or an option (210 words
     for this trip before, 172 after), and each header is read into its
     socket's record and written straight into its header area, the RTO
     armed without a closure or an option, and the ring reserved without
     an option (112), and the RTO timer built once with its socket (107
     now). *)
  checkb
    (Printf.sprintf "a 64-byte segment's trip costs %.1f words (budget 107)" small)
    true (small <= 107.5);
  (* A string of [n] bytes is a header word plus [n / 8 + 1] words. *)
  let wire_words len =
    float_of_int (((Ilp_netsim.Ipv4.header_len + Tcp_header.size + len) / 8) + 2)
  in
  let allowed = wire_words 1448 -. wire_words 64 in
  checkb
    (Printf.sprintf "1448-byte segment costs %.1f words more than 64 (wire string: %.0f)"
       (big -. small) allowed)
    true
    (big -. small <= allowed +. 0.5);
  check "every segment delivered" (52 * (64 + 1448)) !delivered

(* A pure ACK that frees the one segment in flight allocates nothing: its
   header is parsed into the socket's own record (14 words before, for
   two records), the acked segment leaves the scoreboard without a
   closure or an option, the RTT sample folds into the estimator
   unboxed, and with nothing left in flight the RTO is only cancelled. *)
let test_pure_ack_allocates_header_only () =
  let held = ref None and hold = ref false in
  let tamper d =
    if !hold && d.Datagram.src_port = 200 then begin
      held := Some d;
      []
    end
    else [ d ]
  in
  let w = make_world ~tamper () in
  connect w;
  let fill m ~dst ~off:_ ~len =
    Mem.poke_string m ~pos:dst (String.make len 'a');
    None
  in
  let send () =
    match Socket.send_message w.a ~len:200 ~fill with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "send refused"
  in
  send ();
  Simclock.run_until_idle w.clock;
  hold := true;
  send ();
  (* Long enough for the segment to arrive and its ack to leave, well
     inside the retransmission timeout. *)
  Simclock.advance w.clock 500.0;
  let ack = match !held with Some d -> d | None -> Alcotest.fail "no ack held" in
  checkb "a segment awaits the ack" true (Socket.bytes_in_flight w.a = 200);
  let w0 = Gc.minor_words () in
  Socket.handle_datagram w.a ack;
  let words = Gc.minor_words () -. w0 in
  check "the ack freed it" 0 (Socket.bytes_in_flight w.a);
  Alcotest.(check (float 0.001)) "pure ack: nothing" 0.0 words

(* An ack that frees one of two segments in flight re-arms the RTO for
   the one left, and the arm allocates the boxed timeout alone: the
   timer is built once with the socket and re-armed in place (7 words
   before, for a timer record per arm; 13 before that, for its callback
   closure and an option). *)
let test_rto_arm_allocates_timer_only () =
  let held = ref [] and hold = ref false in
  let tamper d =
    if !hold && d.Datagram.src_port = 200 then begin
      held := d :: !held;
      []
    end
    else [ d ]
  in
  let w = make_world ~tamper () in
  connect w;
  let fill m ~dst ~off:_ ~len =
    Mem.poke_string m ~pos:dst (String.make len 'r');
    None
  in
  hold := true;
  (match Socket.send_stream w.a ~seg_unit:8 ~len:2048 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Simclock.advance w.clock 500.0;
  let first_ack =
    match List.rev !held with d :: _ -> d | [] -> Alcotest.fail "no ack held"
  in
  checkb "two segments await their acks" true (Socket.bytes_in_flight w.a = 2048);
  let w0 = Gc.minor_words () in
  Socket.handle_datagram w.a first_ack;
  let words = Gc.minor_words () -. w0 in
  check "the ack freed one segment" 1024 (Socket.bytes_in_flight w.a);
  checkb
    (Printf.sprintf "re-arm: the boxed timeout alone (%.0f words, budget 2)" words)
    true (words <= 2.0)

let test_corruption_detected_and_recovered () =
  (* Flip a payload byte of the 8th wire datagram once; TCP must drop it on
     checksum and recover by retransmission.  The payload sits behind the
     IP and TCP headers. *)
  let hdrs = Ilp_netsim.Ipv4.header_len + Tcp_header.size in
  let flipped = ref false in
  let mangle n s =
    if n = 8 && String.length s > hdrs + 2 && not !flipped then begin
      flipped := true;
      let b = Bytes.of_string s in
      Bytes.set b (hdrs + 1)
        (Char.chr (Char.code (Bytes.get b (hdrs + 1)) lxor 0xff));
      Bytes.to_string b
    end
    else s
  in
  let w = make_world ~mangle () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 10 (fun i -> Printf.sprintf "msg%02d-%s" i (String.make 100 'q')) in
  transfer w msgs;
  Alcotest.(check string) "stream intact" (String.concat "" msgs) (Buffer.contents got);
  checkb "mangled once" true !flipped;
  check "checksum failure recorded" 1 (Socket.stats w.b).Socket.checksum_failures;
  check "ledger counts the checksum drop" 1 (Socket.drop_count w.b Socket.Bad_checksum);
  checkb "recovered by retransmission" true ((Socket.stats w.a).Socket.retransmissions > 0)

let test_truncation_dropped_and_recovered () =
  (* Chop the 8th wire datagram down to a runt.  The kernel or the TCP
     input path must drop it into the ledger, and the stream must still
     arrive intact via retransmission. *)
  let cut = ref false in
  let mangle n s =
    if n = 8 && String.length s > 6 && not !cut then begin
      cut := true;
      String.sub s 0 6
    end
    else s
  in
  let w = make_world ~mangle () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 10 (fun i -> Printf.sprintf "trunc%02d-%s" i (String.make 90 't')) in
  transfer w msgs;
  Alcotest.(check string) "stream intact" (String.concat "" msgs) (Buffer.contents got);
  checkb "truncated once" true !cut;
  checkb "runt landed in the drop ledger" true
    (Socket.drop_count w.b Socket.Bad_ip + Socket.drop_count w.b Socket.Bad_header >= 1);
  checkb "ledger total agrees" true (Socket.drops_total w.b >= 1)

let test_abort_handshake_failed () =
  (* A wire that delivers nothing: the active opener must give up with a
     typed abort instead of spinning forever. *)
  let w = make_world ~loss_rate:1.0 () in
  let aborted = ref [] in
  Socket.set_on_abort w.a (fun r -> aborted := r :: !aborted);
  connect w;
  checkb "typed failure" true (Socket.failure w.a = Some Socket.Handshake_failed);
  checkb "socket closed" true (Socket.state w.a = Socket.Closed);
  checkb "callback fired exactly once" true (!aborted = [ Socket.Handshake_failed ])

let test_abort_retry_exhausted () =
  (* Establish, then blackhole the wire (corrupt every later datagram's IP
     header): data retransmissions must exhaust and surface as a typed
     Retry_exhausted abort. *)
  let blackhole = ref false in
  let mangle _ s =
    if !blackhole && String.length s > 0 then begin
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      Bytes.to_string b
    end
    else s
  in
  let w = make_world ~mangle () in
  let aborted = ref [] in
  Socket.set_on_abort w.a (fun r -> aborted := r :: !aborted);
  connect w;
  checkb "established first" true (Socket.state w.a = Socket.Established);
  blackhole := true;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "doomed message";
    None
  in
  (match Socket.send_message w.a ~len:14 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Simclock.run_until_idle w.clock;
  checkb "typed failure" true (Socket.failure w.a = Some Socket.Retry_exhausted);
  checkb "socket closed" true (Socket.state w.a = Socket.Closed);
  checkb "callback fired exactly once" true (!aborted = [ Socket.Retry_exhausted ]);
  checkb "retransmissions were attempted" true
    ((Socket.stats w.a).Socket.retransmissions > 0)

let test_send_errors () =
  let w = make_world ~mss:256 () in
  (* Not established yet. *)
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "x";
    None
  in
  checkb "not established" true
    (Socket.send_message w.a ~len:1 ~fill = Error Socket.Not_established);
  connect w;
  checkb "too big" true
    (Socket.send_message w.a ~len:1000 ~fill = Error Socket.Message_too_big)

(* Slow start: [len]-byte messages, each acknowledged before the next,
   grow cwnd by up to one MSS each until it reaches [cwnd] — so a test
   about the ring or the peer window has congestion control out of its
   way. *)
let open_cwnd w ~len ~cwnd =
  let fill m ~dst ~off:_ ~len =
    Mem.poke_string m ~pos:dst (String.make len 'o');
    None
  in
  while Socket.congestion_window w.a < cwnd do
    (match Socket.send_message w.a ~len ~fill with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "warmup send refused");
    Simclock.run_until_idle w.clock
  done

let test_backpressure () =
  (* This test targets the ring and the peer window: cwnd is opened past
     both first. *)
  let w = make_world () in
  connect w;
  open_cwnd w ~len:1000 ~cwnd:(16 * 1024);
  (* Fill the window/ring without ever advancing the clock: acks cannot
     arrive, so sends must eventually refuse. *)
  let sent = ref 0 in
  let blocked = ref false in
  let payload = String.make 1000 'z' in
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst payload;
    None
  in
  for _ = 1 to 40 do
    if not !blocked then
      match Socket.send_message w.a ~len:1000 ~fill with
      | Ok () -> incr sent
      | Error (Socket.Buffer_full | Socket.Window_full) -> blocked := true
      | Error _ -> Alcotest.fail "unexpected error"
  done;
  checkb "eventually blocked" true !blocked;
  checkb "but sent several first" true (!sent >= 8);
  checkb "in flight tracked" true (Socket.bytes_in_flight w.a = !sent * 1000);
  (* Draining the network frees the window again. *)
  Simclock.run_until_idle w.clock;
  check "all acked" 0 (Socket.bytes_in_flight w.a)

let test_close_sequence () =
  let w = make_world () in
  connect w;
  let got = Buffer.create 8 in
  collect_into w got;
  transfer w [ "bye" ];
  Socket.close w.a;
  Simclock.run_until_idle w.clock;
  checkb "a half closed" true
    (match Socket.state w.a with Socket.Fin_wait_2 | Socket.Time_wait | Socket.Closed -> true | _ -> false);
  checkb "b saw fin" true (Socket.state w.b = Socket.Close_wait);
  Socket.close w.b;
  Simclock.run_until_idle w.clock;
  checkb "b closed" true
    (match Socket.state w.b with Socket.Closed | Socket.Last_ack -> true | _ -> false)

let test_fast_retransmit () =
  (* Drop exactly one data segment; the following segments' dup-acks must
     trigger recovery well before the RTO. *)
  let dropped = ref false in
  let mangle n s =
    (* Corrupt (rather than drop) the 6th datagram's IP header so the
       kernel discards it deterministically. *)
    if n = 6 && not !dropped then begin
      dropped := true;
      let b = Bytes.of_string s in
      Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0xff));
      Bytes.to_string b
    end
    else s
  in
  let w = make_world ~mangle () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 12 (fun i -> Printf.sprintf "%03d%s" i (String.make 200 'f')) in
  (* Keep many segments in flight so the loss produces duplicate acks. *)
  transfer ~burst_us:5.0 w msgs;
  Alcotest.(check string) "stream intact" (String.concat "" msgs) (Buffer.contents got);
  checkb "ip error counted" true ((Socket.stats w.b).Socket.ip_errors >= 1);
  checkb "fast retransmit fired" true ((Socket.stats w.a).Socket.fast_retransmits >= 1)

let test_corrupted_seq_not_held () =
  (* The IP checksum does not cover the TCP sequence number, so a data
     segment can reach the receiver claiming to start where no real
     segment does: just past its true start (held until [rcv_nxt] passes
     it) or far beyond the window (never drained).  Neither may outlive
     the transfer: the next in-order message must carry no SACK block,
     and the sender must see no (false) spurious retransmission or
     invalid block. *)
  List.iter
    (fun delta ->
      let mangle n s =
        if n <> 6 then s
        else begin
          (* the TCP sequence number follows the 20-byte IPv4 header *)
          let b = Bytes.of_string s in
          Bytes.set_int32_be b 24
            (Int32.add (Bytes.get_int32_be b 24) (Int32.of_int delta));
          Bytes.to_string b
        end
      in
      let w = make_world ~mangle () in
      connect w;
      let got = Buffer.create 64 in
      collect_into w got;
      let msgs =
        List.init 12 (fun i -> Printf.sprintf "%03d%s" i (String.make 200 's'))
      in
      transfer ~burst_us:5.0 w msgs;
      let blocks = (Socket.stats w.b).Socket.sack_blocks_tx in
      transfer w [ "one more" ];
      let name what = Printf.sprintf "seq + %d: %s" delta what in
      Alcotest.(check string) (name "stream intact")
        (String.concat "" msgs ^ "one more") (Buffer.contents got);
      check (name "no SACK block on the next ack") blocks
        (Socket.stats w.b).Socket.sack_blocks_tx;
      check (name "no spurious retransmission") 0
        (Socket.stats w.a).Socket.spurious_retransmits;
      check (name "no invalid block") 0 (Socket.stats w.a).Socket.sack_invalid)
    [ 4; 1 lsl 28 ]

let test_congestion_window_dynamics () =
  let w = make_world () in
  connect w;
  let initial = Socket.congestion_window w.a in
  check "initial cwnd is two segments" (2 * 1024) initial;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs = List.init 30 (fun _ -> String.make 1000 'c') in
  transfer ~burst_us:50.0 w msgs;
  let grown = Socket.congestion_window w.a in
  checkb "cwnd grows with successful acks" true (grown > initial);
  (* A retransmission timeout collapses the window back to one segment. *)
  let w2 = make_world ~loss_rate:0.3 ~seed:41 () in
  connect w2;
  let got2 = Buffer.create 64 in
  collect_into w2 got2;
  let msgs2 = List.init 30 (fun _ -> String.make 1000 'd') in
  transfer ~burst_us:50.0 w2 msgs2;
  Alcotest.(check string) "lossy stream still intact" (String.concat "" msgs2)
    (Buffer.contents got2);
  checkb "window shrank at some point" true
    (Socket.congestion_window w2.a < grown
    || (Socket.stats w2.a).Socket.retransmissions > 0)

let test_window_never_exceeded () =
  (* The sender must never have more unacknowledged payload in flight than
     the peer's advertised window, sampled at every send attempt.  cwnd
     is opened past that window first, so the window is what binds. *)
  let w = make_world () in
  connect w;
  open_cwnd w ~len:900 ~cwnd:(16 * 1024);
  let got = Buffer.create 64 in
  collect_into w got;
  let violations = ref 0 in
  let payload = String.make 900 'w' in
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst payload;
    None
  in
  for _ = 1 to 400 do
    (match Socket.send_message w.a ~len:900 ~fill with
    | Ok () ->
        if Socket.bytes_in_flight w.a > 16 * 1024 then incr violations
    | Error _ -> ());
    Simclock.advance w.clock 30.0
  done;
  Simclock.run_until_idle w.clock;
  check "no window violations" 0 !violations;
  check "nothing left in flight" 0 (Socket.bytes_in_flight w.a)

(* ------------------------------------------------------------------ *)
(* Zero-window persistence *)

let check_s = Alcotest.(check string)

let send_error_to_string = function
  | Socket.Not_established -> "not established"
  | Socket.Message_too_big -> "message too big"
  | Socket.Buffer_full -> "buffer full"
  | Socket.Window_full -> "window full"

(* Drive the peer's advertised window to zero as seen by [w.a]: shrink
   what [w.b] advertises, then bounce one message off it so the ack
   carries the new window back. *)
let close_peer_window w =
  Socket.set_advertised_window w.b 0;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "warmup!!";
    None
  in
  (match Socket.send_message w.a ~len:8 ~fill with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warmup send refused: %s" (send_error_to_string e));
  Simclock.run_until_idle w.clock;
  check "peer window seen as zero" 0 (Socket.peer_window w.a)

let test_persist_probes_back_off () =
  (* Against a zero window the sender probes, and the probe interval
     doubles up to the ceiling: over the first virtual second that is a
     handful of probes, not the hundreds a fixed 5 ms interval would
     produce. *)
  let w = make_world () in
  connect w;
  close_peer_window w;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst (String.make 100 'p');
    None
  in
  (match Socket.send_message w.a ~len:100 ~fill with
  | Ok () -> Alcotest.fail "send against a zero window must be refused"
  | Error Socket.Window_full -> ()
  | Error e -> Alcotest.failf "expected Window_full, got %s" (send_error_to_string e));
  for _ = 1 to 100 do
    Simclock.advance w.clock 10_000.0
  done;
  let probes = (Socket.stats w.a).Socket.persist_probes in
  checkb "probing happened" true (probes >= 5);
  checkb "backoff kept the probe count small" true (probes <= 12);
  checkb "still alive under the stall deadline" true (Socket.failure w.a = None)

let test_persist_resumes_once_on_reopen () =
  (* When the window reopens, the next probe's ack carries the news; the
     sender cancels the persist timer and the retried message arrives
     exactly once, unpolluted by the probes' garbage bytes. *)
  let w = make_world () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  close_peer_window w;
  Buffer.clear got;
  let payload = String.init 100 (fun i -> Char.chr (65 + (i mod 26))) in
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst payload;
    None
  in
  (match Socket.send_message w.a ~len:100 ~fill with
  | Error Socket.Window_full -> ()
  | _ -> Alcotest.fail "zero window must refuse the send");
  for _ = 1 to 20 do
    Simclock.advance w.clock 10_000.0
  done;
  let probes_before = (Socket.stats w.a).Socket.persist_probes in
  checkb "probed while closed" true (probes_before > 0);
  Socket.set_advertised_window w.b 8192;
  Simclock.run_until_idle w.clock;
  checkb "window reopening discovered" true (Socket.peer_window w.a > 0);
  (match Socket.send_message w.a ~len:100 ~fill with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "send after reopen refused: %s" (send_error_to_string e));
  Simclock.run_until_idle w.clock;
  check_s "delivered exactly once, byte-exact" payload (Buffer.contents got);
  checkb "no abort" true (Socket.failure w.a = None)

let test_persist_stall_deadline_aborts () =
  (* A window that never reopens is a dead peer: past the stall deadline
     the connection aborts with the typed [Peer_stalled] reason. *)
  let w = make_world () in
  connect w;
  close_peer_window w;
  let aborted = ref [] in
  Socket.set_on_abort w.a (fun r -> aborted := r :: !aborted);
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "stalled!";
    None
  in
  (match Socket.send_message w.a ~len:8 ~fill with
  | Error Socket.Window_full -> ()
  | _ -> Alcotest.fail "zero window must refuse the send");
  (* Default stall deadline is 3 s of virtual time; run well past it. *)
  for _ = 1 to 80 do
    Simclock.advance w.clock 100_000.0
  done;
  checkb "aborted exactly once with Peer_stalled" true
    (!aborted = [ Socket.Peer_stalled ]);
  checkb "failure recorded" true (Socket.failure w.a = Some Socket.Peer_stalled);
  checkb "probing stopped after the abort" true
    ((Socket.stats w.a).Socket.persist_probes < 20)

let test_window_shrink_below_in_flight () =
  (* Regression: a peer that shrinks its advertised window below what is
     already in flight must never drive the usable window negative (which
     used to offer negative-length segments to the wire).  cwnd is
     opened first, so all eight segments go out at once. *)
  let w = make_world ~mss:512 () in
  connect w;
  open_cwnd w ~len:512 ~cwnd:(8 * 512);
  let got = Buffer.create 4096 in
  collect_into w got;
  let chunks =
    List.init 8 (fun k ->
        String.init 512 (fun i -> Char.chr (33 + (((k * 512) + i) mod 90))))
  in
  List.iter
    (fun chunk ->
      let fill m ~dst ~off:_ ~len:_ =
        Mem.poke_string m ~pos:dst chunk;
        None
      in
      match Socket.send_message w.a ~len:512 ~fill with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send refused: %s" (send_error_to_string e))
    chunks;
  checkb "several segments in flight" true (Socket.bytes_in_flight w.a > 512);
  (* Shrink below what is already in flight; every subsequent ack
     advertises the small window. *)
  Socket.set_advertised_window w.b 512;
  let negative = ref 0 in
  for _ = 1 to 3000 do
    if Socket.send_window_space w.a < 0 then incr negative;
    Simclock.advance w.clock 200.0
  done;
  Simclock.run_until_idle w.clock;
  check "usable window never negative" 0 !negative;
  check_s "stream survives the shrink byte-exact" (String.concat "" chunks)
    (Buffer.contents got);
  checkb "no abort" true (Socket.failure w.a = None)

(* ------------------------------------------------------------------ *)
(* Streaming: MSS segmentation, pipelined window, reassembly *)

module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace

let stream_payload n seed =
  String.init n (fun i -> Char.chr (((i * 131) + (seed * 29)) land 0xff))

let stream_tsdu w payload =
  let fill m ~dst ~off ~len =
    Mem.poke_string m ~pos:dst (String.sub payload off len);
    None
  in
  Socket.send_stream w.a ~seg_unit:1 ~len:(String.length payload) ~fill

let pump_until ?(step = 100.0) ?(guard = 100_000) w pred =
  let g = ref guard in
  while (not (pred ())) && !g > 0 do
    decr g;
    Simclock.advance w.clock step
  done

(* Queue every TSDU through [send_stream], spinning the clock through
   sender-side backpressure; gives up if the connection dies. *)
let stream_all ?(step = 50.0) ?(guard = 200_000) w tsdus =
  let pending = Queue.of_seq (List.to_seq tsdus) in
  let g = ref guard and alive = ref true in
  while !alive && (not (Queue.is_empty pending)) && !g > 0 do
    decr g;
    match stream_tsdu w (Queue.peek pending) with
    | Ok () -> ignore (Queue.pop pending)
    | Error Socket.Buffer_full | Error Socket.Window_full ->
        Simclock.advance w.clock step
    | Error _ -> alive := false
  done;
  Simclock.run_until_idle w.clock

let test_stream_pipelined_tsdu () =
  let w = make_world ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create 16_384 in
  collect_into w got;
  let payload = stream_payload 12_000 1 in
  (match stream_tsdu w payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send_stream refused: %s" (send_error_to_string e));
  pump_until w (fun () -> Buffer.length got >= 12_000);
  Simclock.run_until_idle w.clock;
  check_s "TSDU delivered byte-exact" payload (Buffer.contents got);
  let st = Socket.stats w.a in
  checkb "segmented into many TPDUs" true (st.Socket.segments_sent >= 12);
  checkb "window pipelined: more than one MSS unacknowledged at once" true
    (st.Socket.peak_in_flight > 1024);
  check "no TSDU left queued" 0 (Socket.pending_streams w.a);
  check "one reassembled delivery" 12_000
    (Socket.stats w.b).Socket.bytes_delivered

let test_stream_backpressure_and_ordering () =
  let w = make_world ~rx_area:8192 () in
  connect w;
  let got = Buffer.create 65_536 in
  collect_into w got;
  let tsdus =
    List.init 20 (fun k -> stream_payload (1500 + (517 * k mod 4000)) k)
  in
  let pending = Queue.of_seq (List.to_seq tsdus) in
  let saw_buffer_full = ref false in
  let guard = ref 200_000 in
  while (not (Queue.is_empty pending)) && !guard > 0 do
    decr guard;
    (match stream_tsdu w (Queue.peek pending) with
    | Ok () ->
        ignore (Queue.pop pending);
        if Socket.pending_streams w.a > 0 then begin
          (* single-message sends are locked out while streams are
             pending, so the two framings can never interleave *)
          let fill m ~dst ~off:_ ~len:_ =
            Mem.poke_string m ~pos:dst "XXXXXXXX";
            None
          in
          match Socket.send_message w.a ~len:8 ~fill with
          | Ok () -> Alcotest.fail "send_message accepted mid-stream"
          | Error Socket.Buffer_full -> ()
          | Error e ->
              Alcotest.failf "expected Buffer_full, got %s"
                (send_error_to_string e)
        end
    | Error Socket.Buffer_full ->
        saw_buffer_full := true;
        Simclock.advance w.clock 50.0
    | Error e ->
        Alcotest.failf "send_stream refused: %s" (send_error_to_string e));
    ()
  done;
  Simclock.run_until_idle w.clock;
  check_s "TSDUs delivered in order, byte-exact" (String.concat "" tsdus)
    (Buffer.contents got);
  checkb "sender backpressure engaged (pending-stream cap)" true
    !saw_buffer_full

let test_stream_ring_wrap () =
  (* A transfer much larger than the retransmission ring must cycle it,
     with segments straddling the wrap point ([mss] deliberately does not
     divide the ring size, so reservations skip a wasted tail). *)
  let w = make_world ~mss:1000 ~send_buffer:8192 ~rx_area:4096 () in
  connect w;
  let got = Buffer.create 65_536 in
  collect_into w got;
  let tsdus = List.init 16 (fun k -> stream_payload 4000 (100 + k)) in
  stream_all w tsdus;
  check_s "wrapped transfer byte-exact" (String.concat "" tsdus)
    (Buffer.contents got);
  checkb "send ring wrapped" true (Socket.ring_wraps w.a > 0);
  checkb "no abort" true (Socket.failure w.a = None)

let test_stream_impaired_delivery () =
  (* Seeded impairment grid: reordering (jitter), duplication and burst
     loss.  The invariant is the soak's: byte-exact delivery or a typed
     abort — never silent corruption. *)
  List.iter
    (fun (loss_rate, jitter_us, dup_rate, seed) ->
      let w =
        make_world ~loss_rate ~jitter_us ~dup_rate ~seed ~rx_area:8192 ()
      in
      connect w;
      if Socket.state w.a = Socket.Established then begin
        let got = Buffer.create 65_536 in
        collect_into w got;
        let tsdus = List.init 6 (fun k -> stream_payload 6000 (seed + k)) in
        stream_all w tsdus;
        match (Socket.failure w.a, Socket.failure w.b) with
        | None, None ->
            check_s
              (Printf.sprintf "seed %d byte-exact" seed)
              (String.concat "" tsdus) (Buffer.contents got)
        | Some _, _ | _, Some _ -> () (* typed abort is a legal outcome *)
      end)
    [ (0.12, 0.0, 0.0, 7);
      (0.0, 2500.0, 0.0, 23);
      (0.0, 500.0, 0.35, 51);
      (0.25, 1000.0, 0.1, 99) ]

let test_stream_reorder_uses_stash () =
  (* Heavy jitter reorders segments; the out-of-order stash must absorb
     them and reassembly must still be exact. *)
  let w = make_world ~jitter_us:2000.0 ~seed:77 ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create 16_384 in
  collect_into w got;
  let payload = stream_payload 16_000 4 in
  stream_all w [ payload ];
  check_s "reordered stream byte-exact" payload (Buffer.contents got);
  checkb "receiver saw out-of-order segments" true
    ((Socket.stats w.b).Socket.out_of_order > 0)

let test_stream_fast_recovery () =
  (* Drop exactly one mid-flight data segment: the duplicate acks behind
     it must trigger a fast retransmit and the window must survive
     recovery without an RTO storm. *)
  let data_seen = ref 0 in
  let mangle _ s =
    if String.length s > 1000 then begin
      incr data_seen;
      if !data_seen = 8 then begin
        let b = Bytes.of_string s in
        Bytes.set b 0 '\xff';
        (* wreck the IP version: the kernel drops it *)
        Bytes.to_string b
      end
      else s
    end
    else s
  in
  let w = make_world ~mangle ~rx_area:32_768 () in
  connect w;
  let got = Buffer.create 32_768 in
  collect_into w got;
  let payload = stream_payload 30_000 5 in
  stream_all w [ payload ];
  check_s "recovered stream byte-exact" payload (Buffer.contents got);
  let st = Socket.stats w.a in
  checkb "the drop actually happened" true (!data_seen >= 8);
  checkb "recovered by fast retransmit" true (st.Socket.fast_retransmits >= 1);
  checkb "no retransmission storm" true (st.Socket.retransmissions <= 3);
  checkb "window stayed open after recovery (cwnd >= 2 MSS)" true
    (Socket.congestion_window w.a >= 2 * 1024)

let test_stream_window_shrink_mid_flight () =
  (* Satellite regression: the peer shrinks its window below the bytes
     already in flight in the middle of a streamed transfer. *)
  let w = make_world ~mss:512 ~rx_area:20_480 () in
  connect w;
  let got = Buffer.create 20_480 in
  collect_into w got;
  let payload = stream_payload 20_000 9 in
  (match stream_tsdu w payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send_stream refused: %s" (send_error_to_string e));
  pump_until ~step:50.0 ~guard:400 w (fun () -> Socket.bytes_in_flight w.a > 512);
  checkb "several segments in flight before the shrink" true
    (Socket.bytes_in_flight w.a > 512);
  Socket.set_advertised_window w.b 256;
  let negative = ref 0 in
  for _ = 1 to 2000 do
    if Socket.send_window_space w.a < 0 then incr negative;
    Simclock.advance w.clock 100.0
  done;
  Socket.set_advertised_window w.b Socket.default_config.Socket.recv_window;
  pump_until ~guard:50_000 w (fun () -> Buffer.length got >= 20_000);
  Simclock.run_until_idle w.clock;
  check "usable window never negative" 0 !negative;
  check_s "stream survives the shrink byte-exact" payload (Buffer.contents got);
  checkb "no abort" true (Socket.failure w.a = None)

let test_stream_metrics_conservation () =
  (* The registry's TCP gauges and the segment-retransmit histogram must
     describe the streamed transfer. *)
  let before = M.snapshot M.default in
  let w = make_world ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create 16_384 in
  collect_into w got;
  let payload = stream_payload 16_000 3 in
  stream_all w [ payload ];
  check_s "clean transfer byte-exact" payload (Buffer.contents got);
  let after = M.snapshot M.default in
  (match M.find after "tcp.cwnd" with
  | Some (M.Gauge v) ->
      check "tcp.cwnd gauge tracks the congestion window"
        (Socket.congestion_window w.a) v
  | _ -> Alcotest.fail "tcp.cwnd gauge missing");
  (match M.find after "tcp.segments_in_flight" with
  | Some (M.Gauge v) -> check "nothing in flight after the transfer" 0 v
  | _ -> Alcotest.fail "tcp.segments_in_flight gauge missing");
  (match M.find after "tcp.ssthresh" with
  | Some (M.Gauge _) -> ()
  | _ -> Alcotest.fail "tcp.ssthresh gauge missing");
  match (M.find after "tcp.segment_retransmits", M.find before "tcp.segment_retransmits") with
  | Some (M.Histogram h1), Some (M.Histogram h0) ->
      (* One observation per data segment retired from the queue; a clean
         run puts every one in the zero bucket. *)
      let data_segments = (16_000 + 1023) / 1024 in
      check "one histogram observation per acked data segment" data_segments
        (h1.M.count - h0.M.count);
      check "clean run: all segments in the zero-retransmit bucket"
        (h1.M.count - h0.M.count)
        (h1.M.buckets.(0) - h0.M.buckets.(0))
  | _ -> Alcotest.fail "tcp.segment_retransmits histogram missing"

let test_stream_tracing_changes_nothing () =
  (* Satellite: enabling the per-packet tracer must not change a single
     wire byte of a streamed transfer, while recording the per-segment
     spans that witness pipelining. *)
  let run_capture ~traced =
    let wire = Buffer.create 100_000 in
    let mangle _ s =
      Buffer.add_string wire s;
      Buffer.add_char wire '|';
      s
    in
    if traced then Trace.enable ~capacity:65_536 ();
    let w = make_world ~seed:13 ~mangle ~rx_area:16_384 () in
    connect w;
    let got = Buffer.create 16_384 in
    collect_into w got;
    let payload = stream_payload 16_000 6 in
    stream_all w [ payload ];
    let spans = if traced then Trace.spans () else [] in
    if traced then Trace.disable ();
    check_s "transfer byte-exact" payload (Buffer.contents got);
    (Buffer.contents wire, spans)
  in
  let wire_plain, _ = run_capture ~traced:false in
  let wire_traced, spans = run_capture ~traced:true in
  checkb "traced and untraced runs are wire-identical" true
    (String.equal wire_plain wire_traced);
  let count stage =
    List.length (List.filter (fun s -> s.Trace.stage = stage) spans)
  in
  checkb "tcp.segment spans recorded" true (count Trace.Tcp_segment >= 12);
  checkb "tcp.ack instants recorded" true (count Trace.Tcp_ack >= 4);
  let seg_spans =
    List.filter
      (fun s -> s.Trace.stage = Trace.Tcp_segment && not s.Trace.is_instant)
      spans
  in
  (* Overlapping segment spans are the signature of a pipelined window:
     some segment must start before an earlier one is acknowledged. *)
  let overlapping =
    List.exists
      (fun s1 ->
        List.exists
          (fun s2 ->
            s1 != s2
            && s1.Trace.ts <= s2.Trace.ts
            && s2.Trace.ts < s1.Trace.ts +. s1.Trace.dur)
          seg_spans)
      seg_spans
  in
  checkb "segment lifetimes overlap (pipelined window)" true overlapping

(* One event path through the stack: under loss, every flight event the
   sockets note reaches the recorder and the tracer once each, in the
   same order, and the sender's retransmit notes match its
   retransmission count sequence number for sequence number. *)
let test_flight_events_reach_both_sinks () =
  let module Recorder = Ilp_obs.Recorder in
  Recorder.clear ();
  Trace.enable ~capacity:65_536 ();
  let w = make_world ~loss_rate:0.2 ~seed:17 () in
  connect w;
  let got = Buffer.create 64 in
  collect_into w got;
  let msgs =
    List.init 40 (fun i ->
        String.make (50 + (i * 13 mod 500)) (Char.chr (65 + (i mod 26))))
  in
  transfer w msgs;
  let spans = Trace.spans () in
  let trace_dropped = Trace.dropped () in
  Trace.disable ();
  let entries = Recorder.entries () in
  Recorder.clear ();
  check_s "stream intact" (String.concat "" msgs) (Buffer.contents got);
  check "no trace event evicted" 0 trace_dropped;
  let per_packet = function
    | Trace.Send_link | Trace.Tcp_ack | Trace.Tcp_sack -> true
    | _ -> false
  in
  let flight =
    List.filter (fun s -> s.Trace.is_instant && not (per_packet s.Trace.stage)) spans
  in
  checkb "each note reached the tracer once, in order" true
    (List.map (fun e -> (e.Recorder.stage, e.Recorder.arg, e.Recorder.ts)) entries
    = List.map (fun s -> (s.Trace.stage, s.Trace.arg, s.Trace.ts)) flight);
  let noted =
    List.filter_map
      (fun e ->
        if e.Recorder.stage = Trace.Retransmit && e.Recorder.conn = 100 then
          Some e.Recorder.arg
        else None)
      entries
  in
  let traced =
    List.filter_map
      (fun s -> if s.Trace.stage = Trace.Retransmit then Some s.Trace.arg else None)
      flight
  in
  let n = (Socket.stats w.a).Socket.retransmissions in
  checkb "retransmissions happened" true (n > 0);
  check "recorder retransmits = stats" n (List.length noted);
  check "trace retransmits = stats" n (List.length traced);
  Alcotest.(check (list int)) "same sequence numbers" noted traced

let prop_lossy_stream_integrity =
  QCheck.Test.make ~count:25 ~name:"TCP delivers the exact stream under random loss"
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size Gen.(int_range 1 15) (int_range 1 300)))
    (fun (seed, sizes) ->
      let loss_rate = float_of_int (seed mod 4) *. 0.08 in
      let w = make_world ~loss_rate ~seed ~jitter_us:100.0 () in
      connect w;
      if Socket.state w.a <> Socket.Established then true (* pathological loss *)
      else begin
        let got = Buffer.create 256 in
        collect_into w got;
        let msgs =
          List.mapi (fun i n -> String.make n (Char.chr (33 + (i mod 90)))) sizes
        in
        transfer w msgs;
        String.equal (String.concat "" msgs) (Buffer.contents got)
      end)

(* One send path: [send_message] is the pump's one-segment case, so it
   and a [send_stream] of the same TSDU must put identical datagrams on
   the wire (both directions) and charge identical simulated cycles,
   whether the fill integrates the checksum or leaves it to TCP. *)
let prop_send_message_is_one_segment_stream =
  QCheck.Test.make ~count:40
    ~name:"send_message = one-segment send_stream (wire and cycles)"
    QCheck.(pair (int_range 1 1024) bool)
    (fun (len, integrated) ->
      let payload = String.init len (fun i -> Char.chr ((i * 31 + len) land 0xff)) in
      let fill m ~dst ~off ~len =
        Mem.poke_string m ~pos:dst (String.sub payload off len);
        if integrated then
          Some
            (Ilp_checksum.Internet.checksum_mem m ~pos:dst ~len
               ~acc:Ilp_checksum.Internet.empty)
        else None
      in
      let run send =
        let wire = ref [] in
        let w = make_world ~mangle:(fun _ d -> wire := d :: !wire; d) () in
        connect w;
        let got = Buffer.create len in
        collect_into w got;
        (match send w with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "refused: %s" (send_error_to_string e));
        Simclock.run_until_idle w.clock;
        (List.rev !wire, Machine.cycles w.sim.Sim.machine, Buffer.contents got)
      in
      let wire_m, cycles_m, got_m = run (fun w -> Socket.send_message w.a ~len ~fill) in
      let wire_s, cycles_s, got_s =
        run (fun w -> Socket.send_stream w.a ~seg_unit:1 ~len ~fill)
      in
      String.equal got_m payload && String.equal got_s payload
      && List.equal String.equal wire_m wire_s
      && Float.equal cycles_m cycles_s)

let test_no_handler_drops_data () =
  (* Until a receive handler is set there is nowhere to put a TSDU: a
     data segment with a valid checksum is dropped as [Bad_length],
     never delivered and never acknowledged. *)
  let w = make_world ~rx_handler:false () in
  connect w;
  let delivered = ref 0 in
  Socket.set_on_message w.b (fun ~len:_ -> incr delivered);
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "hello";
    None
  in
  (match Socket.send_message w.a ~len:5 ~fill with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send refused: %s" (send_error_to_string e));
  (* Less than the first RTO: exactly the original transmission arrives. *)
  Simclock.advance w.clock 1_000.0;
  let st = Socket.stats w.b in
  check "dropped as Bad_length" 1 (Socket.drop_count w.b Socket.Bad_length);
  check "checksum was valid" 0 st.Socket.checksum_failures;
  check "on_message never called" 0 !delivered;
  check "nothing delivered" 0 st.Socket.bytes_delivered;
  (* No ack moved the sender: the receiver's rcv_nxt stayed put. *)
  check "still unacknowledged" 5 (Socket.bytes_in_flight w.a)

(* ------------------------------------------------------------------ *)
(* SACK: option codec, scoreboard recovery, misbehaving peers *)

(* Build a header carrying up to three well-formed SACK blocks from a
   bag of random edge offsets above the cumulative ack. *)
let sack_header_of (ack, edges) =
  let edges = List.sort_uniq compare (List.map (fun e -> ack + 1 + e) edges) in
  let rec pair = function
    | l :: r :: rest -> (l, r) :: pair rest
    | _ -> []
  in
  let blocks =
    List.filteri (fun i _ -> i < Tcp_header.max_sack_blocks) (pair edges)
  in
  Tcp_header.make ~seq:(ack / 2) ~ack ~flags:Tcp_header.ack_flag ~window:8192
    ~checksum:0xCAFE ~sack:blocks ~src_port:100 ~dst_port:200 ()

let prop_sack_header_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"SACK option survives both codecs and the bare read ignores it"
    QCheck.(
      pair (int_range 1000 1_000_000)
        (list_of_size Gen.(int_range 0 8) (int_range 1 100_000)))
    (fun input ->
      let h = sack_header_of input in
      let s = Tcp_header.to_string h in
      String.length s = Tcp_header.wire_size h
      && (match Tcp_header.of_string s ~pos:0 with
         | Ok h' -> h' = h
         | Error _ -> false)
      &&
      let sim = Sim.create (Config.custom ()) in
      Mem.poke_string sim.Sim.mem ~pos:512 s;
      let got = blank_header () in
      Tcp_header.read_mem sim.Sim.mem ~pos:512 ~total:(Tcp_header.wire_size h) got
      = Tcp_header.wire_size h
      && got = h
      &&
      (* the bare 20-byte read sees the base header and no options *)
      (ignore (Tcp_header.read_mem sim.Sim.mem ~pos:512 ~total:Tcp_header.size got);
       got = { h with Tcp_header.sack = [] }))

let test_sack_option_malformed_rejected () =
  let h =
    Tcp_header.make ~seq:1000 ~ack:500 ~flags:Tcp_header.ack_flag ~window:4096
      ~sack:[ (600, 700); (900, 1000) ] ~src_port:1 ~dst_port:2 ()
  in
  let s = Tcp_header.to_string h in
  check "two blocks occupy 40 wire bytes" 40 (String.length s);
  let patched off v =
    let b = Bytes.of_string s in
    Bytes.set b off (Char.chr v);
    Bytes.to_string b
  in
  let rejects name wire =
    checkb name true (Result.is_error (Tcp_header.of_string wire ~pos:0))
  in
  rejects "truncated option area" (String.sub s 0 (String.length s - 4));
  rejects "padding is not NOP NOP" (patched Tcp_header.size 0x00);
  rejects "wrong option kind" (patched (Tcp_header.size + 2) 0x06);
  rejects "length byte disagrees with the data offset"
    (patched (Tcp_header.size + 3) (2 + 8));
  (* data offset claiming a 4-byte option area: too short for any SACK *)
  rejects "undersized option area" (patched 12 (0x60 lor (Char.code s.[12] land 0x0f)));
  (* data offset below the minimum header *)
  rejects "data offset below 5 words" (patched 12 (0x40 lor (Char.code s.[12] land 0x0f)));
  (* the untouched wire still parses, so the rejections above are real *)
  checkb "canonical wire accepted" true
    (match Tcp_header.of_string s ~pos:0 with Ok h' -> h' = h | Error _ -> false)

let test_ooo_autosize () =
  (* The stash holds a full window of MSS segments plus slack; tiny
     windows keep the floor of 8. *)
  let w = make_world () in
  check "auto: recv_window/mss + 4" ((16 * 1024 / 1024) + 4) (Socket.ooo_capacity w.a);
  let w3 = make_world ~mss:8192 () in
  check "floor of 8 segments" 8 (Socket.ooo_capacity w3.a)

let test_sack_multi_hole_recovery () =
  (* Wreck two separated data segments of one pipelined flight.  The
     duplicate acks recover the first hole by fast retransmit; the
     scoreboard must infer and retransmit the second hole in the same
     recovery round — no RTO may fire. *)
  let data_seen = ref 0 in
  let mangle _ s =
    if String.length s > 1000 then begin
      incr data_seen;
      if !data_seen = 5 || !data_seen = 7 then begin
        let b = Bytes.of_string s in
        Bytes.set b 0 '\xff';
        Bytes.to_string b
      end
      else s
    end
    else s
  in
  let w = make_world ~mangle ~rx_area:32_768 () in
  connect w;
  let got = Buffer.create 32_768 in
  collect_into w got;
  let payload = stream_payload 30_000 21 in
  stream_all w [ payload ];
  check_s "two-hole flight byte-exact" payload (Buffer.contents got);
  let sa = Socket.stats w.a and sb = Socket.stats w.b in
  checkb "both segments were wrecked" true (!data_seen >= 7);
  checkb "fast retransmit opened recovery" true (sa.Socket.fast_retransmits >= 1);
  checkb "scoreboard filled a further hole" true (sa.Socket.sack_retransmits >= 1);
  check "no RTO fallback" 0 sa.Socket.rto_fallbacks;
  checkb "receiver reported its stash" true (sb.Socket.sack_blocks_tx >= 1);
  checkb "sender accepted the blocks" true (sa.Socket.sack_blocks_rx >= 1);
  check "an honest stash never produces invalid blocks" 0 sa.Socket.sack_invalid;
  checkb "no abort" true (Socket.failure w.a = None)

let test_sack_impaired_grid_agreement () =
  (* Scoreboard-vs-stash agreement: across a seeded impairment grid,
     every SACK block the receiver's stash emits must be acceptable to
     the sender's scoreboard (sack_invalid = 0 — loss, reordering and
     duplication can delay or repeat honest feedback but never forge
     it), and delivery stays byte-exact. *)
  List.iter
    (fun (loss_rate, jitter_us, dup_rate, seed) ->
      let w = make_world ~loss_rate ~jitter_us ~dup_rate ~seed ~rx_area:8192 () in
      connect w;
      if Socket.state w.a = Socket.Established then begin
        let got = Buffer.create 32_768 in
        collect_into w got;
        let tsdus = List.init 4 (fun k -> stream_payload 6000 (seed + k)) in
        stream_all w tsdus;
        match (Socket.failure w.a, Socket.failure w.b) with
        | None, None ->
            check_s
              (Printf.sprintf "seed %d byte-exact" seed)
              (String.concat "" tsdus) (Buffer.contents got);
            check
              (Printf.sprintf "seed %d: no honest block rejected" seed)
              0 (Socket.stats w.a).Socket.sack_invalid
        | Some _, _ | _, Some _ -> () (* typed abort is a legal outcome *)
      end)
    [ (0.1, 0.0, 0.0, 3);
      (0.05, 1500.0, 0.0, 19);
      (0.15, 800.0, 0.1, 42);
      (0.08, 300.0, 0.25, 77) ]

let test_sack_reneging_rto_recovery () =
  (* Lose one segment so the scoreboard fills with SACK hints, then
     blackhole the wire across several RTO intervals: the timeout must
     treat the scoreboard as hints only (RFC 2018 §8 — clear it and
     resend from snd_una), and the stream must still complete byte-exact
     once the wire heals. *)
  let data_seen = ref 0 in
  let blackhole = ref false in
  let mangle _ s =
    let wreck () =
      let b = Bytes.of_string s in
      Bytes.set b 0 '\xff';
      Bytes.to_string b
    in
    if !blackhole then wreck ()
    else if String.length s > 1000 then begin
      incr data_seen;
      if !data_seen = 5 then wreck () else s
    end
    else s
  in
  let w = make_world ~mangle ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create 16_384 in
  collect_into w got;
  let payload = stream_payload 12_000 8 in
  (match stream_tsdu w payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send_stream refused: %s" (send_error_to_string e));
  (* Let the flight (minus the hole) out and the SACKs back... *)
  Simclock.advance w.clock 100.0;
  (* ...then take the wire down across the RTO and its first backoffs. *)
  blackhole := true;
  for _ = 1 to 8 do
    Simclock.advance w.clock 2_000.0
  done;
  blackhole := false;
  pump_until w (fun () -> Buffer.length got >= 12_000);
  Simclock.run_until_idle w.clock;
  check_s "recovered byte-exact after reneging-grade feedback loss" payload
    (Buffer.contents got);
  let sa = Socket.stats w.a in
  checkb "the scoreboard held hints before the blackout" true
    (sa.Socket.sack_blocks_rx >= 1);
  checkb "the RTO was the recovery of last resort" true
    (sa.Socket.rto_fallbacks >= 1);
  checkb "no abort" true (Socket.failure w.a = None)

(* Rebuild the pure acks of one direction with a forged header: the
   lying receiver's NIC.  [rewrite h] returns [None] to pass the
   datagram through untouched or [Some hs] to replace it (checksums are
   recomputed, so the forgeries survive the server's validation up to
   the SACK/ack checks under test). *)
let tamper_pure_acks ~port rewrite d =
  let wire = d.Datagram.payload in
  match Ilp_netsim.Ipv4.decapsulate wire with
  | Error _ -> [ d ]
  | Ok ip ->
      if d.Datagram.src_port <> port then [ d ]
      else (
        match Tcp_header.of_string wire ~pos:Ilp_netsim.Ipv4.header_len with
        | Error _ -> [ d ]
        | Ok h ->
            let pure =
              Tcp_header.has h Tcp_header.ack_flag
              && (not (Tcp_header.has h Tcp_header.syn))
              && (not (Tcp_header.has h Tcp_header.fin))
              && (not (Tcp_header.has h Tcp_header.rst))
              && String.length wire
                 = Ilp_netsim.Ipv4.header_len + Tcp_header.wire_size h
            in
            if not pure then [ d ]
            else
              match rewrite h with
              | None -> [ d ]
              | Some hs ->
                  List.map
                    (fun h' ->
                      let ck =
                        Tcp_header.checksum h'
                          ~payload_acc:Ilp_checksum.Internet.empty
                          ~payload_len:0
                      in
                      let seg' =
                        Tcp_header.to_string { h' with Tcp_header.checksum = ck }
                      in
                      let ip' =
                        Ilp_netsim.Ipv4.make ~ident:ip.Ilp_netsim.Ipv4.ident
                          ~src:ip.Ilp_netsim.Ipv4.src ~dst:ip.Ilp_netsim.Ipv4.dst
                          ~payload_len:(String.length seg') ()
                      in
                      Datagram.create ~src_port:d.Datagram.src_port
                        ~dst_port:d.Datagram.dst_port
                        ~payload:(Ilp_netsim.Ipv4.encapsulate ip' seg'))
                    hs)

let run_lied_to_transfer ~tamper ~bytes =
  let w = make_world ~tamper ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create bytes in
  collect_into w got;
  let payload = stream_payload bytes 33 in
  stream_all w [ payload ];
  (w, payload, Buffer.contents got)

let test_sack_forged_beyond_sndnxt_rejected () =
  (* Every ack claims a SACK block far beyond anything the sender ever
     transmitted.  Each forged block must be dropped and counted, and
     the transfer must still complete byte-exact on the cumulative
     acks. *)
  let tamper =
    tamper_pure_acks ~port:200 (fun h ->
        Some
          [ { h with
              Tcp_header.sack =
                [ (h.Tcp_header.ack + 1_000_000, h.Tcp_header.ack + 1_001_448) ]
            } ])
  in
  let w, payload, got = run_lied_to_transfer ~tamper ~bytes:12_000 in
  check_s "transfer survives the lying feedback" payload got;
  let sa = Socket.stats w.a in
  checkb "forgeries actually happened" true
    ((Link.stats w.link).Link.tampered > 0);
  checkb "every forged block was rejected and counted" true
    (sa.Socket.sack_invalid > 0);
  check "none entered the scoreboard" 0 sa.Socket.sack_blocks_rx;
  checkb "no abort (the lie is counted, not fatal)" true
    (Socket.failure w.a = None)

let test_sack_overlapping_blocks_rejected () =
  (* Blocks of one ack that overlap each other are structurally
     impossible from an honest stash; at least one of each pair must be
     rejected whatever the current snd_nxt. *)
  let tamper =
    tamper_pure_acks ~port:200 (fun h ->
        let a = h.Tcp_header.ack in
        Some [ { h with Tcp_header.sack = [ (a + 1, a + 9); (a + 5, a + 13) ] } ])
  in
  let w, payload, got = run_lied_to_transfer ~tamper ~bytes:12_000 in
  check_s "transfer survives overlapping-block acks" payload got;
  checkb "overlaps were rejected and counted" true
    ((Socket.stats w.a).Socket.sack_invalid > 0);
  checkb "no abort" true (Socket.failure w.a = None)

let test_optimistic_ack_aborts () =
  (* One ack acknowledging data never sent: the classic optimistic-ack
     attack on the congestion clock.  The sender must refuse to be
     driven by the forged clock and abort with the typed reason. *)
  let fired = ref false in
  let tamper =
    tamper_pure_acks ~port:200 (fun h ->
        if !fired then None
        else begin
          fired := true;
          Some [ { h with Tcp_header.ack = h.Tcp_header.ack + 100_000 } ]
        end)
  in
  let w = make_world ~tamper ~rx_area:16_384 () in
  connect w;
  let aborted = ref [] in
  Socket.set_on_abort w.a (fun r -> aborted := r :: !aborted);
  let got = Buffer.create 16_384 in
  collect_into w got;
  stream_all w [ stream_payload 12_000 14 ];
  checkb "the forged ack went out" true !fired;
  checkb "typed failure" true (Socket.failure w.a = Some Socket.Misbehaving_peer);
  checkb "socket closed" true (Socket.state w.a = Socket.Closed);
  checkb "callback fired exactly once" true
    (!aborted = [ Socket.Misbehaving_peer ])

let test_ack_division_no_cwnd_inflation () =
  (* A receiver splitting each segment's acknowledgement into four tiny
     acks (ack division) tries to inflate a packet-counted congestion
     window fourfold.  Byte-counted growth (RFC 3465) must award the
     divided run no more window than the honest one. *)
  let run ~divide =
    let tamper =
      tamper_pure_acks ~port:200 (fun h ->
          let a = h.Tcp_header.ack in
          if not divide then None
          else
            Some
              [ { h with Tcp_header.ack = a - 3 };
                { h with Tcp_header.ack = a - 2 };
                { h with Tcp_header.ack = a - 1 };
                h ])
    in
    let w = make_world ~tamper ~rx_area:16_384 () in
    connect w;
    let got = Buffer.create 16_384 in
    collect_into w got;
    let payload = stream_payload 16_000 27 in
    stream_all w [ payload ];
    check_s "transfer byte-exact" payload (Buffer.contents got);
    checkb "no abort" true (Socket.failure w.a = None);
    (Socket.congestion_window w.a, (Socket.stats w.a).Socket.segments_received)
  in
  let honest_cwnd, honest_acks = run ~divide:false in
  let divided_cwnd, divided_acks = run ~divide:true in
  checkb "the division actually multiplied the ack stream" true
    (divided_acks > honest_acks);
  checkb "ack division earned no extra congestion window" true
    (divided_cwnd <= honest_cwnd)

let test_dupack_forgery_bounded () =
  (* A receiver replicating every ack eightfold forges loss signals: the
     spurious fast retransmits it provokes must be detected via D-SACK,
     the recovery inflation must stay bounded by the real flight, and
     the forged run must never end with a bigger window than the honest
     one. *)
  let run ~forge =
    let tamper =
      tamper_pure_acks ~port:200 (fun h ->
          if forge then Some [ h; h; h; h; h; h; h; h ] else None)
    in
    let w = make_world ~tamper ~rx_area:16_384 () in
    connect w;
    let got = Buffer.create 16_384 in
    collect_into w got;
    let payload = stream_payload 16_000 18 in
    stream_all w [ payload ];
    check_s "transfer byte-exact" payload (Buffer.contents got);
    checkb "no abort" true (Socket.failure w.a = None);
    (w, Socket.congestion_window w.a)
  in
  let _, honest_cwnd = run ~forge:false in
  let w, forged_cwnd = run ~forge:true in
  let sa = Socket.stats w.a in
  checkb "forged duplicates provoked retransmissions" true
    (sa.Socket.retransmissions > 0);
  checkb "D-SACK exposed them as spurious" true
    (sa.Socket.spurious_retransmits > 0);
  checkb "dupack forgery never ends with a bigger window" true
    (forged_cwnd <= honest_cwnd)

let test_sack_off_is_newreno () =
  (* With [sack = false] the receiver attaches no blocks and the sender
     keeps no scoreboard, but a lossy transfer still completes — the
     NewReno baseline the benchmark gates against. *)
  let w = make_world ~sack:false ~loss_rate:0.1 ~seed:29 ~rx_area:8192 () in
  connect w;
  let got = Buffer.create 32_768 in
  collect_into w got;
  let tsdus = List.init 4 (fun k -> stream_payload 6000 (50 + k)) in
  stream_all w tsdus;
  check_s "NewReno transfer byte-exact" (String.concat "" tsdus)
    (Buffer.contents got);
  let sa = Socket.stats w.a and sb = Socket.stats w.b in
  check "receiver attached no blocks" 0 sb.Socket.sack_blocks_tx;
  check "sender accepted none" 0 sa.Socket.sack_blocks_rx;
  check "scoreboard idle" 0 sa.Socket.sack_retransmits

(* ------------------------------------------------------------------ *)
(* Node-crash fault model: RST semantics, keepalive, timer hygiene *)

let blackhole_mangle on _ s =
  (* Corrupt every datagram's IP header once [on] is set: the kernel
     drops each one, so the sender transmits into the void. *)
  if !on && String.length s > 0 then begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    Bytes.to_string b
  end
  else s

let test_rst_on_destroyed_connection () =
  let w = make_world () in
  connect w;
  let aborted = ref [] in
  Socket.set_on_abort w.a (fun r -> aborted := r :: !aborted);
  (* b's host crashes: no FIN, no callback — b answers later segments
     with RST, and a's abort is the typed Connection_reset, positive
     evidence the peer is up but forgot the connection. *)
  Socket.destroy w.b;
  checkb "destroyed" true (Socket.destroyed w.b);
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "into the void";
    None
  in
  (match Socket.send_message w.a ~len:13 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Simclock.run_until_idle w.clock;
  checkb "typed Connection_reset, not Retry_exhausted" true
    (Socket.failure w.a = Some Socket.Connection_reset);
  checkb "abort callback fired exactly once" true
    (!aborted = [ Socket.Connection_reset ]);
  checkb "dead side sent the reset" true ((Socket.stats w.b).Socket.rst_tx >= 1);
  checkb "reset received" true ((Socket.stats w.a).Socket.rst_rx >= 1)

let test_destroy_cancels_every_timer () =
  (* Crash mid-flight with the retransmission machinery armed: destroy
     must leave zero owned timers behind. *)
  let w = make_world () in
  connect w;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst (String.make 600 'q');
    None
  in
  (match Socket.send_message w.a ~len:600 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Simclock.advance w.clock 100.0;
  Socket.destroy w.a;
  Socket.destroy w.b;
  check "a timers cancelled" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a));
  check "b timers cancelled" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.b));
  Simclock.run_until_idle w.clock

let test_abort_cancels_every_timer () =
  let on = ref false in
  let w = make_world ~mangle:(blackhole_mangle on) () in
  connect w;
  on := true;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "doomed";
    None
  in
  (match Socket.send_message w.a ~len:6 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Simclock.run_until_idle w.clock;
  checkb "retry exhaustion surfaced" true
    (Socket.failure w.a = Some Socket.Retry_exhausted);
  check "aborted side left no timers" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a))

let test_keepalive_detects_restart () =
  let w = make_world () in
  connect w;
  let verdicts = ref [] in
  Socket.destroy w.b;
  Socket.start_keepalive w.a ~interval_us:10_000.0 ~probes:3
    ~on_result:(fun v -> verdicts := v :: !verdicts)
    ();
  Simclock.run_until_idle w.clock;
  checkb "probe answered with RST reports Peer_reset" true
    (List.mem Socket.Peer_reset !verdicts);
  checkb "half-open connection aborts Connection_reset" true
    (Socket.failure w.a = Some Socket.Connection_reset);
  checkb "probe counted" true ((Socket.stats w.a).Socket.keepalive_probes >= 1);
  check "monitor left no timers" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a))

let test_keepalive_peer_silent () =
  let on = ref false in
  let w = make_world ~mangle:(blackhole_mangle on) () in
  connect w;
  on := true;
  let verdicts = ref [] in
  Socket.start_keepalive w.a ~interval_us:10_000.0 ~probes:2
    ~on_result:(fun v -> verdicts := v :: !verdicts)
    ();
  Simclock.run_until_idle w.clock;
  checkb "probe budget exhausted reports Peer_silent" true
    (List.mem Socket.Peer_silent !verdicts);
  checkb "silence is Retry_exhausted, not Connection_reset" true
    (Socket.failure w.a = Some Socket.Retry_exhausted);
  check "monitor left no timers" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a))

let test_keepalive_peer_alive_keeps_running () =
  let w = make_world () in
  connect w;
  let verdicts = ref [] in
  Socket.start_keepalive w.a ~interval_us:10_000.0 ~probes:2
    ~on_result:(fun v -> verdicts := v :: !verdicts)
    ();
  for _ = 1 to 6 do
    Simclock.advance w.clock 10_000.0
  done;
  checkb "answered probes report Peer_alive" true
    (List.mem Socket.Peer_alive !verdicts);
  checkb "no terminal verdict on a live peer" true
    ((not (List.mem Socket.Peer_reset !verdicts))
    && not (List.mem Socket.Peer_silent !verdicts));
  checkb "connection unharmed" true (Socket.failure w.a = None);
  Socket.stop_keepalive w.a;
  Simclock.run_until_idle w.clock;
  check "monitor stopped cleanly" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a))

let test_fin_with_queued_stream_tsdus () =
  (* Half-close while send_stream still holds queued TSDUs: the FIN must
     ride behind every queued byte, and the receiver reassembles all of
     them before seeing it. *)
  let w = make_world ~rx_area:16_384 () in
  connect w;
  let got = Buffer.create 8192 in
  collect_into w got;
  let tsdus = List.init 4 (fun k -> stream_payload 2000 (90 + k)) in
  List.iter
    (fun p ->
      match stream_tsdu w p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send_stream refused: %s" (send_error_to_string e))
    tsdus;
  checkb "TSDUs still queued at close time" true (Socket.pending_streams w.a > 0);
  Socket.close w.a;
  Simclock.run_until_idle w.clock;
  check_s "every queued TSDU delivered before the FIN"
    (String.concat "" tsdus) (Buffer.contents got);
  check "no TSDU abandoned" 0 (Socket.pending_streams w.a);
  checkb "a half closed" true
    (match Socket.state w.a with
    | Socket.Fin_wait_2 | Socket.Time_wait | Socket.Closed -> true
    | _ -> false);
  checkb "b saw the fin" true (Socket.state w.b = Socket.Close_wait)

let test_fin_rst_crossing () =
  (* a's data+FIN and b's crash cross in flight: a must end with a typed
     reset, not a hang, and both sides leave a clean clock. *)
  let w = make_world () in
  connect w;
  let fill m ~dst ~off:_ ~len:_ =
    Mem.poke_string m ~pos:dst "last words";
    None
  in
  (match Socket.send_message w.a ~len:10 ~fill with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send refused");
  Socket.close w.a;
  Socket.destroy w.b;
  Simclock.run_until_idle w.clock;
  checkb "typed reset, no hang" true
    (Socket.failure w.a = Some Socket.Connection_reset);
  check "a timers clean" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a));
  check "b timers clean" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.b))

(* ------------------------------------------------------------------ *)
(* Connection teardown, read from each port's [State] flight notes *)

module Recorder = Ilp_obs.Recorder

(* The flight recorder's state encoding: [Trace.State]'s [arg]. *)
let state_names =
  [| "CLOSED"; "LISTEN"; "SYN_SENT"; "SYN_RCVD"; "ESTABLISHED"; "FIN_WAIT_1";
     "FIN_WAIT_2"; "CLOSE_WAIT"; "LAST_ACK"; "TIME_WAIT"; "CLOSING" |]

(* The states [port] entered, oldest first. *)
let noted_states port =
  List.filter_map
    (fun e ->
      if e.Recorder.stage = Trace.State then Some state_names.(e.Recorder.arg)
      else None)
    (Recorder.entries ~conn:port ())

let has_flag flag (d : Datagram.t) =
  match Tcp_header.of_string d.Datagram.payload ~pos:Ilp_netsim.Ipv4.header_len with
  | Ok h -> Tcp_header.has h flag
  | Error _ -> false

(* A link hook that loses the next datagram [port] sends once [armed]
   is set. *)
let lose_next_from port armed d =
  if !armed && d.Datagram.src_port = port then begin
    armed := false;
    []
  end
  else [ d ]

let check_states = Alcotest.(check (list string))

let check_no_failure w =
  checkb "a: no failure" true (Socket.failure w.a = None);
  checkb "b: no failure" true (Socket.failure w.b = None)

let check_no_timers w =
  check "a: no timer left" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.a));
  check "b: no timer left" 0
    (Simclock.pending_count w.clock ~owner:(Socket.timer_owner w.b))

(* Both ends close at the same instant: each FIN crosses the other, so
   each end goes FIN_WAIT_1 -> CLOSING -> TIME_WAIT (RFC 9293 §3.6). *)
let test_simultaneous_close () =
  Recorder.clear ();
  let w = make_world () in
  connect w;
  Socket.close w.a;
  Socket.close w.b;
  Simclock.run_until_idle w.clock;
  let closing = [ "FIN_WAIT_1"; "CLOSING"; "TIME_WAIT"; "CLOSED" ] in
  check_states "a" ([ "SYN_SENT"; "ESTABLISHED" ] @ closing) (noted_states 100);
  check_states "b" ([ "LISTEN"; "SYN_RCVD"; "ESTABLISHED" ] @ closing)
    (noted_states 200);
  check_no_failure w;
  check_no_timers w

(* b's pure ACK of a's FIN is lost and b closes at once, so a, in
   FIN_WAIT_1, gets its FIN acknowledged by b's FIN: the ACK is taken
   first (FIN_WAIT_2), then the FIN (TIME_WAIT), and a's FIN timer stops
   with it. *)
let test_fin_ack_in_fin_wait_1 () =
  Recorder.clear ();
  let armed = ref false and a_fins = ref 0 in
  let tamper d =
    if d.Datagram.src_port = 100 && has_flag Tcp_header.fin d then incr a_fins;
    lose_next_from 200 armed d
  in
  let w = make_world ~tamper () in
  connect w;
  armed := true;
  Socket.close w.a;
  pump_until ~step:5.0 w (fun () -> Socket.state w.b = Socket.Close_wait);
  Socket.close w.b;
  Simclock.run_until_idle w.clock;
  check_states "a"
    [ "SYN_SENT"; "ESTABLISHED"; "FIN_WAIT_1"; "FIN_WAIT_2"; "TIME_WAIT"; "CLOSED" ]
    (noted_states 100);
  check "a sent its FIN once" 1 !a_fins;
  check_no_failure w;
  check_no_timers w

(* A FIN below [rcv_nxt] is a retransmission whose ACK was lost, and is
   acknowledged again: from CLOSE_WAIT when b's ACK of a's FIN is lost,
   and from TIME_WAIT when a's final ACK is. *)
let test_retransmitted_fin_acked () =
  let armed = ref false in
  let w = make_world ~tamper:(lose_next_from 200 armed) () in
  connect w;
  armed := true;
  Socket.close w.a;
  Simclock.run_until_idle w.clock;
  check_s "a half closed" "FIN_WAIT_2" (Socket.state_to_string (Socket.state w.a));
  check_s "b saw the FIN" "CLOSE_WAIT" (Socket.state_to_string (Socket.state w.b));
  check_no_failure w;
  let armed = ref false in
  let w = make_world ~tamper:(lose_next_from 100 armed) () in
  connect w;
  Socket.close w.a;
  Simclock.run_until_idle w.clock;
  armed := true;
  Socket.close w.b;
  Simclock.run_until_idle w.clock;
  check_s "a closed" "CLOSED" (Socket.state_to_string (Socket.state w.a));
  check_s "b closed" "CLOSED" (Socket.state_to_string (Socket.state w.b));
  check_no_failure w;
  check_no_timers w

(* RFC 9293 Figure 5 by state name, with this stack's departures: abort
   and [destroy] reach CLOSED from any state, there is no simultaneous
   open (SYN_SENT -> SYN_RCVD), and [close] in SYN_RCVD is ignored
   (SYN_RCVD -> FIN_WAIT_1).  Written out here, not taken from the
   socket. *)
let rfc9293_edges =
  [ ("CLOSED", "LISTEN"); ("CLOSED", "SYN_SENT"); ("LISTEN", "SYN_RCVD");
    ("LISTEN", "SYN_SENT"); ("LISTEN", "CLOSED"); ("SYN_SENT", "ESTABLISHED");
    ("SYN_SENT", "CLOSED"); ("SYN_RCVD", "ESTABLISHED");
    ("ESTABLISHED", "FIN_WAIT_1"); ("ESTABLISHED", "CLOSE_WAIT");
    ("FIN_WAIT_1", "FIN_WAIT_2"); ("FIN_WAIT_1", "CLOSING");
    ("FIN_WAIT_2", "TIME_WAIT"); ("CLOSING", "TIME_WAIT");
    ("CLOSE_WAIT", "LAST_ACK"); ("LAST_ACK", "CLOSED"); ("TIME_WAIT", "CLOSED") ]
  @ List.filter_map
      (fun s -> if s = "CLOSED" then None else Some (s, "CLOSED"))
      (Array.to_list state_names)

(* The edges [port]'s notes walk, from CLOSED, that the list lacks. *)
let illegal_edges port =
  let rec walk prev = function
    | [] -> []
    | s :: rest ->
        (if List.mem (prev, s) rfc9293_edges then [] else [ prev ^ " -> " ^ s ])
        @ walk s rest
  in
  walk "CLOSED" (noted_states port)

(* Up to three messages in flight, then a close by a, by b, by both at
   once, or by both a gap apart (a first or b first), with at most one
   datagram lost among those sent after the first close.  Every state
   change is an edge of the list above; no end records a failure; both
   closers end CLOSED with no timer left, a lone closer in FIN_WAIT_2
   and its peer in CLOSE_WAIT; and every message arrives. *)
let prop_close_ends_clean =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"close: RFC 9293 edges, clean end"
    QCheck.(
      quad (int_range 0 3) (int_range 0 4) (option (int_range 0 9))
        (int_range 1 200))
    (fun (n_msgs, who, lose, gap_us) ->
      Recorder.clear ();
      let armed = ref false and sent = ref 0 in
      let tamper d =
        if not !armed then [ d ]
        else begin
          let k = !sent in
          incr sent;
          if lose = Some k then [] else [ d ]
        end
      in
      let w = make_world ~tamper () in
      connect w;
      let got = Buffer.create 512 in
      collect_into w got;
      let msgs = List.init n_msgs (fun i -> String.make (64 + (i * 37)) (Char.chr (97 + i))) in
      List.iter
        (fun m ->
          let fill mem ~dst ~off:_ ~len:_ =
            Mem.poke_string mem ~pos:dst m;
            None
          in
          match Socket.send_message w.a ~len:(String.length m) ~fill with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "refused: %s" (send_error_to_string e))
        msgs;
      armed := true;
      let gap () = Simclock.advance w.clock (float_of_int gap_us) in
      (match who with
      | 0 -> Socket.close w.a
      | 1 -> Socket.close w.b
      | 2 -> Socket.close w.a; Socket.close w.b
      | 3 -> Socket.close w.a; gap (); Socket.close w.b
      | _ -> Socket.close w.b; gap (); Socket.close w.a);
      Simclock.run_until_idle w.clock;
      let name s = Socket.state_to_string (Socket.state s) in
      let ends =
        match who with
        | 0 -> ("FIN_WAIT_2", "CLOSE_WAIT")
        | 1 -> ("CLOSE_WAIT", "FIN_WAIT_2")
        | _ -> ("CLOSED", "CLOSED")
      in
      let timers s = Simclock.pending_count w.clock ~owner:(Socket.timer_owner s) in
      let bad = illegal_edges 100 @ illegal_edges 200 in
      if Recorder.dropped () <> 0 then QCheck.Test.fail_report "flight notes dropped"
      else if bad <> [] then
        QCheck.Test.fail_reportf "illegal edges: %s" (String.concat ", " bad)
      else if Socket.failure w.a <> None || Socket.failure w.b <> None then
        QCheck.Test.fail_reportf "failure: a %s, b %s (a %s, b %s)"
          (Option.fold ~none:"none" ~some:Socket.abort_reason_to_string (Socket.failure w.a))
          (Option.fold ~none:"none" ~some:Socket.abort_reason_to_string (Socket.failure w.b))
          (String.concat " " (noted_states 100)) (String.concat " " (noted_states 200))
      else if (name w.a, name w.b) <> ends then
        QCheck.Test.fail_reportf "ends a %s, b %s" (name w.a) (name w.b)
      else if List.exists (fun s -> Socket.state s = Socket.Closed && timers s > 0) [ w.a; w.b ]
      then QCheck.Test.fail_report "a CLOSED socket left a timer"
      else String.equal (String.concat "" msgs) (Buffer.contents got))

let test_reset_for_shapes () =
  let module Ipv4 = Ilp_netsim.Ipv4 in
  let mk_dgram h =
    let h =
      { h with
        Tcp_header.checksum =
          Tcp_header.checksum h ~payload_acc:Ilp_checksum.Internet.empty
            ~payload_len:0 }
    in
    let seg = Tcp_header.to_string h in
    let ip = Ipv4.make ~protocol:6 ~src:1 ~dst:2 ~payload_len:(String.length seg) () in
    Datagram.create ~src_port:h.Tcp_header.src_port
      ~dst_port:h.Tcp_header.dst_port
      ~payload:(Ipv4.encapsulate ip seg)
  in
  let syn =
    mk_dgram
      (Tcp_header.make ~seq:500 ~ack:0 ~flags:Tcp_header.syn ~window:100
         ~checksum:0 ~urgent:0 ~src_port:77 ~dst_port:88 ())
  in
  (match Socket.reset_for syn with
  | None -> Alcotest.fail "SYN to a dead host must be reset"
  | Some r ->
      check "ports swapped (src)" 88 r.Datagram.src_port;
      check "ports swapped (dst)" 77 r.Datagram.dst_port;
      (match Ipv4.decapsulate r.Datagram.payload with
      | Error e -> Alcotest.fail ("reset not valid IP: " ^ e)
      | Ok _ -> (
          match Tcp_header.of_string r.Datagram.payload ~pos:Ipv4.header_len with
          | Error e -> Alcotest.fail ("reset not valid TCP: " ^ e)
          | Ok h ->
              checkb "RST flag set" true (Tcp_header.has h Tcp_header.rst);
              check "SYN acknowledged" 501 h.Tcp_header.ack;
              (* Never reset a reset: no storms between two dead hosts. *)
              checkb "reset-of-reset suppressed" true
                (Socket.reset_for r = None))));
  checkb "malformed input ignored" true
    (Socket.reset_for
       (Datagram.create ~src_port:1 ~dst_port:2 ~payload:"garbage")
    = None)

(* ------------------------------------------------------------------ *)
(* v2 framed receive: {!Framing} prelude parsing, final placement of
   out-of-order segments, and the negotiation-mismatch guard rails *)

module Framing = Ilp_tcp.Framing
module Internet = Ilp_checksum.Internet

let test_framing_word0_roundtrip () =
  List.iter
    (fun p ->
      match Framing.parse_word0 (Framing.word0 ~prelude_len:p) with
      | Some got -> check (Printf.sprintf "prelude %d round trip" p) p got
      | None -> Alcotest.failf "prelude %d rejected its own word0" p)
    [ 8; 16; 64; 248 ];
  let rejected w = Framing.parse_word0 w = None in
  checkb "zero rejected" true (rejected 0);
  checkb "wrong magic rejected" true (rejected 0x494d5008);
  checkb "prelude 0 rejected" true (rejected (Framing.word0 ~prelude_len:8 land lnot 0xff));
  checkb "unaligned prelude rejected" true (rejected (0x494c5000 lor 12));
  checkb "short prelude rejected" true (rejected (0x494c5000 lor 4))

let test_framing_stream_layout () =
  (* The framed fill must write the prelude words at offset 0 and present
     the engine's ranges shifted by exactly one [seg_unit], with the
     positional checksum matching a flat walk over the framed bytes. *)
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  let stream_len = 96 and seg_unit = 8 in
  let body i = ((i * 37) + 5) land 0xff in
  let fill_range m ~dst ~off ~len =
    for i = 0 to len - 1 do
      Mem.poke_u8 m (dst + i) (body (off + i))
    done;
    let chunk = Bytes.init len (fun i -> Char.chr (body (off + i))) in
    Some (Internet.add_bytes Internet.empty chunk ~off:0 ~len)
  in
  let total, fill =
    Framing.framed_stream ~seg_unit ~stream_len ~checksummed:true ~fill_range
  in
  check "total = prelude + stream" (seg_unit + stream_len) total;
  (* Whole-TSDU fill at offset 0 (the single-segment shape). *)
  let acc0 = fill mem ~dst:256 ~off:0 ~len:total in
  check "magic word" (Framing.word0 ~prelude_len:seg_unit) (Mem.peek_u32 mem 256);
  check "engine length word" stream_len (Mem.peek_u32 mem 260);
  for i = 0 to stream_len - 1 do
    if Mem.peek_u8 mem (256 + seg_unit + i) <> body i then
      Alcotest.failf "engine byte %d not shifted by the prelude" i
  done;
  (match acc0 with
  | None -> Alcotest.fail "checksummed fill returned no accumulator"
  | Some acc ->
      let flat =
        Internet.checksum_mem mem ~pos:256 ~len:total ~acc:Internet.empty
      in
      check "positional accumulator = flat walk" (Internet.finish flat)
        (Internet.finish acc));
  (* A continuation range passes straight through, shifted. *)
  ignore (fill mem ~dst:1024 ~off:(seg_unit + 16) ~len:24);
  for i = 0 to 23 do
    if Mem.peek_u8 mem (1024 + i) <> body (16 + i) then
      Alcotest.failf "continuation byte %d mis-shifted" i
  done;
  checkb "undersized seg_unit rejected" true
    (try
       ignore (Framing.framed_stream ~seg_unit:4 ~stream_len ~checksummed:false
                 ~fill_range);
       false
     with Invalid_argument _ -> true)

(* A miniature engine for socket-level framed tests: XOR "encryption"
   with a charged byte-wise decrypt into a caller-owned application
   area — stateless per segment, like the real receive kernels. *)
let xor_key = 0x5a

let framed_world ?(jitter_us = 0.0) ?(seed = 11) ?(mss = 256)
    ?(send_buffer = Socket.default_config.Socket.send_buffer) ?mangle () =
  let w = make_world ~jitter_us ~seed ~mss ~send_buffer ?mangle () in
  let app = Alloc.alloc w.sim.Sim.alloc 65536 in
  let handler m ~src ~dst_off ~len =
    if dst_off + len > 65536 then Error "overflow"
    else begin
      for i = 0 to len - 1 do
        Mem.set_u8 m (app + dst_off + i) (Mem.get_u8 m (src + i) lxor xor_key)
      done;
      Ok ()
    end
  in
  Socket.set_rx_processing w.b (Socket.Rx_separate handler);
  Socket.set_rx_framing w.b true;
  (w, app)

let framed_tsdu w payload =
  let stream_len = String.length payload in
  let fill_range m ~dst ~off ~len =
    for i = 0 to len - 1 do
      Mem.poke_u8 m (dst + i) (Char.code payload.[off + i] lxor xor_key)
    done;
    None
  in
  let total, fill =
    Framing.framed_stream ~seg_unit:8 ~stream_len ~checksummed:false ~fill_range
  in
  Socket.send_stream w.a ~seg_unit:8 ~len:total ~fill

let framed_all ?(step = 50.0) ?(guard = 200_000) w tsdus =
  let pending = Queue.of_seq (List.to_seq tsdus) in
  let g = ref guard and alive = ref true in
  while !alive && (not (Queue.is_empty pending)) && !g > 0 do
    decr g;
    match framed_tsdu w (Queue.peek pending) with
    | Ok () -> ignore (Queue.pop pending)
    | Error Socket.Buffer_full | Error Socket.Window_full ->
        Simclock.advance w.clock step
    | Error _ -> alive := false
  done;
  Simclock.run_until_idle w.clock

(* Collect each delivered TSDU's plaintext from the application area. *)
let collect_app w app buf =
  Socket.set_on_message w.b (fun ~len ->
      Buffer.add_bytes buf (Mem.peek_bytes w.sim.Sim.mem ~pos:app ~len))

let test_framed_stream_roundtrip () =
  let w, app = framed_world () in
  connect w;
  let got = Buffer.create 32768 in
  collect_app w app got;
  let tsdus = List.init 6 (fun k -> stream_payload (896 + (704 * k mod 2112)) k) in
  framed_all w tsdus;
  check_s "framed TSDUs decrypted in place, byte-exact"
    (String.concat "" tsdus) (Buffer.contents got);
  checkb "no abort" true (Socket.failure w.a = None && Socket.failure w.b = None);
  (* Every delivered byte of wire stream includes one prelude per TSDU. *)
  check "prelude bytes delivered too"
    (List.fold_left (fun a s -> a + String.length s + 8) 0 tsdus)
    (Socket.stats w.b).Socket.bytes_delivered

let test_framed_ooo_final_placement () =
  (* Heavy jitter reorders segments; with framing on, in-extent
     out-of-order segments must land at their final TSDU offset instead
     of the stash, and the drain must not re-copy them. *)
  let w, app = framed_world ~jitter_us:2000.0 ~seed:77 () in
  connect w;
  let got = Buffer.create 32768 in
  collect_app w app got;
  let payload = stream_payload 16_000 4 in
  framed_all w [ payload ];
  check_s "reordered framed stream byte-exact" payload (Buffer.contents got);
  let st = Socket.stats w.b in
  checkb "receiver saw out-of-order segments" true (st.Socket.out_of_order > 0);
  checkb "some were placed at their final offset" true (st.Socket.ooo_placed > 0);
  checkb "placements are a subset of the out-of-order count" true
    (st.Socket.ooo_placed <= st.Socket.out_of_order)

let test_framed_ooo_ring_wrap () =
  (* Many TSDUs through a send ring much smaller than the transfer, under
     jitter: placements must stay byte-exact while the ring cycles and
     segments straddle the wrap point. *)
  let w, app =
    framed_world ~jitter_us:1200.0 ~seed:31 ~mss:1000 ~send_buffer:8192 ()
  in
  connect w;
  let got = Buffer.create 65536 in
  collect_app w app got;
  let tsdus = List.init 12 (fun k -> stream_payload 4000 (100 + k)) in
  framed_all w tsdus;
  check_s "wrapped framed transfer byte-exact" (String.concat "" tsdus)
    (Buffer.contents got);
  checkb "send ring wrapped" true (Socket.ring_wraps w.a > 0);
  checkb "final placement exercised" true
    ((Socket.stats w.b).Socket.ooo_placed > 0);
  checkb "no abort" true (Socket.failure w.a = None)

let test_framed_corrupt_prelude_recovered () =
  (* Flip a byte inside the first data segment's prelude: the checksum
     verdict fails before any frame state is committed, the segment is
     dropped and its retransmission delivers the TSDU byte-exact. *)
  let data_seen = ref 0 in
  let mangle _ s =
    if String.length s > 100 then begin
      incr data_seen;
      if !data_seen = 1 then begin
        let b = Bytes.of_string s in
        let pos = String.length s - 60 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
        Bytes.to_string b
      end
      else s
    end
    else s
  in
  let w, app = framed_world ~mangle () in
  connect w;
  let got = Buffer.create 8192 in
  collect_app w app got;
  let payload = stream_payload 3008 9 in
  framed_all w [ payload ];
  check_s "recovered byte-exact after corrupt first segment" payload
    (Buffer.contents got);
  let st = Socket.stats w.b in
  checkb "exactly the corrupt segment failed its checksum" true
    (st.Socket.checksum_failures = 1);
  checkb "sender retransmitted" true
    ((Socket.stats w.a).Socket.retransmissions > 0)

let test_framed_receiver_rejects_unframed_stream () =
  (* Negotiation mismatch: a framing-enabled receiver fed a v1 stream
     finds no magic in the first word and drops the segment as
     Bad_header — nothing is delivered and no frame state is wedged. *)
  let w, app = framed_world () in
  connect w;
  let got = Buffer.create 1024 in
  collect_app w app got;
  (match stream_tsdu w (stream_payload 600 3) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send_stream refused: %s" (send_error_to_string e));
  for _ = 1 to 200 do
    Simclock.advance w.clock 1000.0
  done;
  check "nothing delivered" 0 (Buffer.length got);
  let bad_header =
    try List.assoc Socket.Bad_header (Socket.drops w.b) with Not_found -> 0
  in
  checkb "v1 stream dropped as Bad_header" true (bad_header > 0)

(* ------------------------------------------------------------------ *)
(* Reference models for the pure state machines *)

(* Scoreboard: random flights and acks whose blocks take every shape a
   peer can send — valid, misaligned, inverted, beyond snd_nxt, repeated
   (overlapping), D-SACK below the cumulative ack and D-SACK contained in
   a later block.  The model keeps the SACKed sequence numbers as a set
   and picks holes with RFC 3517's IsLost / pipe / NextSeg pseudo-code at
   segment granularity: a segment is lost once DupThresh SACKed segments
   lie above it, and a retransmission younger than [retry_after] is
   still in the pipe. *)

module Iset = Set.Make (Int)

type sb_model = {
  mutable flight : (int * int) list;  (* (seq, len), oldest first *)
  mutable sacked : Iset.t;
  mutable resent : (int * float) list;  (* seq -> when resent *)
  mutable snd_nxt : int;
  mutable now : float;
}

type sb_op =
  | Sb_send of int list  (* segment lengths *)
  | Sb_ack of int * bool * (int * int * int) list * bool
      (* cumulative advance seed, mid-segment ack, block seeds, D-SACK
         contained first block *)
  | Sb_holes of int * int  (* cap in 100-byte units, clock step *)
  | Sb_renege
  | Sb_recovered

let sb_retry_after = 10.0

let gen_sb_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun l -> Sb_send l) (list_size (int_range 1 4) (int_range 1 120)));
        ( 5,
          map
            (fun (((adv, mid), seeds), dsack) -> Sb_ack (adv, mid, seeds, dsack))
            (pair
               (pair
                  (pair (int_range 0 3) (frequency [ (5, return false); (1, return true) ]))
                  (list_size (int_range 0 4)
                     (triple (int_range 0 9) (int_range 0 40) (int_range 0 40))))
               (frequency [ (4, return false); (1, return true) ])) );
        (3, map (fun (c, d) -> Sb_holes (c, d)) (pair (int_range 0 12) (int_range 0 8)));
        (1, return Sb_renege);
        (1, return Sb_recovered) ])

let print_sb_op = function
  | Sb_send l -> Printf.sprintf "send[%s]" (String.concat ";" (List.map string_of_int l))
  | Sb_ack (a, m, seeds, d) ->
      Printf.sprintf "ack(%d,%b,[%s],%b)" a m
        (String.concat ";"
           (List.map (fun (k, i, j) -> Printf.sprintf "%d/%d/%d" k i j) seeds))
        d
  | Sb_holes (c, d) -> Printf.sprintf "holes(%d,%d)" c d
  | Sb_renege -> "renege"
  | Sb_recovered -> "recovered"

(* Turn a block seed into edges against the flight the ack will see. *)
let sb_block m ~ack (kind, i, j) =
  let segs = Array.of_list m.flight in
  let n = Array.length segs in
  let seg k = segs.(k mod n) in
  if n = 0 then (ack + i, ack + i + j)
  else
    match kind with
    | 0 | 1 | 2 | 3 ->
        (* segment-aligned span *)
        let a = i mod n and b = j mod n in
        let a, b = (min a b, max a b) in
        (fst segs.(a), fst segs.(b) + snd segs.(b))
    | 4 ->
        let s, _ = seg i in
        (s + (j mod 7), s + (j mod 7) + 1 + (i * 3))
    | 5 ->
        let s, l = seg i in
        (s + l, s + (j mod 2))
    | 6 -> (m.snd_nxt - (i mod 50), m.snd_nxt + 1 + j)
    | 7 -> (ack - 2 - i - j, ack - (j mod 2))
    | _ ->
        let s, l = seg i in
        (s, s + l)

let sb_model_sack m ~ack blocks =
  let invalid = ref 0 and spurious = ref 0 and accepted = ref [] in
  let blocks =
    match blocks with
    | (l, r) :: rest
      when l < r && r <= m.snd_nxt
           && List.exists (fun (l', r') -> l' <= l && r <= r') rest ->
        incr spurious;
        rest
    | _ -> blocks
  in
  List.iter
    (fun (l, r) ->
      if l >= r || r > m.snd_nxt then incr invalid
      else if r <= ack then incr spurious
      else if List.exists (fun (l', r') -> l < r' && l' < r) !accepted then
        incr invalid
      else begin
        accepted := (l, r) :: !accepted;
        let l = max l ack in
        List.iter
          (fun (s, len) ->
            if s >= l && s + len <= r then m.sacked <- Iset.add s m.sacked)
          m.flight
      end)
    blocks;
  (List.length !accepted, !invalid, !spurious)

let sb_model_holes m ~cap =
  let sacked_above s = Iset.cardinal (Iset.filter (fun x -> x > s) m.sacked) in
  let is_lost s = sacked_above s >= Cc.dupthresh in
  let rexmit_in_pipe s =
    match List.assoc_opt s m.resent with
    | Some at -> m.now -. at < sb_retry_after
    | None -> false
  in
  let unsacked = List.filter (fun (s, _) -> not (Iset.mem s m.sacked)) m.flight in
  let pipe =
    List.fold_left
      (fun p (s, len) -> if (not (is_lost s)) || rexmit_in_pipe s then p + len else p)
      0 unsacked
  in
  let _, chosen =
    List.fold_left
      (fun (pipe, chosen) (s, len) ->
        if is_lost s && (not (rexmit_in_pipe s)) && pipe < cap then
          (pipe + len, s :: chosen)
        else (pipe, chosen))
      (pipe, []) unsacked
  in
  let chosen = List.rev chosen in
  m.resent <-
    List.map (fun s -> (s, m.now)) chosen
    @ List.filter (fun (s, _) -> not (List.mem s chosen)) m.resent;
  chosen

let prop_scoreboard_model =
  QCheck.Test.make ~count:300 ~long_factor:10 ~name:"scoreboard model"
    QCheck.(
      pair bool
        (make ~print:(fun l -> String.concat " " (List.map print_sb_op l))
           Gen.(list_size (int_range 1 40) gen_sb_op)))
    (fun (sack, ops) ->
      let sb = Scoreboard.create ~sack ~vacant:() in
      let m =
        { flight = []; sacked = Iset.empty; resent = []; snd_nxt = 5000; now = 0.0 }
      in
      let snd_una () = match m.flight with (s, _) :: _ -> s | [] -> m.snd_nxt in
      let agrees () =
        List.map
          (fun (s : unit Scoreboard.seg) -> (s.seq, s.len, s.sacked))
          (Scoreboard.segments sb)
        = List.map (fun (s, l) -> (s, l, Iset.mem s m.sacked)) m.flight
        && Option.map (fun (s : unit Scoreboard.seg) -> s.seq) (Scoreboard.first_unsacked sb)
           = Option.map fst
               (List.find_opt (fun (s, _) -> not (Iset.mem s m.sacked)) m.flight)
        &&
        let n = List.length m.flight and k = Iset.cardinal m.sacked in
        Scoreboard.dupack_threshold sb
        = (if sack && n > 0 && n < 1 + Cc.dupthresh && k = n - 1 then max 1 (n - 1)
           else Cc.dupthresh)
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Sb_send lens ->
                List.iter
                  (fun len ->
                    Scoreboard.add sb ~seq:m.snd_nxt ~len ();
                    m.flight <- m.flight @ [ (m.snd_nxt, len) ];
                    m.snd_nxt <- m.snd_nxt + len)
                  lens;
                true
            | Sb_ack (adv, mid, seeds, dsack) ->
                let segs = Array.of_list m.flight in
                let k = min adv (Array.length segs) in
                let ack =
                  if k = Array.length segs then m.snd_nxt
                  else fst segs.(k) + if mid then 1 else 0
                in
                let ack = max ack (snd_una ()) in
                let blocks = List.map (sb_block m ~ack) seeds in
                let blocks =
                  match (dsack, List.rev blocks) with
                  | true, (l, r) :: _ when r - l >= 2 -> (l + 1, r - 1) :: blocks
                  | _ -> blocks
                in
                let c = Scoreboard.process_sack sb ~ack ~snd_nxt:m.snd_nxt blocks in
                let expect = sb_model_sack m ~ack blocks in
                while Scoreboard.front_acked sb ~ack do
                  ignore (Scoreboard.pop sb)
                done;
                m.flight <- List.filter (fun (s, len) -> s + len > ack) m.flight;
                m.sacked <- Iset.filter (fun s -> List.mem_assoc s m.flight) m.sacked;
                m.resent <- List.filter (fun (s, _) -> List.mem_assoc s m.flight) m.resent;
                (c.accepted, c.invalid, c.spurious) = expect
            | Sb_holes (cap, dt) ->
                m.now <- m.now +. float_of_int dt;
                let got = ref [] in
                Scoreboard.iter_holes sb ~cap:(cap * 100) ~now:m.now
                  ~retry_after:sb_retry_after (fun s ->
                    got := s.seq :: !got;
                    Scoreboard.mark_resent s ~now:m.now);
                let expect = if sack then sb_model_holes m ~cap:(cap * 100) else [] in
                List.rev !got = expect
            | Sb_renege ->
                Scoreboard.renege sb;
                m.sacked <- Iset.empty;
                m.resent <- [];
                true
            | Sb_recovered ->
                Scoreboard.clear_resent sb;
                m.resent <- [];
                true
          in
          step_ok && agrees ())
        ops)

(* Cc: random sends, new acks (possibly partial), duplicate acks and
   timeouts, driven through [Cc] the way [Socket] drives it and through a
   transcription of the RFCs.  This stack departs from them in two
   documented ways, mirrored here: a partial ack does not deflate cwnd,
   and recovery inflation stops once the duplicates outnumber the
   segments outstanding. *)

type cc_model = {
  mutable m_cwnd : int;
  mutable m_ssthresh : int;
  mutable bytes_acked : int;  (* RFC 3465 *)
  mutable dups : int;
  mutable fast_recovery : bool;
  mutable recover : int;  (* RFC 6582 *)
}

type cc_op =
  | Cc_send of int  (* segments *)
  | Cc_ack of int * bool  (* bytes, no unsacked segment left *)
  | Cc_dup of bool * bool  (* early-retransmit threshold, a hole to resend *)
  | Cc_timeout

let cc_mss = 100

let gen_cc_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Cc_send k) (int_range 1 8));
        ( 4,
          map (fun (n, e) -> Cc_ack (n, e))
            (pair (int_range 1 400) (frequency [ (6, return false); (1, return true) ])) );
        ( 5,
          map (fun (e, h) -> Cc_dup (e, h))
            (pair (frequency [ (5, return false); (1, return true) ])
               (frequency [ (8, return true); (1, return false) ])) );
        (1, return Cc_timeout) ])

let print_cc_op = function
  | Cc_send k -> Printf.sprintf "send %d" k
  | Cc_ack (n, e) -> Printf.sprintf "ack %d%s" n (if e then "!" else "")
  | Cc_dup (e, h) -> Printf.sprintf "dup%s%s" (if e then "(early)" else "") (if h then "" else "(no hole)")
  | Cc_timeout -> "timeout"

(* One event applied to both; [true] when cwnd and ssthresh agree. *)
let cc_run ops =
  let cc = Cc.create ~mss:cc_mss in
  let m =
    { m_cwnd = 2 * cc_mss; m_ssthresh = 64 * 1024; bytes_acked = 0; dups = 0;
      fast_recovery = false; recover = 0 }
  in
  let snd_una = ref 0 and snd_nxt = ref 0 in
  let flight () = !snd_nxt - !snd_una in
  List.for_all
    (fun op ->
      (match op with
      | Cc_send k -> snd_nxt := !snd_nxt + (k * cc_mss)
      | Cc_ack (n, no_hole) when flight () > 0 ->
          let n = min n (flight ()) in
          ignore (Cc.ack cc ~acked:n);
          snd_una := !snd_una + n;
          (match Cc.recovery_ack cc ~ack:!snd_una with
          | Cc.Partial_ack when no_hole -> Cc.leave_recovery cc
          | _ -> ());
          (* RFC 5681 §3.1 with RFC 3465 (L = 1 SMSS); no growth during
             fast recovery *)
          m.dups <- 0;
          if not m.fast_recovery then begin
            if m.m_cwnd < m.m_ssthresh then m.m_cwnd <- m.m_cwnd + min n cc_mss
            else begin
              m.bytes_acked <- m.bytes_acked + n;
              if m.bytes_acked >= m.m_cwnd then begin
                m.bytes_acked <- m.bytes_acked - m.m_cwnd;
                m.m_cwnd <- m.m_cwnd + cc_mss
              end
            end
          end;
          (* RFC 6582: a full ack ends recovery with cwnd = ssthresh *)
          if m.fast_recovery then
            if !snd_una >= m.recover then begin
              m.fast_recovery <- false;
              m.m_cwnd <- m.m_ssthresh
            end
            else if no_hole then m.fast_recovery <- false
      | Cc_ack _ -> ()
      | Cc_dup (early, hole) when flight () > 0 ->
          let outstanding = (flight () + cc_mss - 1) / cc_mss in
          let threshold = if early then max 1 (outstanding - 1) else Cc.dupthresh in
          (match Cc.dupack cc ~threshold ~outstanding with
          | Cc.Threshold when hole ->
              Cc.fast_loss cc ~recover:!snd_nxt ~in_flight:(flight ())
          | _ -> ());
          (* RFC 5681 §3.2 *)
          m.dups <- m.dups + 1;
          if m.dups = threshold && not m.fast_recovery then begin
            if hole then begin
              m.fast_recovery <- true;
              m.recover <- !snd_nxt;
              m.m_ssthresh <- max (flight () / 2) (2 * cc_mss);
              m.m_cwnd <- m.m_ssthresh + (3 * cc_mss)
            end
          end
          else if m.fast_recovery && m.dups > threshold && m.dups <= outstanding
          then m.m_cwnd <- m.m_cwnd + cc_mss
      | Cc_dup _ -> ()
      | Cc_timeout ->
          Cc.timeout cc ~in_flight:(flight ());
          (* RFC 5681 §3.1: ssthresh = max (FlightSize / 2, 2 SMSS),
             cwnd = LW = 1 SMSS *)
          m.fast_recovery <- false;
          m.dups <- 0;
          m.m_ssthresh <- max (flight () / 2) (2 * cc_mss);
          m.m_cwnd <- cc_mss);
      Cc.cwnd cc = m.m_cwnd
      && Cc.ssthresh cc = m.m_ssthresh
      && Cc.in_recovery cc = m.fast_recovery)
    ops

let arb_cc_ops =
  QCheck.make ~print:(fun l -> String.concat ", " (List.map print_cc_op l))
    QCheck.Gen.(list_size (int_range 1 60) gen_cc_op)

let prop_cc_model =
  QCheck.Test.make ~count:500 ~long_factor:10 ~name:"cc model" arb_cc_ops
    cc_run

(* Ack division: one segment's worth of ack split into pieces earns no
   more window than the same ack whole.  The histories start with a
   timeout (so congestion avoidance is reached quickly) and then only
   send, duplicate-ack and acknowledge at most one MSS at a time.  That
   keeps the RFC 3465 byte counter below one window, which a second
   window cut or a stretch ack does not: [Cc] keeps the counter across a
   cut, and the left-over credit then grows cwnd one MSS per ack, divided
   or not. *)
let prop_cc_ack_division =
  QCheck.Test.make ~count:300 ~name:"cc ack division earns nothing"
    QCheck.(
      pair (pair (int_range 0 4000) arb_cc_ops)
        (pair (int_range 1 cc_mss) (int_range 2 10)))
    (fun ((cut_flight, ops), (bytes, pieces)) ->
      let replay () =
        let cc = Cc.create ~mss:cc_mss in
        Cc.timeout cc ~in_flight:cut_flight;
        let una = ref 0 and nxt = ref 0 in
        List.iter
          (function
            | Cc_send k -> nxt := !nxt + (k * cc_mss)
            | Cc_ack (n, _) ->
                let n = min (min n cc_mss) (!nxt - !una) in
                if n > 0 then begin
                  ignore (Cc.ack cc ~acked:n);
                  una := !una + n;
                  ignore (Cc.recovery_ack cc ~ack:!una)
                end
            | Cc_dup _ ->
                if !nxt > !una then
                  ignore
                    (Cc.dupack cc ~threshold:Cc.dupthresh
                       ~outstanding:((!nxt - !una) / cc_mss))
            | Cc_timeout -> ())
          ops;
        cc
      in
      let whole = replay () and divided = replay () in
      ignore (Cc.ack whole ~acked:bytes);
      let piece = max 1 (bytes / pieces) in
      let rec split left =
        if left > 0 then begin
          ignore (Cc.ack divided ~acked:(min piece left));
          split (left - piece)
        end
      in
      split bytes;
      Cc.cwnd divided <= Cc.cwnd whole && Cc.ssthresh divided = Cc.ssthresh whole)

(* Reasm: random arrivals (in window, beyond it, repeated, overlapping
   others off their boundaries, stashed and placed), duplicates below
   [rcv_nxt], in-order advances with the drain, and framed TSDUs.  The
   model holds the same segments in a list and derives the SACK blocks
   from a byte bitmap of what is held: its maximal runs, the run holding
   the most recent arrival first ([Reasm.ranges]), a pending D-SACK
   block ahead of them, as many as an ack carries ([Reasm.take_blocks]). *)

type ra_op =
  | Ra_arrive of int * int * bool  (* offset past rcv_nxt, length, verdict *)
  | Ra_again of int * int  (* re-arrival at the n-th held segment *)
  | Ra_dup of int * int  (* offset below rcv_nxt, length *)
  | Ra_advance of int  (* in-order bytes accepted *)
  | Ra_frame of int * int  (* prelude length, engine extent *)

let gen_ra_op =
  QCheck.Gen.(
    frequency
      [ ( 8,
          map
            (fun ((o, l), ok) -> Ra_arrive (o, l, ok))
            (pair
               (pair (int_range 1 360) (int_range 1 60))
               (frequency [ (6, return true); (1, return false) ])) );
        (2, map (fun (i, l) -> Ra_again (i, l)) (pair nat (int_range 1 60)));
        (2, map (fun (o, l) -> Ra_dup (o, l)) (pair (int_range 1 80) (int_range 1 60)));
        (4, map (fun k -> Ra_advance k) (int_range 1 90));
        (1, map (fun (p, e) -> Ra_frame (p, e)) (pair (int_range 4 16) (int_range 1 300))) ])

let print_ra_op = function
  | Ra_arrive (o, l, ok) -> Printf.sprintf "arrive(+%d,%d%s)" o l (if ok then "" else ",bad")
  | Ra_again (i, l) -> Printf.sprintf "again(%d,%d)" i l
  | Ra_dup (o, l) -> Printf.sprintf "dup(-%d,%d)" o l
  | Ra_advance k -> Printf.sprintf "advance %d" k
  | Ra_frame (p, e) -> Printf.sprintf "frame(%d,%d)" p e

(* Maximal runs of held bytes, highest first. *)
let bitmap_runs held =
  match held with
  | [] -> []
  | _ ->
      let lo = List.fold_left (fun a (s, _, _) -> min a s) max_int held in
      let hi = List.fold_left (fun a (s, l, _) -> max a (s + l)) 0 held in
      let bits = Array.make (hi - lo) false in
      List.iter (fun (s, l, _) -> Array.fill bits (s - lo) l true) held;
      let runs = ref [] and start = ref (-1) in
      Array.iteri
        (fun i b ->
          if b && !start < 0 then start := i
          else if (not b) && !start >= 0 then begin
            runs := (lo + !start, lo + i) :: !runs;
            start := -1
          end)
        bits;
      if !start >= 0 then runs := (lo + !start, hi) :: !runs;
      !runs

let prop_reasm_model =
  QCheck.Test.make ~count:400 ~long_factor:10 ~name:"reasm model"
    QCheck.(
      triple (int_range 1 6) (pair (int_range 64 300) bool)
        (make ~print:(fun l -> String.concat " " (List.map print_ra_op l))
           Gen.(list_size (int_range 1 60) gen_ra_op)))
    (fun (slots, (window, sack), ops) ->
      let r = Reasm.create ~slots ~window ~sack in
      Reasm.set_framing r true;
      let rcv_nxt = ref 1000 in
      (* (seq, len, entry) *)
      let held = ref [] and last = ref (-1) and dsack = ref None in
      let frame = ref None in
      let expect what b = if not b then QCheck.Test.fail_reportf "%s differs" what in
      let note_dup seq len = if sack && len > 1 then dsack := Some (seq, seq + len) in
      let drain () =
        let continue = ref true in
        while !continue do
          held := List.filter (fun (s, _, _) -> s >= !rcv_nxt) !held;
          let here = List.find_opt (fun (s, _, _) -> s = !rcv_nxt) !held in
          let got = Reasm.pop r ~rcv_nxt:!rcv_nxt in
          expect "pop" (Option.map (fun (_, _, e) -> e) here = got);
          match here with
          | None -> continue := false
          | Some (s, l, e) ->
              held := List.filter (fun (s', _, _) -> s' <> s) !held;
              rcv_nxt := !rcv_nxt + l;
              (match e with
              | Reasm.Placed { psh = true; _ } ->
                  Reasm.close_frame r;
                  frame := None
              | _ -> ())
        done
      in
      let arrive seq len verdict =
        let expected =
          if seq >= !rcv_nxt + window then Reasm.Beyond_window
          else if List.exists (fun (s, _, _) -> s = seq) !held then Reasm.Held
          else
            match !frame with
            | Some (base, plen, elen) when seq + len <= base + plen + elen ->
                Reasm.Place (seq - base - plen)
            | _ -> (
                let used =
                  List.filter_map
                    (function _, _, Reasm.Stashed { slot; _ } -> Some slot | _ -> None)
                    !held
                in
                match List.find_opt (fun i -> not (List.mem i used)) (List.init slots Fun.id) with
                | Some i -> Reasm.Stash i
                | None -> Reasm.No_slot)
        in
        let got = Reasm.arrive r ~rcv_nxt:!rcv_nxt ~seq ~len in
        expect "arrive" (got = expected);
        match got with
        | Reasm.Held -> note_dup seq len
        | Reasm.Stash slot ->
            held := (seq, len, Reasm.Stashed { slot; len }) :: !held;
            last := seq
        | Reasm.Place _ when verdict ->
            let psh = (seq + len) mod 7 = 0 in
            Reasm.placed r ~seq ~len ~psh;
            held := (seq, len, Reasm.Placed { len; psh }) :: !held;
            last := seq
        | _ -> ()
      in
      List.iter
        (fun op ->
          (match op with
          | Ra_arrive (off, len, verdict) -> arrive (!rcv_nxt + off) len verdict
          | Ra_again (i, len) -> (
              match !held with
              | [] -> ()
              | h -> let s, _, _ = List.nth h (i mod List.length h) in arrive s len true)
          | Ra_dup (off, len) ->
              Reasm.duplicate r ~seq:(!rcv_nxt - off) ~len;
              note_dup (!rcv_nxt - off) len
          | Ra_advance k ->
              rcv_nxt := !rcv_nxt + k;
              drain ()
          | Ra_frame (plen, elen) ->
              if !frame = None then begin
                Reasm.open_frame r ~seq:!rcv_nxt ~plen ~elen;
                frame := Some (!rcv_nxt, plen, elen);
                rcv_nxt := !rcv_nxt + plen;
                drain ()
              end);
          let runs = bitmap_runs !held in
          let runs =
            match List.partition (fun (l, h) -> l <= !last && !last < h) runs with
            | [ recent ], rest -> recent :: rest
            | _ -> runs
          in
          let blocks =
            if not sack then []
            else match !dsack with Some d -> d :: runs | None -> runs
          in
          dsack := None;
          expect "ranges" (Reasm.ranges r = runs);
          expect "blocks"
            (Reasm.take_blocks r
            = List.filteri (fun i _ -> i < Tcp_header.max_sack_blocks) blocks);
          expect "held"
            (Reasm.held r
            = List.sort compare (List.map (fun (s, _, e) -> (s, e)) !held));
          let stashed =
            List.length
              (List.filter (function _, _, Reasm.Stashed _ -> true | _ -> false) !held)
          in
          expect "slots" (Reasm.slots_in_use r = stashed && stashed <= slots);
          expect "nothing held below rcv_nxt"
            (List.for_all (fun (s, _) -> s >= !rcv_nxt) (Reasm.held r)))
        ops;
      true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tcp"
    [ ( "header",
        [ Alcotest.test_case "string round trip" `Quick test_header_string_roundtrip;
          Alcotest.test_case "decode bounds" `Quick test_header_decode_bounds;
          Alcotest.test_case "memory round trip" `Quick test_header_mem_roundtrip;
          Alcotest.test_case "flags" `Quick test_header_flags;
          Alcotest.test_case "checksum consistency" `Quick
            test_header_checksum_consistency;
          Alcotest.test_case "sealed once" `Quick test_header_sealed;
          qc prop_header_reader_matches_of_string;
          qc prop_header_writer_matches_to_string ] );
      ( "ring",
        [ Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wrap waste" `Quick test_ring_wrap_waste;
          Alcotest.test_case "oversize" `Quick test_ring_reserve_too_big;
          Alcotest.test_case "release empty" `Quick test_ring_release_empty;
          qc prop_ring_fifo ] );
      ( "rto",
        [ Alcotest.test_case "defaults and sampling" `Quick test_rto_defaults_and_sampling;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "flat estimate, bit for bit, no allocation" `Quick
            test_rto_flat ] );
      ( "socket",
        [ Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "handshake under loss" `Quick test_handshake_under_loss;
          Alcotest.test_case "one code image per host" `Quick test_code_image_shared;
          Alcotest.test_case "simple transfer" `Quick test_simple_transfer;
          Alcotest.test_case "one host copy per datagram" `Quick
            test_datagram_one_host_copy;
          Alcotest.test_case "transfer under loss" `Quick test_transfer_under_loss;
          Alcotest.test_case "reordering" `Quick test_transfer_with_reordering;
          Alcotest.test_case "duplication" `Quick test_transfer_with_duplication;
          Alcotest.test_case "corruption recovery" `Quick
            test_corruption_detected_and_recovered;
          Alcotest.test_case "truncation recovery" `Quick
            test_truncation_dropped_and_recovered;
          Alcotest.test_case "abort: handshake failed" `Quick
            test_abort_handshake_failed;
          Alcotest.test_case "abort: retry exhausted" `Quick
            test_abort_retry_exhausted;
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
          Alcotest.test_case "corrupted sequence number not held" `Quick
            test_corrupted_seq_not_held;
          Alcotest.test_case "send errors" `Quick test_send_errors;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
          Alcotest.test_case "congestion window dynamics" `Quick
            test_congestion_window_dynamics;
          Alcotest.test_case "window never exceeded" `Quick
            test_window_never_exceeded;
          Alcotest.test_case "close sequence" `Quick test_close_sequence;
          Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
          Alcotest.test_case "FIN+ACK in FIN_WAIT_1" `Quick
            test_fin_ack_in_fin_wait_1;
          Alcotest.test_case "retransmitted FIN acknowledged" `Quick
            test_retransmitted_fin_acked;
          qc prop_close_ends_clean;
          Alcotest.test_case "no handler drops data" `Quick
            test_no_handler_drops_data;
          qc prop_lossy_stream_integrity;
          Alcotest.test_case "a pure ack allocates its parsed header only" `Quick
            test_pure_ack_allocates_header_only;
          Alcotest.test_case "an RTO arm allocates its timer alone" `Quick
            test_rto_arm_allocates_timer_only ] );
      ( "persist",
        [ Alcotest.test_case "probes back off" `Quick test_persist_probes_back_off;
          Alcotest.test_case "resumes exactly once on reopen" `Quick
            test_persist_resumes_once_on_reopen;
          Alcotest.test_case "stall deadline aborts Peer_stalled" `Quick
            test_persist_stall_deadline_aborts;
          Alcotest.test_case "window shrink below in-flight" `Quick
            test_window_shrink_below_in_flight ] );
      ( "stream",
        [ Alcotest.test_case "pipelined TSDU" `Quick test_stream_pipelined_tsdu;
          Alcotest.test_case "backpressure and ordering" `Quick
            test_stream_backpressure_and_ordering;
          Alcotest.test_case "ring wrap-around" `Quick test_stream_ring_wrap;
          Alcotest.test_case "impaired delivery grid" `Quick
            test_stream_impaired_delivery;
          Alcotest.test_case "reorder stash" `Quick test_stream_reorder_uses_stash;
          Alcotest.test_case "fast recovery" `Quick test_stream_fast_recovery;
          Alcotest.test_case "window shrink mid-flight" `Quick
            test_stream_window_shrink_mid_flight;
          Alcotest.test_case "metrics conservation" `Quick
            test_stream_metrics_conservation;
          Alcotest.test_case "tracing changes nothing" `Quick
            test_stream_tracing_changes_nothing;
          Alcotest.test_case "flight events reach both sinks" `Quick
            test_flight_events_reach_both_sinks;
          qc prop_send_message_is_one_segment_stream ] );
      ( "sack",
        [ qc prop_sack_header_roundtrip;
          Alcotest.test_case "malformed options rejected" `Quick
            test_sack_option_malformed_rejected;
          Alcotest.test_case "ooo stash auto-sizing" `Quick test_ooo_autosize;
          Alcotest.test_case "multi-hole recovery without RTO" `Quick
            test_sack_multi_hole_recovery;
          Alcotest.test_case "scoreboard-vs-stash agreement grid" `Quick
            test_sack_impaired_grid_agreement;
          Alcotest.test_case "reneging tolerated via RTO" `Quick
            test_sack_reneging_rto_recovery;
          Alcotest.test_case "forged beyond-snd_nxt blocks rejected" `Quick
            test_sack_forged_beyond_sndnxt_rejected;
          Alcotest.test_case "overlapping blocks rejected" `Quick
            test_sack_overlapping_blocks_rejected;
          Alcotest.test_case "optimistic ack aborts Misbehaving_peer" `Quick
            test_optimistic_ack_aborts;
          Alcotest.test_case "ack division earns no window" `Quick
            test_ack_division_no_cwnd_inflation;
          Alcotest.test_case "dupack forgery bounded and D-SACKed" `Quick
            test_dupack_forgery_bounded;
          Alcotest.test_case "sack off is the NewReno baseline" `Quick
            test_sack_off_is_newreno ] );
      ( "framed receive",
        [ Alcotest.test_case "prelude word round trip" `Quick
            test_framing_word0_roundtrip;
          Alcotest.test_case "framed stream layout and checksum" `Quick
            test_framing_stream_layout;
          Alcotest.test_case "framed stream round trip" `Quick
            test_framed_stream_roundtrip;
          Alcotest.test_case "ooo final placement" `Quick
            test_framed_ooo_final_placement;
          Alcotest.test_case "placement across ring wrap" `Quick
            test_framed_ooo_ring_wrap;
          Alcotest.test_case "corrupt prelude recovered" `Quick
            test_framed_corrupt_prelude_recovered;
          Alcotest.test_case "unframed stream rejected" `Quick
            test_framed_receiver_rejects_unframed_stream ] );
      ( "crash faults",
        [ Alcotest.test_case "RST on destroyed connection" `Quick
            test_rst_on_destroyed_connection;
          Alcotest.test_case "destroy cancels every timer" `Quick
            test_destroy_cancels_every_timer;
          Alcotest.test_case "abort cancels every timer" `Quick
            test_abort_cancels_every_timer;
          Alcotest.test_case "keepalive detects restart" `Quick
            test_keepalive_detects_restart;
          Alcotest.test_case "keepalive peer silent" `Quick
            test_keepalive_peer_silent;
          Alcotest.test_case "keepalive peer alive" `Quick
            test_keepalive_peer_alive_keeps_running;
          Alcotest.test_case "FIN behind queued stream TSDUs" `Quick
            test_fin_with_queued_stream_tsdus;
          Alcotest.test_case "FIN/RST crossing in flight" `Quick
            test_fin_rst_crossing;
          Alcotest.test_case "reset_for shapes" `Quick test_reset_for_shapes ] );
      ( "models",
        [ qc prop_reasm_model; qc prop_scoreboard_model; qc prop_cc_model;
          qc prop_cc_ack_division ] ) ]
