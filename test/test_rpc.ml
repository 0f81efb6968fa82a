(* RPC messages and the file-transfer client/server over the full stack. *)

open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
module World = Ilp_app.World
module Datagram = Ilp_netsim.Datagram
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module Stub_ilp = Ilp_codec.Stub_ilp
open Ilp_rpc

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Message formats *)

(* A body with its XDR padding, as the stubs marshal a trailing opaque. *)
let xdr_padded body =
  body ^ String.make (Ilp_codec.Xdr.padding (String.length body)) '\000'

(* The server's control decoder over a whole body string. *)
let decode_ctrl body =
  Messages.decode_ctrl_bytes (Bytes.of_string body) ~off:0 ~len:(String.length body)

(* One body ([Stub_ilp.segment]s) through an engine: staged, filled
   onto a wire area, received through the engine's own rx handler and
   handed over by [read_plaintext]; [f] sees the span before the buffer
   goes back to the pool. *)
let engine_key = "codecKY!"

(* A laid-out stub's segments, copied out of its scratch. *)
let laid stub = Array.sub (Stub_ilp.segments stub) 0 (Stub_ilp.count stub)

(* A header for [decode_reply_view] to fill. *)
let blank_header () =
  { Messages.status = Messages.Not_found; copy = -1; file_offset = -1; total_len = -1;
    data_len = -1 }

let through_engine ?(mode = Engine.Ilp) ?(header_style = Engine.Leading)
    ?(crc32 = false) ?(native = false) body f =
  let sim = Sim.create (Config.custom ()) in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key:engine_key () in
  let backend =
    if native then
      Engine.Native
        (Ilp_fastpath.Cipher.Safer_simplified
           (Ilp_cipher.Safer_simplified.expand_key engine_key))
    else Engine.Simulated
  in
  let eng = Engine.create sim ~cipher ~mode ~header_style ~crc32 ~backend () in
  let ps = Engine.prepare_stream_segments eng body ~n:(Array.length body) in
  let len = ps.Engine.stream_len in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 len in
  ignore (ps.Engine.fill_range sim.Sim.mem ~dst:wire ~off:0 ~len);
  let rx_ok = function Ok _ -> () | Error e -> Alcotest.fail e in
  (match Engine.rx_processing eng with
  | Socket.Rx_integrated rx -> rx_ok (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len)
  | Socket.Rx_separate rx -> rx_ok (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len));
  match Engine.read_plaintext eng ~len with
  | Error e -> Alcotest.fail e
  | Ok { Engine.buf; off; len = blen } ->
      let r = f buf ~off ~len:blen in
      Engine.release_plaintext eng buf;
      Engine.destroy eng;
      r

let test_request_roundtrip () =
  let req =
    Messages.request ~file_name:"paper.dat" ~copies:3 ~max_reply:1024 ()
  in
  match Messages.decode_request (Messages.encode_request req) with
  | Ok got ->
      check_s "name" req.Messages.file_name got.Messages.file_name;
      check "copies" 3 got.Messages.copies;
      check "max reply" 1024 got.Messages.max_reply
  | Error e -> Alcotest.fail e

(* The trailer layout is the engine's alone: a request sent through a
   trailer-style engine reads back from the span it hands over. *)
let test_request_roundtrip_trailer () =
  let req = Messages.request ~file_name:"f" ~copies:1 ~max_reply:64 () in
  through_engine ~header_style:Engine.Trailer (laid (Messages.request_segments req))
    (fun buf ~off ~len ->
      (match Messages.decode_request (Bytes.sub_string buf off len) with
      | Ok got -> checkb "string decoder" true (got = req)
      | Error e -> Alcotest.fail e);
      match Messages.decode_ctrl_bytes buf ~off ~len with
      | Ok (Messages.Request got, 0) -> checkb "in-place decoder" true (got = req)
      | Ok _ -> Alcotest.fail "request dispatched as another form"
      | Error e -> Alcotest.fail e)

let test_reply_roundtrip () =
  let hdr =
    { Messages.status = Messages.Ok; copy = 2; file_offset = 4096; total_len = 15360;
      data_len = 7 }
  in
  match Messages.decode_reply (xdr_padded (Messages.reply_prefix hdr ^ "payload")) with
  | Ok (got, data) ->
      checkb "header" true (got = hdr);
      check_s "data" "payload" data
  | Error e -> Alcotest.fail e

let test_reply_error_status () =
  let hdr =
    { Messages.status = Messages.Not_found; copy = 0; file_offset = 0; total_len = 0;
      data_len = 0 }
  in
  match Messages.decode_reply (Messages.reply_prefix hdr) with
  | Ok (got, data) ->
      checkb "status" true (got.Messages.status = Messages.Not_found);
      check_s "no data" "" data
  | Error e -> Alcotest.fail e

let test_decode_garbage () =
  (match Messages.decode_request "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  (match Messages.decode_request (String.make 16 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Messages.decode_reply "\x00\x00\x00\x09garbage." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad reply accepted");
  (* A span outside the buffer is an error, not an out-of-bounds read. *)
  let buf = Bytes.make 16 '\000' in
  List.iter
    (fun (off, len) ->
      checkb
        (Printf.sprintf "span %d+%d rejected" off len)
        true
        (Result.is_error (Messages.decode_ctrl_bytes buf ~off ~len)
        && Result.is_error
             (Messages.decode_reply_view (Messages.View.create ()) (blank_header ()) buf
                ~off ~len)))
    [ (-4, 8); (12, 8); (0, 17); (4, -1) ]

(* A reply whose opaque length runs past the body must be rejected even
   where the bytes behind the body would satisfy it: the engine's CRC32
   trailer word, or the alignment zeros standing in for missing XDR
   padding. *)
let test_reply_opaque_bounded_by_body () =
  let hdr data_len =
    { Messages.status = Messages.Ok; copy = 0; file_offset = 0; total_len = 64;
      data_len }
  in
  let reject what ~crc32 body ~expected =
    through_engine ~crc32 [| Stub_ilp.Gen body |] (fun buf ~off ~len ->
        check (what ^ ": the span is the body") (String.length body) len;
        let h = blank_header () in
        (match Messages.decode_reply_view (Messages.View.create ()) h buf ~off ~len with
        | Ok () ->
            Alcotest.failf "%s: decoded with data_len %d" what h.Messages.data_len
        | Error e -> check_s (what ^ ": view error") expected e);
        match Messages.decode_reply body with
        | Ok _ -> Alcotest.failf "%s: the string decoder accepts it" what
        | Error e -> check_s (what ^ ": string decoder error") expected e)
  in
  (* 12 data bytes claimed over an 8-byte payload: the last 4 would be
     the CRC32 trailer. *)
  reject "into the CRC32 trailer" ~crc32:true
    (Messages.reply_prefix (hdr 12) ^ "8 bytes!")
    ~expected:"truncated XDR input: need 12 bytes at 20, have 8";
  (* 7 data bytes without their padding byte: the alignment zero would
     stand in for it. *)
  reject "into the alignment" ~crc32:false
    (Messages.reply_prefix (hdr 7) ^ "7 bytes")
    ~expected:"truncated XDR input: need 8 bytes at 20, have 7"

let test_probe_roundtrip () =
  let probe =
    { Messages.p_file_name = "paper.dat"; p_offset = 1536; p_crc = 0xCAFE42;
      p_req_id = 77 }
  in
  match decode_ctrl (Messages.encode_probe probe) with
  | Ok (Messages.Probe got, _) -> checkb "probe fields survive" true (got = probe)
  | Ok (Messages.Request _, _) -> Alcotest.fail "probe dispatched as request"
  | Error e -> Alcotest.fail e

let test_request_v2_roundtrip () =
  let req =
    Messages.request ~req_id:42 ~start_copy:1 ~start_offset:2048
      ~file_name:"paper.dat" ~copies:3 ~max_reply:512 ()
  in
  checkb "fault-model fields force the v2 form" false (Messages.request_is_v1 req);
  match decode_ctrl (Messages.encode_request req) with
  | Ok (Messages.Request got, _) ->
      checkb "resume fields survive" true (got = req)
  | Ok (Messages.Probe _, _) -> Alcotest.fail "request dispatched as probe"
  | Error e -> Alcotest.fail e

let test_request_v1_wire_unchanged () =
  (* Zero fault-model fields must marshal in the original three-field
     form: the pre-fault-model fixed layout (XDR string + 2 words), so
     clean traces stay byte-identical. *)
  let req = Messages.request ~file_name:"paper.dat" ~copies:2 ~max_reply:512 () in
  checkb "id-less request is v1" true (Messages.request_is_v1 req);
  let enc = Messages.encode_request req in
  (* "paper.dat" as XDR: 4 (length) + 9 + 3 (pad) = 16; plus copies and
     max_reply words. *)
  check "exactly the three-field layout" 24 (String.length enc);
  let v2 =
    Messages.encode_request
      (Messages.request ~req_id:1 ~file_name:"paper.dat" ~copies:2
         ~max_reply:512 ())
  in
  check "v2 carries three more words" (24 + 12) (String.length v2);
  match decode_ctrl enc with
  | Ok (Messages.Request got, _) ->
      checkb "ctrl dispatch recovers the v1 request" true (got = req)
  | Ok (Messages.Probe _, _) -> Alcotest.fail "v1 request dispatched as probe"
  | Error e -> Alcotest.fail e

let u32be n = String.init 4 (fun i -> Char.chr ((n lsr ((3 - i) * 8)) land 0xff))

let test_flagged_ctrl_dispatch () =
  (* The capability flag word rides as one extra trailing integer: 4
     words dispatch as a flagged probe, 6 as a flagged request, and the
     decoder surfaces the flags next to the recovered ctrl. *)
  let req =
    Messages.request ~req_id:7 ~file_name:"paper.dat" ~copies:2 ~max_reply:512 ()
  in
  let flagged = Messages.encode_request req ^ u32be Messages.flag_rx_framing in
  (match decode_ctrl flagged with
  | Ok (Messages.Request got, flags) ->
      checkb "request fields survive the flag word" true (got = req);
      checkb "rx-framing flag surfaced" true
        (flags land Messages.flag_rx_framing <> 0)
  | Ok (Messages.Probe _, _) -> Alcotest.fail "flagged request dispatched as probe"
  | Error e -> Alcotest.fail e);
  (match decode_ctrl (Messages.encode_request req) with
  | Ok (Messages.Request _, flags) -> check "unflagged request: flags 0" 0 flags
  | Ok (Messages.Probe _, _) -> Alcotest.fail "v2 request dispatched as probe"
  | Error e -> Alcotest.fail e);
  let probe =
    { Messages.p_file_name = "paper.dat"; p_offset = 128; p_crc = 0xBEEF; p_req_id = 3 }
  in
  let flagged_p = Messages.encode_probe probe ^ u32be Messages.flag_rx_framing in
  (match decode_ctrl flagged_p with
  | Ok (Messages.Probe got, flags) ->
      checkb "probe fields survive the flag word" true (got = probe);
      checkb "probe carries the flag too" true
        (flags land Messages.flag_rx_framing <> 0)
  | Ok (Messages.Request _, _) -> Alcotest.fail "flagged request dispatched as request"
  | Error e -> Alcotest.fail e);
  match decode_ctrl (Messages.encode_probe probe) with
  | Ok (Messages.Probe _, flags) -> check "unflagged probe: flags 0" 0 flags
  | Ok (Messages.Request _, _) -> Alcotest.fail "probe dispatched as request"
  | Error e -> Alcotest.fail e

(* Every control form, marshalled by the ILP stubs and sent through a
   CRC32 engine in both header styles, both modes and both backends,
   comes back field for field, flags included: the engine strips the
   trailer word, so the word-count dispatch never sees it. *)
let test_ctrl_forms_through_crc_engine () =
  let v1 = Messages.request ~file_name:"paper.dat" ~copies:2 ~max_reply:512 () in
  let v2 =
    Messages.request ~req_id:9 ~start_copy:1 ~start_offset:1024
      ~file_name:"paper.dat" ~copies:4 ~max_reply:256 ()
  in
  let probe =
    { Messages.p_file_name = "f.dat"; p_offset = 64; p_crc = 0xCAFE; p_req_id = 2 }
  in
  let framing = Messages.flag_rx_framing in
  let forms =
    [ ("v1 request", laid (Messages.request_segments v1), Messages.Request v1, 0);
      ("v2 request", laid (Messages.request_segments v2), Messages.Request v2, 0);
      ( "flagged request",
        laid (Messages.request_segments ~flags:framing v2),
        Messages.Request v2,
        framing );
      ("probe", laid (Messages.probe_segments probe), Messages.Probe probe, 0);
      ( "flagged probe",
        laid (Messages.probe_segments ~flags:framing probe),
        Messages.Probe probe,
        framing ) ]
  in
  List.iter
    (fun (mode, header_style, native) ->
      List.iter
        (fun (what, segs, expected, expected_flags) ->
          let name =
            Printf.sprintf "%s (%s, %s, %s)" what
              (match mode with Engine.Ilp -> "ilp" | Engine.Separate -> "separate")
              (match header_style with
              | Engine.Leading -> "leading"
              | Engine.Trailer -> "trailer")
              (if native then "native" else "simulated")
          in
          through_engine ~mode ~header_style ~crc32:true ~native segs
            (fun buf ~off ~len ->
              match Messages.decode_ctrl_bytes buf ~off ~len with
              | Ok (got, flags) ->
                  checkb (name ^ ": fields") true (got = expected);
                  check (name ^ ": flags") expected_flags flags
              | Error e -> Alcotest.failf "%s: %s" name e))
        forms)
    (List.concat_map
       (fun mode ->
         List.concat_map
           (fun style -> [ (mode, style, false); (mode, style, true) ])
           [ Engine.Leading; Engine.Trailer ])
       [ Engine.Ilp; Engine.Separate ])

let test_flagged_v1_promotes_to_v2 () =
  (* There is no flagged v1 form — it would collide with the 3-word probe
     — so a flagged marshal of an id-less request must carry the full v2
     field set. *)
  let v1 = Messages.request ~file_name:"paper.dat" ~copies:2 ~max_reply:512 () in
  let v2 =
    Messages.request ~req_id:1 ~file_name:"paper.dat" ~copies:2 ~max_reply:512 ()
  in
  checkb "id-less request is v1" true (Messages.request_is_v1 v1);
  let seg_bytes = Stub_ilp.total_len in
  check "flagged v1 marshals as many bytes as flagged v2"
    (seg_bytes (Messages.request_segments ~flags:Messages.flag_rx_framing v2))
    (seg_bytes (Messages.request_segments ~flags:Messages.flag_rx_framing v1));
  check "unflagged v1 keeps the short form"
    (seg_bytes (Messages.request_segments v2) - 12)
    (seg_bytes (Messages.request_segments v1))

let prop_request_roundtrip =
  QCheck.Test.make ~count:150 ~name:"request encode/decode round trip"
    QCheck.(
      triple
        (string_of_size Gen.(int_bound 30))
        (int_range 0 100) (int_range 0 100_000))
    (fun (file_name, copies, max_reply) ->
      let req = Messages.request ~file_name ~copies ~max_reply () in
      match Messages.decode_request (Messages.encode_request req) with
      | Ok got -> got = req
      | Error _ -> false)

(* The in-place (view) decoders must agree with the copying decoders on
   every input — valid and corrupted — wherever the body sits in a pooled
   buffer: at an offset behind other bytes, with junk capacity after it
   (the buffer's capacity is its size class, so [len] does the
   limiting). *)

(* Place [body] at [off] in a buffer of [off + len + junk] bytes filled
   with junk elsewhere. *)
let pooled_view_of body ~off ~junk =
  let len = String.length body in
  let buf = Bytes.make (off + len + junk) '\xe7' in
  Bytes.blit_string body 0 buf off len;
  (buf, off, len)

let flip body pos =
  if String.length body = 0 then body
  else
    let pos = pos mod String.length body in
    String.mapi
      (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x5b) else c)
      body

(* The server's in-place control decoder against the string decoder on
   encoded v1 requests: a clean one reads back field for field, and a
   corrupted one the server still takes for a v1 request reads the same
   under both.  The control decoder is stricter (it dispatches on the
   trailing word count), so a corrupted encoding may fail or take
   another shape there alone. *)
let prop_ctrl_decoder_reads_v1_requests =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"decode_ctrl_bytes = decode_request on v1 requests"
    QCheck.(
      quad
        (string_of_size Gen.(int_bound 30))
        (int_range 0 100) small_nat (pair bool (int_bound 40)))
    (fun (file_name, copies, corrupt_at, (corrupt, at)) ->
      let req = Messages.request ~file_name ~copies ~max_reply:4096 () in
      let body = Messages.encode_request req in
      let body = if corrupt then flip body corrupt_at else body in
      let buf, off, len = pooled_view_of body ~off:at ~junk:(corrupt_at land 31) in
      match
        (Messages.decode_ctrl_bytes buf ~off ~len, Messages.decode_request body)
      with
      | Ok (Messages.Request r, 0), Ok r' -> r = r' && (corrupt || r = req)
      | Ok (Messages.Request _, 0), Error _ -> false
      | (Ok _ | Error _), _ -> corrupt)

let prop_reply_view_equals_copy =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"decode_reply_view = decode_reply"
    QCheck.(
      quad
        (string_of_size Gen.(int_bound 60))
        small_nat small_nat (pair bool (int_bound 40)))
    (fun (payload, file_off, corrupt_at, (corrupt, at)) ->
      let hdr =
        { Messages.status = Messages.Ok; copy = 1; file_offset = file_off * 8;
          total_len = String.length payload + (file_off * 8);
          data_len = String.length payload }
      in
      let body = xdr_padded (Messages.reply_prefix hdr ^ payload) in
      let body = if corrupt then flip body corrupt_at else body in
      let buf, off, len = pooled_view_of body ~off:at ~junk:(corrupt_at land 31) in
      let copy = Messages.decode_reply body in
      let v = Messages.View.create () and hb = blank_header () in
      match (copy, Messages.decode_reply_view v hb buf ~off ~len) with
      | Ok (ha, data), Ok () ->
          let data_off = Messages.View.opaque_off v in
          ha = hb
          && (corrupt || ha = hdr)
          && data_off >= off
          && data_off + ha.Messages.data_len <= off + len
          && data = Bytes.sub_string buf data_off ha.Messages.data_len
      | Error a, Error b -> a = b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Client/server over the full stack *)

type world = {
  world : World.t;
  clock : Simclock.t;
  srv_engine : Engine.t;
  server : Server.t;
  client : Client.t;
  srv_ctrl : Socket.t;
  srv_data : Socket.t;
  cli_ctrl : Socket.t;
  cli_data : Socket.t;
  file : string;
  file_addr : int;
}

let key = "rpcTESTk"
let sock_cfg = { Socket.default_config with mss = 2048 }

let engine ?(mode = Engine.Ilp) world =
  World.engine world (fun sim ~pool ->
      Engine.create sim ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
        ~mode ~pool ())

(* [drop] swallows a datagram before it reaches the wire; [mangle n]
   rewrites the payload of the nth datagram that does.  Both run as the
   link's tamper hook, which passes an untouched datagram as itself. *)
let lossy_world ?(loss_rate = 0.0) ?(mangle = fun _ s -> s)
    ?(drop = fun (_ : Datagram.t) -> false) () =
  let count = ref 0 in
  let tamper d =
    if drop d then []
    else begin
      incr count;
      let payload = mangle !count d.Datagram.payload in
      if payload == d.Datagram.payload then [ d ]
      else
        [ Datagram.create ~src_port:d.Datagram.src_port
            ~dst_port:d.Datagram.dst_port ~payload ]
    end
  in
  World.create Config.ss10_30 ~link:(fun clock ~deliver ->
      Link.create clock ~delay_us:50.0 ~loss_rate ~seed:7 ~tamper ~deliver ())

let make_world ?mode ?loss_rate ?(file_len = 4096)
    ?(limits = Server.default_limits) ?mangle ?(idempotent = false) ?drop () =
  let world = lossy_world ?loss_rate ?mangle ?drop () in
  let clock = World.clock world in
  let srv_engine = engine ?mode world in
  let cli_engine = engine ?mode world in
  let server = Server.create ~clock ~engine:srv_engine ~limits () in
  let c = World.connect world server sock_cfg ~base:10 in
  let client =
    Client.create ~clock ~engine:cli_engine ~idempotent ~ctrl:c.World.cli_ctrl
      ~data:c.World.cli_data ()
  in
  let file = Ilp_app.Workload.generate ~len:file_len ~seed:3 in
  let addr = Ilp_app.Workload.install (World.sim world) file in
  Server.add_file server ~name:"test.bin" ~addr ~len:file_len;
  Simclock.run_until_idle clock;
  { world; clock; srv_engine; server; client; srv_ctrl = c.World.srv_ctrl;
    srv_data = c.World.srv_data; cli_ctrl = c.World.cli_ctrl;
    cli_data = c.World.cli_data; file; file_addr = addr }

let pump w =
  let guard = ref 50_000 in
  while
    (not (Client.transfer_complete w.client))
    && (not (Client.rejected w.client))
    && Client.errors w.client = []
    && !guard > 0
  do
    decr guard;
    Simclock.advance w.clock 2_000.0
  done;
  Simclock.run_until_idle w.clock

let test_transfer_ilp () =
  let w = make_world ~mode:Engine.Ilp () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:2 ~max_reply:1000
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete" true (Client.transfer_complete w.client);
  check "bytes" (2 * String.length w.file) (Client.bytes_received w.client);
  check "requests seen" 1 (Server.requests_received w.server);
  check "no pending replies" 0 (Server.pending_replies w.server)

let test_transfer_separate () =
  let w = make_world ~mode:Engine.Separate () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete" true (Client.transfer_complete w.client)

let test_transfer_under_loss () =
  let w = make_world ~mode:Engine.Ilp ~loss_rate:0.1 () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:2 ~max_reply:700
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete despite loss" true (Client.transfer_complete w.client)

let test_missing_file_rejected () =
  let w = make_world () in
  (match
     Client.request_file w.client ~name:"nope.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  checkb "rejected" true (Client.rejected w.client);
  checkb "not complete" false (Client.transfer_complete w.client)

let test_odd_sized_tail_segment () =
  (* A file that does not divide evenly by max_reply exercises the short
     final segment (and the alignment machinery). *)
  let w = make_world ~file_len:1000 () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:333
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete" true (Client.transfer_complete w.client);
  check "segments" 4 (Client.replies_received w.client)

(* The in-place payload check runs once per reply: it must compare spans
   at any offsets, never read out of bounds, and allocate nothing. *)
let test_slice_matches () =
  let expected = "0123456789abcdefghij" and data = "xx456789abYY" in
  let matches ~off ~doff ~len = Client.slice_matches expected ~off data ~doff ~len in
  checkb "equal spans at nonzero offsets" true (matches ~off:4 ~doff:2 ~len:8);
  checkb "last byte differs" false (matches ~off:4 ~doff:2 ~len:9);
  checkb "first byte differs" false (matches ~off:3 ~doff:2 ~len:8);
  checkb "empty spans at the ends match" true (matches ~off:20 ~doff:12 ~len:0);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s must raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "a comparison past the end" (fun () ->
      Client.slice_matches data ~off:0 data ~doff:0 ~len:13);
  (* Bounds come first: the first bytes differ, and it still raises. *)
  raises "a mismatch inside a span past the end" (fun () ->
      matches ~off:3 ~doff:2 ~len:11);
  raises "a negative length" (fun () -> matches ~off:0 ~doff:0 ~len:(-1));
  let n = 10_000 and hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Client.slice_matches expected ~off:4 data ~doff:2 ~len:8 then incr hits
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  check "every call matched" n !hits;
  checkb
    (Printf.sprintf "slice_matches allocates (%.4f words/call)" per_call)
    true (per_call <= 0.01)

(* [data] holds [expected]'s span [off, off + len) at [doff], between
   random bytes; a planted byte of it differs. *)
type slice_case = { expected : string; data : string; off : int; doff : int; len : int }

let print_slice_case c =
  Printf.sprintf "expected=%S data=%S off=%d doff=%d len=%d" c.expected c.data c.off
    c.doff c.len

let gen_slice_case =
  QCheck.Gen.(
    let* expected = string_size (int_bound 64) in
    let* off = int_bound (String.length expected) in
    let* len = int_bound (String.length expected - off) in
    let* pre = string_size (int_bound 9) in
    let* post = string_size (int_bound 9) in
    (* Plant a differing byte nowhere, in the 8-byte words or in the
       tail (where the span has one). *)
    let words = len land lnot 7 in
    let* plant =
      oneof
        [ return (-1);
          (if words > 0 then int_bound (words - 1) else return (-1));
          (if len > words then int_range words (len - 1) else return (-1)) ]
    in
    (* One case in three moves the spans, often past an end. *)
    let* skew = oneof [ return 0; return 0; int_range 1 3 ] in
    let* d = int_range (-2) 2 in
    let span =
      String.mapi
        (fun i ch -> if i = plant then Char.chr (Char.code ch lxor 0x5a) else ch)
        (String.sub expected off len)
    in
    let off, doff, len =
      match skew with
      | 1 -> (off + d, String.length pre, len)
      | 2 -> (off, String.length pre + d, len)
      | 3 -> (off, String.length pre, len + d)
      | _ -> (off, String.length pre, len)
    in
    return { expected; data = pre ^ span ^ post; off; doff; len })

(* The word-wise check against [String.sub]: the same answer on every
   pair of spans, and [Invalid_argument] exactly where [String.sub]
   raises. *)
let prop_slice_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"slice_matches = String.sub reference"
    (QCheck.make ~print:print_slice_case gen_slice_case)
    (fun c ->
      let answer f = match f () with b -> Some b | exception Invalid_argument _ -> None in
      answer (fun () ->
          Client.slice_matches c.expected ~off:c.off c.data ~doff:c.doff ~len:c.len)
      = answer (fun () ->
            String.equal (String.sub c.expected c.off c.len) (String.sub c.data c.doff c.len)))

let test_max_reply_capped_at_engine () =
  (* [max_reply] is the client's word, read off the wire: past what the
     server's engine can carry in one message (2048 bytes: a 4-byte
     length field and a 20-byte reply header leave 2024 data bytes) it
     must shrink to that capacity, not crash the server. *)
  let w = make_world ~file_len:4096 () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:4096
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete" true (Client.transfer_complete w.client);
  check "replies of at most 2024 data bytes" 3 (Client.replies_received w.client)

(* ------------------------------------------------------------------ *)
(* Adversarial wire: typed aborts, reconnection, mode equivalence *)

(* Like [pump] but also stops on a typed failure (the abort tests would
   otherwise spin out their whole guard budget). *)
let pump_settle w =
  let guard = ref 50_000 in
  while
    (not (Client.transfer_complete w.client))
    && (not (Client.rejected w.client))
    && Client.failure w.client = None
    && !guard > 0
  do
    decr guard;
    Simclock.advance w.clock 2_000.0
  done;
  Simclock.run_until_idle w.clock

(* A wire that destroys every datagram's IP header once [on] is set: the
   kernel drops each one, so the sender retransmits into the void. *)
let blackhole_mangle on _ s =
  if !on && String.length s > 0 then begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    Bytes.to_string b
  end
  else s

let test_abort_surfaces_to_client () =
  let on = ref false in
  let w = make_world ~mangle:(blackhole_mangle on) () in
  on := true;
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump_settle w;
  checkb "typed abort reaches the client" true
    (Client.failure w.client = Some (Client.Aborted Socket.Retry_exhausted));
  checkb "not complete" false (Client.transfer_complete w.client)

let test_reconnect_resumes () =
  let on = ref false in
  let w = make_world ~mangle:(blackhole_mangle on) () in
  on := true;
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump_settle w;
  checkb "aborted first" true (Client.failure w.client <> None);
  (* The wire heals; hand the client a freshly connected socket pair (and
     stand the server up again on new ports). *)
  on := false;
  let server2 = Server.create ~clock:w.clock ~engine:w.srv_engine () in
  let c = World.connect w.world server2 sock_cfg ~base:20 in
  Server.add_file server2 ~name:"test.bin" ~addr:w.file_addr
    ~len:(String.length w.file);
  Simclock.run_until_idle w.clock;
  (match Client.reconnect w.client ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data with
  | Ok _summary -> ()
  | Error _ -> Alcotest.fail "reconnect refused");
  pump_settle w;
  checkb "no failure after resume" true (Client.failure w.client = None);
  checkb "complete after resume" true (Client.transfer_complete w.client);
  check "one reconnect" 1 (Client.reconnects w.client);
  check "bytes" (String.length w.file) (Client.bytes_received w.client)

(* ---------------------------------------------------------------- *)
(* Node crash/restart: dedup replay and mid-copy resume *)

(* Kill the original server host: instance state gone (shutdown), NIC
   gone (sockets destroyed) — and prove the teardown left no timers. *)
let crash_server w =
  Server.shutdown w.server;
  check "server drain timers cancelled" 0
    (Simclock.pending_count w.clock ~owner:(Server.timer_owner w.server));
  Socket.destroy w.srv_ctrl;
  Socket.destroy w.srv_data;
  List.iter
    (fun s ->
      check "destroyed socket holds no timers" 0
        (Simclock.pending_count w.clock ~owner:(Socket.timer_owner s)))
    [ w.srv_ctrl; w.srv_data ]

(* Stand the server up again — a fresh instance over [store] — on four
   fresh ports; hand back the new instance and the client-side pair. *)
let restart_generation ?limits w ~store ~base =
  let server2 = Server.create ~clock:w.clock ~engine:w.srv_engine ?limits ~store () in
  let c = World.connect w.world server2 sock_cfg ~base in
  Server.add_file server2 ~name:"test.bin" ~addr:w.file_addr
    ~len:(String.length w.file);
  Simclock.run_until_idle w.clock;
  (server2, c.World.cli_ctrl, c.World.cli_data)

let test_dedup_replay_served_from_cache () =
  (* The doomed instance executes a request whose replies never reach the
     client; after the crash the client re-issues it under the SAME
     idempotency id, and the restarted instance answers from the dedup
     cache instead of re-executing — then the client finishes under a
     fresh id. *)
  let dead = ref false in
  let drop d =
    !dead && (d.Datagram.src_port = 10 || d.Datagram.src_port = 12)
  in
  let w = make_world ~idempotent:true ~file_len:1024 ~drop () in
  dead := true;
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  pump_settle w;
  checkb "client aborted into the void" true
    (Client.failure w.client = Some (Client.Aborted Socket.Retry_exhausted));
  check "nothing received" 0 (Client.bytes_received w.client);
  let store = Server.store w.server in
  check "the lost instance executed it" 1 (Server.executions store);
  crash_server w;
  Socket.destroy w.cli_ctrl;
  Socket.destroy w.cli_data;
  dead := false;
  let server2, cli_ctrl, cli_data = restart_generation w ~store ~base:20 in
  (match Client.reconnect w.client ~ctrl:cli_ctrl ~data:cli_data with
  | Ok s ->
      checkb "same-id re-issue, not a resume" true
        (s.Client.resumed_from = None);
      check "no bytes to keep" 0 s.Client.bytes_verified
  | Error _ -> Alcotest.fail "reconnect refused");
  pump_settle w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete after the dedup replay" true
    (Client.transfer_complete w.client);
  check "bytes" (String.length w.file) (Client.bytes_received w.client);
  check "replay answered from the cache" 1 (Server.dedup_hits store);
  check "executed twice, never under one id" 2 (Server.executions store);
  check "three id-carrying requests seen" 3 (Server.id_requests_seen store);
  check "conservation law" (Server.id_requests_seen store)
    (Server.executions store + Server.dedup_hits store
    + Server.dedup_sheds store);
  check "the fresh-id re-issue counted as a resume" 1 (Client.resumes w.client);
  check "no probe: nothing to verify" 0 (Server.probes_received server2);
  Simclock.run_until_idle w.clock;
  check "client retry timer owner clean" 0
    (Simclock.pending_count w.clock ~owner:(Client.timer_owner w.client))

(* Request the file (one copy, 512-byte replies), let at least [keep]
   bytes arrive, then kill the server host: the client, a pure receiver,
   notices only through its keepalive, and every socket of the
   generation is destroyed.  Returns the verified prefix the client
   kept. *)
let crash_mid_copy w ~dead ~keep =
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused");
  let guard = ref 10_000 in
  while Client.bytes_received w.client < keep && !guard > 0 do
    decr guard;
    Simclock.advance w.clock 100.0
  done;
  let kept = Client.bytes_received w.client in
  checkb "a partial mid-copy prefix exists" true
    (kept >= keep && kept < String.length w.file);
  dead := true;
  Socket.start_keepalive w.cli_data ~interval_us:10_000.0 ~probes:2
    ~on_result:(fun _ -> ()) ();
  let guard = ref 10_000 in
  while Client.failure w.client = None && !guard > 0 do
    decr guard;
    Simclock.advance w.clock 2_000.0
  done;
  checkb "keepalive surfaced the dead peer" true
    (Client.failure w.client <> None);
  Socket.stop_keepalive w.cli_data;
  check "prefix survives the abort" kept (Client.bytes_received w.client);
  crash_server w;
  Socket.destroy w.cli_ctrl;
  Socket.destroy w.cli_data;
  List.iter
    (fun s ->
      check "old client sockets hold no timers" 0
        (Simclock.pending_count w.clock ~owner:(Socket.timer_owner s)))
    [ w.cli_ctrl; w.cli_data ];
  dead := false;
  kept

let test_resume_mid_copy_verifies_prefix () =
  (* A crash mid-copy: the client keeps its verified prefix, CRC-probes
     the restarted server, and resumes at the verified offset — never
     from byte zero. *)
  let dead = ref false in
  let drop _ = !dead in
  let w = make_world ~idempotent:true ~file_len:8192 ~drop () in
  let kept = crash_mid_copy w ~dead ~keep:2048 in
  let store = Server.store w.server in
  let server2, cli_ctrl, cli_data = restart_generation w ~store ~base:20 in
  (match Client.reconnect w.client ~ctrl:cli_ctrl ~data:cli_data with
  | Ok s ->
      checkb "resumes at the verified prefix, not byte zero" true
        (s.Client.resumed_from = Some (0, kept));
      check "every received byte kept" kept s.Client.bytes_verified
  | Error _ -> Alcotest.fail "reconnect refused");
  pump_settle w;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete after the resume" true (Client.transfer_complete w.client);
  check "byte-exact overall" (String.length w.file)
    (Client.bytes_received w.client);
  check "the restarted server answered one CRC probe" 1
    (Server.probes_received server2);
  check "one resume request sent" 1 (Client.resumes w.client);
  check "one reconnect" 1 (Client.reconnects w.client);
  Simclock.run_until_idle w.clock;
  check "client retry timer owner clean" 0
    (Simclock.pending_count w.clock ~owner:(Client.timer_owner w.client))

(* Overload during a resume: the restarted server's queue budget is
   full of another client's request when the resume arrives, so the
   resume is shed Busy.  Each retry asks for the resume again, from the
   verified prefix: the prefix never shrinks, and the server sends the
   rest of the file once, not the whole of it. *)
let test_busy_on_resume_keeps_prefix () =
  let dead = ref false in
  let drop _ = !dead in
  let w = make_world ~idempotent:true ~file_len:8192 ~drop () in
  let len = String.length w.file in
  let kept = crash_mid_copy w ~dead ~keep:3584 in
  let budget = 2 * len in
  let limits =
    { Server.default_limits with
      max_conn_queue_bytes = budget;
      max_total_queue_bytes = budget }
  in
  let server2, cli_ctrl, cli_data =
    restart_generation ~limits w ~store:(Server.store w.server) ~base:20
  in
  (* The hog: two copies take the whole budget, and drain slowly through
     1024-byte socket buffers. *)
  let small = { sock_cfg with send_buffer = 1024; recv_window = 1024 } in
  let c = World.connect w.world server2 small ~base:30 in
  let hog =
    Client.create ~clock:w.clock ~engine:(engine w.world) ~seed:2
      ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data ()
  in
  Simclock.run_until_idle w.clock;
  (match
     Client.request_file hog ~name:"test.bin" ~copies:2 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "hog request refused");
  (match Client.reconnect w.client ~ctrl:cli_ctrl ~data:cli_data with
  | Ok s ->
      checkb "probes at the verified prefix" true
        (s.Client.resumed_from = Some (0, kept))
  | Error _ -> Alcotest.fail "reconnect refused");
  let settled c =
    Client.transfer_complete c || Client.rejected c || Client.failure c <> None
  in
  let low = ref kept and guard = ref 50_000 in
  while (not (settled w.client && settled hog)) && !guard > 0 do
    decr guard;
    Simclock.advance w.clock 100.0;
    low := Int.min !low (Client.bytes_received w.client)
  done;
  Simclock.run_until_idle w.clock;
  let busy = Client.busy_replies w.client in
  checkb "the resume was shed Busy" true (busy > 0);
  check "the verified prefix never shrank" kept !low;
  Alcotest.(check (list string)) "no errors" [] (Client.errors w.client);
  checkb "complete after the shed resume" true (Client.transfer_complete w.client);
  check "byte-exact overall" len (Client.bytes_received w.client);
  checkb "the hog completes too" true (Client.transfer_complete hog);
  check "one resume per shed, plus the one served" (busy + 1) (Client.resumes w.client);
  (* The hog's 32 replies, the probe's verdict, one Busy per shed and
     the replies from the prefix on: a resume's count, not a refetch's. *)
  check "replies of a resume" (32 + 1 + busy + ((len - kept + 511) / 512))
    (Server.replies_sent server2);
  check "client retry timer owner clean" 0
    (Simclock.pending_count w.clock ~owner:(Client.timer_owner w.client))

(* The receive-path equivalence property: for any corruption pattern, the
   separate (checksum pass then handler) and integrated (fused
   handler-with-checksum) receive paths must make the same accept/reject
   decision — same final outcome, byte count and typed failure. *)
let rx_outcome ~mode ~salt ~positions =
  let mangle n s =
    if List.mem n positions && String.length s > 30 then begin
      let b = Bytes.of_string s in
      let i = 28 + (salt mod (String.length s - 28)) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (salt land 0x7f))));
      Bytes.to_string b
    end
    else s
  in
  let w = make_world ~mode ~file_len:1024 ~mangle () in
  let req =
    Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:400
      ~expected:w.file
  in
  pump_settle w;
  ( Result.is_ok req,
    Client.transfer_complete w.client,
    Client.rejected w.client,
    Client.bytes_received w.client,
    Option.map Client.failure_to_string (Client.failure w.client) )

let prop_rx_modes_equivalent_under_corruption =
  QCheck.Test.make ~count:20
    ~name:"ILP and separate rx accept/reject corrupted segments identically"
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size Gen.(int_range 0 6) (int_range 8 60)))
    (fun (salt, positions) ->
      rx_outcome ~mode:Engine.Separate ~salt ~positions
      = rx_outcome ~mode:Engine.Ilp ~salt ~positions)

(* Datagram 15 of this run is a pure ack whose ack number is corrupted in
   flight.  Acted on unverified, it looked like an optimistic ack: the
   server's data socket aborted as a misbehaving peer and the separate-mode
   client waited forever at 800 of 1024 bytes. *)
let test_corrupted_pure_ack_dropped () =
  let ilp = rx_outcome ~mode:Engine.Ilp ~salt:264 ~positions:[ 15; 8; 10 ] in
  let sep = rx_outcome ~mode:Engine.Separate ~salt:264 ~positions:[ 15; 8; 10 ] in
  let _, complete, _, bytes, failure = sep in
  checkb "separate completes" true complete;
  check "every byte" 1024 bytes;
  checkb "no failure" true (failure = None);
  checkb "same outcome in both modes" true (ilp = sep)

(* A data segment whose reserved header bits flipped in flight must be
   dropped as Bad_checksum by both receive paths: the fused ILP path
   checksums a decoded header, so the decode must keep the word as
   received. *)
let test_reserved_bits_rejected_in_both_modes () =
  List.iter
    (fun mode ->
      List.iter
        (fun bit ->
          let flipped = ref false in
          let mangle _ s =
            (* The first payload-carrying datagram for the client's data
               socket (port 13); the TCP data-offset word sits at 20 + 12. *)
            if (not !flipped) && String.length s > 40 && String.get_uint16_be s 22 = 13
            then begin
              flipped := true;
              let b = Bytes.of_string s in
              Bytes.set_uint16_be b 32 (Bytes.get_uint16_be b 32 lxor (1 lsl bit));
              Bytes.to_string b
            end
            else s
          in
          let w = make_world ~mode ~file_len:1024 ~mangle () in
          ignore
            (Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:400
               ~expected:w.file);
          pump_settle w;
          let label =
            Printf.sprintf "%s, reserved bit %d"
              (match mode with Engine.Ilp -> "ILP" | Engine.Separate -> "separate")
              bit
          in
          checkb (label ^ ": flipped") true !flipped;
          check (label ^ ": dropped Bad_checksum") 1
            (Socket.drop_count w.cli_data Socket.Bad_checksum);
          checkb (label ^ ": transfer completes") true (Client.transfer_complete w.client))
        [ 6; 7; 8; 9; 10; 11 ])
    [ Engine.Ilp; Engine.Separate ]

(* ------------------------------------------------------------------ *)
(* Admission control and load shedding *)

let test_oversized_request_refused () =
  (* A request that could never fit the per-connection budget is refused
     permanently (not a retryable Busy), and the shed is in the ledger. *)
  let limits = { Server.default_limits with max_conn_queue_bytes = 1024 } in
  let w = make_world ~file_len:4096 ~limits () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  pump w;
  checkb "permanently rejected" true (Client.rejected w.client);
  checkb "not complete" false (Client.transfer_complete w.client);
  check "no retries for a permanent refusal" 0 (Client.retries w.client);
  check "ledger: oversized" 1 (Server.shed_count w.server Server.Oversized_request);
  check "nothing queued" 0 (Server.queued_bytes w.server)

let test_unadmitted_connection_busy_until_exhausted () =
  (* With zero admission slots every request is shed Busy; the client
     retries with backoff and eventually surfaces the typed Server_busy
     failure instead of stalling. *)
  let limits = { Server.default_limits with max_connections = 0 } in
  let w = make_world ~limits () in
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  pump_settle w;
  checkb "typed Server_busy failure" true
    (Client.failure w.client = Some Client.Server_busy);
  checkb "retried before giving up" true (Client.retries w.client > 0);
  checkb "saw Busy replies" true (Client.busy_replies w.client > 0);
  checkb "every shed in the ledger" true
    (Server.shed_count w.server Server.Too_many_connections
    = Client.busy_replies w.client);
  checkb "not complete" false (Client.transfer_complete w.client)

(* Two clients against one server whose global queue budget only fits one
   request at a time: the second is shed Busy, retries with backoff, and
   completes once the first drains — transient overload degrades to
   delay, not failure. *)
let test_busy_retry_recovers () =
  let world = lossy_world () in
  let clock = World.clock world in
  (* Small socket buffers so the server's reply queue holds real bytes
     instead of draining synchronously into TCP. *)
  let cfg =
    { sock_cfg with send_buffer = 4096; recv_window = 4096 }
  in
  let file_len = 4096 in
  let copies = 2 in
  let limits =
    { Server.default_limits with
      max_conn_queue_bytes = copies * file_len;
      max_total_queue_bytes = (copies * file_len) + 2048 }
  in
  let server = Server.create ~clock ~engine:(engine world) ~limits () in
  let file = Ilp_app.Workload.generate ~len:file_len ~seed:3 in
  let addr = Ilp_app.Workload.install (World.sim world) file in
  Server.add_file server ~name:"test.bin" ~addr ~len:file_len;
  let clients =
    List.map
      (fun i ->
        let c = World.connect world server cfg ~base:(30 + (4 * i)) in
        Client.create ~clock ~engine:(engine world) ~seed:(i + 1)
          ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data ())
      [ 0; 1 ]
  in
  Simclock.run_until_idle clock;
  List.iter
    (fun c ->
      match
        Client.request_file c ~name:"test.bin" ~copies ~max_reply:512
          ~expected:file
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "request refused locally")
    clients;
  let settled c =
    Client.transfer_complete c || Client.rejected c || Client.failure c <> None
  in
  let guard = ref 50_000 in
  while (not (List.for_all settled clients)) && !guard > 0 do
    decr guard;
    Simclock.advance clock 2_000.0
  done;
  Simclock.run_until_idle clock;
  List.iteri
    (fun i c ->
      checkb (Printf.sprintf "client %d complete" i) true
        (Client.transfer_complete c);
      check (Printf.sprintf "client %d bytes" i) (copies * file_len)
        (Client.bytes_received c))
    clients;
  let busy = List.fold_left (fun acc c -> acc + Client.busy_replies c) 0 clients in
  checkb "the overflow request was shed Busy at least once" true (busy > 0);
  checkb "shed reason was the global budget" true
    (Server.shed_count server Server.Server_queue_full > 0);
  checkb "budget ceiling respected" true
    (Server.peak_queued_bytes server <= limits.Server.max_total_queue_bytes);
  check "all queues drained" 0 (Server.queued_bytes server)

let test_dead_connection_frees_admission_slot () =
  (* When a connection's sockets die, its queue is abandoned and the
     admission slot is released for the next attach. *)
  let limits = { Server.default_limits with max_connections = 1 } in
  let w = make_world ~limits () in
  check "one admitted" 1 (Server.connections w.server);
  (* A second pair attaches over the budget: not admitted. *)
  let mk port = World.socket w.world sock_cfg ~port in
  let srv_ctrl2 = mk 40 and srv_data2 = mk 42 in
  ignore (Server.attach w.server ~ctrl:srv_ctrl2 ~data:srv_data2);
  check "still one admitted" 1 (Server.connections w.server);
  (* The first client turns into a dead reader: its data socket
     advertises a zero window and never reopens, so the server's data
     socket persists, stalls past the deadline and aborts Peer_stalled —
     which must free the admission slot. *)
  Socket.set_advertised_window w.cli_data 0;
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  Simclock.run_until_idle w.clock;
  check "slot freed by the Peer_stalled abort" 0 (Server.connections w.server);
  checkb "abandoned replies accounted" true (Server.replies_abandoned w.server > 0);
  let srv_ctrl3 = mk 44 and srv_data3 = mk 46 in
  ignore (Server.attach w.server ~ctrl:srv_ctrl3 ~data:srv_data3);
  check "new connection admitted" 1 (Server.connections w.server)

(* Laying out and framing a 256-byte reply, the per-reply work of a
   fan-in server: the stub compiler's cursor with its encoder and
   segment array held in the compiled stub, then the engine's framing
   straight from that array into one segment array with shared zero
   runs (167 words before either, 82 with a source list). *)
let test_reply_build_budget () =
  let sim = Sim.create (Config.custom ()) in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key () in
  let eng = Engine.create sim ~cipher ~mode:Engine.Ilp () in
  let hdr =
    { Messages.status = Messages.Ok; copy = 1; file_offset = 512;
      total_len = 2048; data_len = 256 }
  in
  let build () =
    let stub = Messages.reply_segments hdr ~payload_addr:4096 in
    Engine.prepare_stream_segments eng (Stub_ilp.segments stub) ~n:(Stub_ilp.count stub)
  in
  let ps = build () in
  check "a 256-byte reply's wire length" 280 ps.Engine.stream_len;
  let n = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (build ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  checkb
    (Printf.sprintf "a 256-byte reply is laid out and framed in %.1f words (budget 40)"
       words)
    true (words <= 40.5)

(* The client's receive of a reply, from the read to the released
   buffer: [read_plaintext] hands over the pooled buffer in the engine's
   own span record, the body decodes through the client's view into its
   header, the payload is compared in place, and [release_plaintext]
   returns the buffer to its pool class's fixed slots.  None of it
   allocates (7 words at the release before, for a free-list cell and
   the class search's closure). *)
let test_reply_receive_allocates_nothing () =
  let sim = Sim.create (Config.custom ()) in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key:engine_key () in
  let backend =
    Engine.Native
      (Ilp_fastpath.Cipher.Safer_simplified
         (Ilp_cipher.Safer_simplified.expand_key engine_key))
  in
  let eng = Engine.create sim ~cipher ~mode:Engine.Ilp ~backend () in
  let payload = String.init 256 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let payload_addr = Alloc.alloc sim.Sim.alloc ~align:8 256 in
  Mem.poke_string sim.Sim.mem ~pos:payload_addr payload;
  let hdr =
    { Messages.status = Messages.Ok; copy = 0; file_offset = 0; total_len = 256;
      data_len = 256 }
  in
  let stub = Messages.reply_segments hdr ~payload_addr in
  let ps =
    Engine.prepare_stream_segments eng (Stub_ilp.segments stub) ~n:(Stub_ilp.count stub)
  in
  let len = ps.Engine.stream_len in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 len in
  ignore (ps.Engine.fill_range sim.Sim.mem ~dst:wire ~off:0 ~len);
  let rx =
    match Engine.rx_processing eng with
    | Socket.Rx_integrated rx -> rx
    | Socket.Rx_separate _ -> Alcotest.fail "an ILP engine receives integrated"
  in
  let view = Messages.View.create () and got = blank_header () in
  let words = ref 0.0 and verified = ref 0 in
  for _ = 1 to 50 do
    (match rx sim.Sim.mem ~src:wire ~dst_off:0 ~len with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let w0 = Gc.minor_words () in
    match Engine.read_plaintext eng ~len with
    | Error e -> Alcotest.fail e
    | Ok { Engine.buf; off; len = blen } ->
        (match Messages.decode_reply_view view got buf ~off ~len:blen with
        | Error e -> Alcotest.fail e
        | Ok () ->
            if
              Client.slice_matches payload ~off:got.Messages.file_offset
                (Bytes.unsafe_to_string buf) ~doff:(Messages.View.opaque_off view)
                ~len:got.Messages.data_len
            then incr verified);
        Engine.release_plaintext eng buf;
        words := !words +. (Gc.minor_words () -. w0)
  done;
  check "every reply verified" 50 !verified;
  checkb "the header decoded" true (got = hdr);
  Alcotest.(check (float 0.001)) "words read to released" 0.0 !words;
  Engine.destroy eng

(* A request for [k] replies queues one entry, a cursor, whatever [k]:
   admitting it allocates the same for 4 replies as for 16, while
   [pending_replies] reads [k] and, when the connection dies, the
   abandon counts [k] ([replies_abandoned] and the [Abandon] flight
   note).  The server's data socket never connects (its SYN is
   swallowed), so every reply waits in the queue. *)
let test_one_queue_entry_per_request () =
  let admit ~max_reply =
    let world = lossy_world () in
    let clock = World.clock world in
    let srv_engine = engine world in
    let cli_engine = engine world in
    let server = Server.create ~clock ~engine:srv_engine () in
    let rx role s d =
      match role with World.Cli_data -> () | _ -> Socket.handle_datagram s d
    in
    let c = World.connect world server ~rx sock_cfg ~base:10 in
    let client =
      Client.create ~clock ~engine:cli_engine ~ctrl:c.World.cli_ctrl
        ~data:c.World.cli_data ()
    in
    let file = Ilp_app.Workload.generate ~len:4096 ~seed:3 in
    let addr = Ilp_app.Workload.install (World.sim world) file in
    Server.add_file server ~name:"test.bin" ~addr ~len:4096;
    Simclock.advance clock 1_000.0;
    let w0 = Gc.minor_words () in
    (match
       Client.request_file client ~name:"test.bin" ~copies:1 ~max_reply
         ~expected:file
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "request refused locally");
    Simclock.advance clock 1_000.0;
    let words = Gc.minor_words () -. w0 in
    (server, c, words)
  in
  let s4, _, words4 = admit ~max_reply:1024 in
  let s16, c16, words16 = admit ~max_reply:256 in
  check "pending_replies counts 4 replies" 4 (Server.pending_replies s4);
  check "pending_replies counts 16 replies" 16 (Server.pending_replies s16);
  Alcotest.(check (float 0.5))
    "admission allocates the same for 16 replies as for 4" words4 words16;
  Ilp_obs.Recorder.clear ();
  Server.shutdown s16;
  check "the abandon counts every reply" 16 (Server.replies_abandoned s16);
  check "nothing left pending" 0 (Server.pending_replies s16);
  let port = Socket.local_port c16.World.srv_ctrl in
  checkb "the Abandon note carries 16" true
    (List.exists
       (fun (e : Ilp_obs.Recorder.entry) ->
         e.Ilp_obs.Recorder.stage = Ilp_obs.Trace.Abandon
         && e.Ilp_obs.Recorder.arg = 16)
       (Ilp_obs.Recorder.entries ~conn:port ()))

(* A request whose replies wait past [max_request_age_us] is shed as a
   whole at drain time: its queued bytes go, it counts one
   [Request_too_old] shed, and one Busy takes its place in the queue.
   The server's data socket never connects, so nothing is sent. *)
let test_stale_request_shed_whole () =
  let world = lossy_world () in
  let clock = World.clock world in
  let srv_engine = engine world in
  let cli_engine = engine world in
  let limits = { Server.default_limits with max_request_age_us = 2_000.0 } in
  let server = Server.create ~clock ~engine:srv_engine ~limits () in
  let rx role s d =
    match role with World.Cli_data -> () | _ -> Socket.handle_datagram s d
  in
  let c = World.connect world server ~rx sock_cfg ~base:10 in
  let client =
    Client.create ~clock ~engine:cli_engine ~ctrl:c.World.cli_ctrl
      ~data:c.World.cli_data ()
  in
  let file = Ilp_app.Workload.generate ~len:4096 ~seed:3 in
  let addr = Ilp_app.Workload.install (World.sim world) file in
  Server.add_file server ~name:"test.bin" ~addr ~len:4096;
  Simclock.advance clock 1_000.0;
  (match
     Client.request_file client ~name:"test.bin" ~copies:2 ~max_reply:512
       ~expected:file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  Simclock.advance clock 1_000.0;
  check "admitted: 16 replies wait" 16 (Server.pending_replies server);
  check "and their bytes" 8192 (Server.queued_bytes server);
  Simclock.advance clock 3_000.0;
  check "shed once, as too old" 1 (Server.shed_count server Server.Request_too_old);
  check "its bytes released" 0 (Server.queued_bytes server);
  check "one Busy in its place" 1 (Server.pending_replies server);
  check "no reply went out" 0 (Server.replies_sent server)

(* A request on a connection already dead is not queued.  The first
   request's drain finds the data socket destroyed and marks the
   connection dead.  Were the second queued and charged, its drain would
   find the connection dead again, and [mark_dead] acts once: the charge
   (4096 bytes, 8 replies) would stay for good, global budget lost to
   every other client. *)
let test_dead_connection_charges_nothing () =
  let w = make_world () in
  Socket.destroy w.srv_data;
  for _ = 1 to 2 do
    match
      Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
        ~expected:w.file
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "request refused locally"
  done;
  Simclock.run_until_idle w.clock;
  check "the connection died" 0 (Server.connections w.server);
  check "nothing charged" 0 (Server.queued_bytes w.server);
  check "nothing pending" 0 (Server.pending_replies w.server)

(* An instance shut down with its sockets still live (nobody destroyed
   them) sends no file data: every connection died with it. *)
let test_shutdown_instance_sends_nothing () =
  let w = make_world () in
  Server.shutdown w.server;
  (match
     Client.request_file w.client ~name:"test.bin" ~copies:1 ~max_reply:512
       ~expected:w.file
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "request refused locally");
  Simclock.run_until_idle w.clock;
  check "the server received the request" 1 (Server.requests_received w.server);
  check "no reply sent" 0 (Server.replies_sent w.server);
  check "no byte reached the client" 0 (Client.bytes_received w.client);
  check "nothing charged" 0 (Server.queued_bytes w.server)

(* ------------------------------------------------------------------ *)
(* The client's session against a reference model *)

let session_name = function
  | Client.Idle -> "idle"
  | Client.Sent Client.Fresh -> "sent fresh"
  | Client.Sent Client.Resume -> "sent resume"
  | Client.Backing_off Client.Fresh -> "backing-off fresh"
  | Client.Backing_off Client.Resume -> "backing-off resume"
  | Client.Probing _ -> "probing"
  | Client.Rejected -> "rejected"
  | Client.Failed (Client.Aborted _) -> "failed aborted"
  | Client.Failed Client.Server_busy -> "failed busy"
  | Client.Failed (Client.Protocol _) -> "failed protocol"

(* The session's edges by state name, written from DESIGN §10 (a Busy
   waits out a backoff and asks again for what was shed; past the
   budget, [Server_busy]) and §15 (a replayed id resumes under a fresh
   id; a reconnect splits on the verified prefix; the probe's verdict
   resumes or refuses), not taken from the client.  A send TCP refuses
   backs off, so each edge into a sent state has a twin into the backing
   off state; an abort ends every session but an aborted one, which only
   a reconnect leaves.  A protocol error is no state: it stays beside
   the session, in [errors]. *)
let session_edges =
  [ ("idle", "sent fresh");
    ("sent fresh", "backing-off fresh"); ("backing-off fresh", "sent fresh");
    ("sent resume", "backing-off resume"); ("backing-off resume", "sent resume");
    ("sent fresh", "failed busy"); ("backing-off fresh", "failed busy");
    ("sent resume", "failed busy"); ("backing-off resume", "failed busy");
    ("sent fresh", "rejected"); ("sent resume", "rejected");
    ("sent fresh", "sent resume"); ("sent fresh", "backing-off resume");
    ("probing", "sent resume"); ("probing", "backing-off resume");
    ("probing", "rejected");
    ("failed aborted", "idle"); ("failed aborted", "sent fresh");
    ("failed aborted", "backing-off fresh"); ("failed aborted", "sent resume");
    ("failed aborted", "backing-off resume"); ("failed aborted", "probing") ]
  @ List.map
      (fun s -> (s, "failed aborted"))
      [ "idle"; "sent fresh"; "sent resume"; "backing-off fresh";
        "backing-off resume"; "probing"; "rejected"; "failed busy" ]

(* One fault per server generation, struck as a datagram reaches the
   client once it holds [after_bytes] more bytes than when the
   generation took its request: the link goes dark for [outage_us] (0:
   not at all), that datagram and every one in flight included, and
   with [crash] the server host dies there (instance shut down, sockets
   destroyed, so a later segment is answered with RST).  The client, a
   pure receiver, notices through its keepalive. *)
type session_fault = { after_bytes : int; outage_us : int; crash : bool }

type session_case = {
  file_len : int;
  copies : int;
  max_reply : int;
  hog : bool;  (* tight queue budgets, and a hog client on each generation *)
  attempts : int;  (* the client's retry budget *)
  faults : session_fault list;
  corrupt : int option;  (* restarted generations serve this byte flipped *)
}

let print_session_case c =
  Printf.sprintf
    "file_len %d, copies %d, max_reply %d, hog %b, attempts %d, corrupt %s, faults [%s]"
    c.file_len c.copies c.max_reply c.hog c.attempts
    (match c.corrupt with Some p -> string_of_int p | None -> "none")
    (String.concat "; "
       (List.map
          (fun f ->
            Printf.sprintf "+%dB dark %dus%s" f.after_bytes f.outage_us
              (if f.crash then " crash" else ""))
          c.faults))

let gen_session_case =
  QCheck.Gen.(
    let* file_len = oneofl [ 1024; 2048; 4096 ] in
    let* copies = int_range 1 3 in
    let* max_reply = int_range 256 1024 in
    let* hog = bool in
    let* attempts = int_range 1 6 in
    let* faults =
      list_size (int_range 0 3)
        (let* after_bytes =
           oneof [ return 0; return file_len; int_range 0 (copies * file_len / 2) ]
         in
         let* outage_us = oneof [ return 0; int_range 1_000 40_000 ] in
         let* crash = bool in
         return { after_bytes; outage_us; crash })
    in
    let* corrupt = opt ~ratio:0.3 (int_range 0 (file_len - 1)) in
    return { file_len; copies; max_reply; hog; attempts; faults; corrupt })

type session_end = {
  walk : string list;  (* the client's distinct states, in order *)
  violation : string option;  (* the first broken timer or prefix law *)
  verdict : World.verdict;
  exact : bool;  (* every copy's bytes *)
  timers_left : int;
}

(* Run one case: the client requests the file from generation 0; on a
   typed abort, while faults remain, the failed generation is torn down
   and a new server instance over the same store takes the client's
   reconnect.  The state is read before and after each delivery to a
   client socket and after each 100 us clock step. *)
let session_run c =
  let dark = ref false in
  let world =
    World.create Config.ss10_30 ~link:(fun clock ~deliver ->
        Link.create clock ~delay_us:50.0 ~seed:7
          ~deliver:(fun d -> if not !dark then deliver d)
          ())
  in
  let clock = World.clock world in
  let srv_engine = engine world in
  let len = c.file_len in
  let file = Ilp_app.Workload.generate ~len ~seed:3 in
  let addr = Ilp_app.Workload.install (World.sim world) file in
  let restarted_addr =
    match c.corrupt with
    | None -> addr
    | Some p ->
        let b = Bytes.of_string file in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0x5a));
        Ilp_app.Workload.install (World.sim world) (Bytes.to_string b)
  in
  let store = Server.create_store () in
  (* The hog's two copies take what the client's request leaves of the
     global budget but one file, so the client is shed until the hog has
     drained a file; every request fits its connection's budget. *)
  let limits =
    if c.hog then
      { Server.default_limits with
        max_conn_queue_bytes = 3 * len;
        max_total_queue_bytes = (c.copies + 1) * len }
    else Server.default_limits
  in
  let hog_cfg = { sock_cfg with send_buffer = 1024; recv_window = 1024 } in
  let retry =
    { Client.max_attempts = c.attempts;
      base_backoff_us = 500.0;
      max_backoff_us = 20_000.0;
      deadline_us = 1_000_000.0 }
  in
  let walk = ref [] and violation = ref None and client = ref None in
  let armed = ref None (* (bytes, strike) *) in
  let violate v = if !violation = None then violation := Some v in
  let observe () =
    Option.iter
      (fun cl ->
        let st = Client.state cl in
        let name = session_name st and bytes = Client.bytes_received cl in
        let timers = Simclock.pending_count clock ~owner:(Client.timer_owner cl) in
        let held = match st with Client.Backing_off _ -> 1 | _ -> 0 in
        if timers <> held then
          violate (Printf.sprintf "%s with %d timers for the client" name timers);
        match !walk with
        | (last, last_bytes) :: earlier ->
            (match st with
            | Client.Sent Client.Fresh | Client.Backing_off Client.Fresh -> ()
            | _ ->
                if bytes < last_bytes then
                  violate
                    (Printf.sprintf "prefix shrank %d -> %d entering %s" last_bytes
                       bytes name));
            walk :=
              (name, bytes) :: (if String.equal last name then earlier else !walk)
        | [] -> walk := [ (name, bytes) ])
      !client
  in
  let rx role s d =
    match role with
    | World.Cli_ctrl | World.Cli_data ->
        observe ();
        (match (!armed, !client) with
        | Some (bytes, strike), Some cl when Client.bytes_received cl >= bytes ->
            armed := None;
            strike ()
        | _ -> ());
        if not !dark then Socket.handle_datagram s d;
        observe ()
    | World.Srv_ctrl | World.Srv_data -> Socket.handle_datagram s d
  in
  let step () =
    Simclock.advance clock 100.0;
    observe ()
  in
  (* A generation: a server instance over the store, the client's pair
     and (with [hog]) a hog pair that has sent its request, once every
     socket is established.  Returns the instance, the client's pair,
     the server's sockets (what a crash destroys) and every socket. *)
  let generation g =
    let server = Server.create ~clock ~engine:srv_engine ~limits ~store () in
    Server.add_file server ~name:"s.bin"
      ~addr:(if g = 0 then addr else restarted_addr)
      ~len;
    let k = World.connect world server ~rx sock_cfg ~base:(100 + (10 * g)) in
    let hog =
      if c.hog then Some (World.connect world server hog_cfg ~base:(104 + (10 * g)))
      else None
    in
    let conns = k :: Option.to_list hog in
    let srv = List.concat_map (fun k -> [ k.World.srv_ctrl; k.World.srv_data ]) conns in
    let all =
      srv @ List.concat_map (fun k -> [ k.World.cli_ctrl; k.World.cli_data ]) conns
    in
    let guard = ref 1_000 in
    while
      (not (List.for_all (fun s -> Socket.state s = Socket.Established) all))
      && !guard > 0
    do
      decr guard;
      step ()
    done;
    Option.iter
      (fun h ->
        let hog =
          Client.create ~clock ~engine:(engine world) ~seed:(1000 + g)
            ~ctrl:h.World.cli_ctrl ~data:h.World.cli_data ()
        in
        ignore
          (Client.request_file hog ~name:"s.bin" ~copies:2 ~max_reply:512
             ~expected:file))
      hog;
    Socket.start_keepalive k.World.cli_data ~interval_us:5_000.0 ~probes:2
      ~on_result:(fun _ -> ()) ();
    (server, k, srv, all)
  in
  let server, k, srv, all = generation 0 in
  let cl =
    Client.create ~clock ~retry ~idempotent:true ~engine:(engine world)
      ~ctrl:k.World.cli_ctrl ~data:k.World.cli_data ()
  in
  client := Some cl;
  observe ();
  let refused =
    Result.is_error
      (Client.request_file cl ~name:"s.bin" ~copies:c.copies ~max_reply:c.max_reply
         ~expected:file)
  in
  observe ();
  let aborted () =
    match Client.failure cl with Some (Client.Aborted _) -> true | _ -> false
  in
  let settled () =
    refused || Client.transfer_complete cl || Client.rejected cl
    || (Client.failure cl <> None && not (aborted ()))
  in
  (* Up to 5 s of virtual time per generation. *)
  let rec run g (server, srv, all) faults =
    let fault, rest = match faults with f :: r -> (Some f, r) | [] -> (None, []) in
    let light_at = ref neg_infinity and guard = ref 50_000 in
    armed :=
      Option.map
        (fun f ->
          ( Client.bytes_received cl + f.after_bytes,
            fun () ->
              if f.outage_us > 0 then begin
                dark := true;
                light_at := Simclock.now clock +. float_of_int f.outage_us
              end;
              if f.crash then begin
                Server.shutdown server;
                List.iter Socket.destroy srv
              end ))
        fault;
    while (not (settled () || aborted ())) && !guard > 0 do
      decr guard;
      step ();
      if Simclock.now clock >= !light_at then dark := false
    done;
    armed := None;
    let retire () =
      Server.shutdown server;
      List.iter (fun s -> if not (Socket.destroyed s) then Socket.destroy s) all
    in
    if aborted () && fault <> None then begin
      (* Tear the failed generation down, wait out the outage, and hand
         the client a pair on a fresh instance over the same store. *)
      retire ();
      while Simclock.now clock < !light_at do
        step ()
      done;
      dark := false;
      let server, k, srv, all = generation (g + 1) in
      observe ();
      ignore (Client.reconnect cl ~ctrl:k.World.cli_ctrl ~data:k.World.cli_data);
      observe ();
      run (g + 1) (server, srv, all) rest
    end
    else retire ()
  in
  run 0 (server, srv, all) c.faults;
  { walk = List.rev_map fst !walk;
    violation = !violation;
    verdict = World.verdict ~refused cl;
    exact = Client.bytes_received cl = c.copies * len;
    timers_left = Simclock.pending_count clock ~owner:(Client.timer_owner cl) }

(* The walk's changes are edges of the list; no state but backing off
   holds a timer for the client's owner, and that state holds exactly
   one; the verified prefix shrinks only into a fresh ask; and the run
   ends complete with exact bytes or typed, with no timer left. *)
let prop_session_model =
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"session: DESIGN edges, exact or typed end"
    (QCheck.make ~print:print_session_case gen_session_case)
    (fun c ->
      let e = session_run c in
      let walk = String.concat " / " e.walk in
      let rec illegal = function
        | a :: (b :: _ as rest) ->
            (if List.mem (a, b) session_edges then [] else [ a ^ " -> " ^ b ])
            @ illegal rest
        | _ -> []
      in
      match (illegal e.walk, e.violation) with
      | (_ :: _ as bad), _ ->
          QCheck.Test.fail_reportf "illegal edges: %s (walk %s)"
            (String.concat ", " bad) walk
      | [], Some v -> QCheck.Test.fail_reportf "%s (walk %s)" v walk
      | [], None ->
          let ended =
            match e.verdict with
            | World.Complete -> e.exact
            | World.Typed _ -> true
            | World.Silent -> false
          in
          if not ended then
            QCheck.Test.fail_reportf "%s, %s bytes (walk %s)"
              (World.verdict_to_string e.verdict)
              (if e.exact then "exact" else "short")
              walk
          else if e.timers_left <> 0 then
            QCheck.Test.fail_reportf "%d client timers left (walk %s)" e.timers_left walk
          else true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "rpc"
    [ ( "messages",
        [ Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request trailer" `Quick test_request_roundtrip_trailer;
          Alcotest.test_case "reply round trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "error status" `Quick test_reply_error_status;
          Alcotest.test_case "garbage" `Quick test_decode_garbage;
          Alcotest.test_case "probe round trip" `Quick test_probe_roundtrip;
          Alcotest.test_case "v2 request round trip" `Quick
            test_request_v2_roundtrip;
          Alcotest.test_case "v1 wire unchanged" `Quick
            test_request_v1_wire_unchanged;
          Alcotest.test_case "flagged ctrl dispatch" `Quick
            test_flagged_ctrl_dispatch;
          Alcotest.test_case "flagged v1 promotes to v2" `Quick
            test_flagged_v1_promotes_to_v2;
          Alcotest.test_case "ctrl forms through a CRC32 engine" `Quick
            test_ctrl_forms_through_crc_engine;
          Alcotest.test_case "reply opaque bounded by the body" `Quick
            test_reply_opaque_bounded_by_body;
          qc prop_request_roundtrip;
          qc prop_ctrl_decoder_reads_v1_requests;
          qc prop_reply_view_equals_copy;
          Alcotest.test_case "a reply is laid out and framed within budget" `Quick
            test_reply_build_budget;
          Alcotest.test_case "a reply read, decoded and verified allocates nothing"
            `Quick test_reply_receive_allocates_nothing ] );
      ( "client-server",
        [ Alcotest.test_case "transfer (ILP)" `Quick test_transfer_ilp;
          Alcotest.test_case "transfer (separate)" `Quick test_transfer_separate;
          Alcotest.test_case "transfer under loss" `Quick test_transfer_under_loss;
          Alcotest.test_case "missing file" `Quick test_missing_file_rejected;
          Alcotest.test_case "odd tail segment" `Quick test_odd_sized_tail_segment;
          Alcotest.test_case "max_reply capped at engine capacity" `Quick
            test_max_reply_capped_at_engine;
          Alcotest.test_case "slice_matches in place" `Quick test_slice_matches;
          qc prop_slice_matches_reference ] );
      ( "adversarial",
        [ Alcotest.test_case "abort surfaces to client" `Quick
            test_abort_surfaces_to_client;
          Alcotest.test_case "reconnect resumes" `Quick test_reconnect_resumes;
          Alcotest.test_case "dedup replay served from cache" `Quick
            test_dedup_replay_served_from_cache;
          Alcotest.test_case "mid-copy resume verifies prefix" `Quick
            test_resume_mid_copy_verifies_prefix;
          Alcotest.test_case "a Busy on a resume keeps the verified prefix" `Quick
            test_busy_on_resume_keeps_prefix;
          Alcotest.test_case "corrupted pure ack dropped" `Quick
            test_corrupted_pure_ack_dropped;
          Alcotest.test_case "reserved header bits rejected in both modes" `Quick
            test_reserved_bits_rejected_in_both_modes;
          qc prop_rx_modes_equivalent_under_corruption ] );
      ( "admission",
        [ Alcotest.test_case "oversized request refused" `Quick
            test_oversized_request_refused;
          Alcotest.test_case "unadmitted connection Busy until exhausted" `Quick
            test_unadmitted_connection_busy_until_exhausted;
          Alcotest.test_case "Busy retry recovers after transient overload"
            `Quick test_busy_retry_recovers;
          Alcotest.test_case "dead connection frees admission slot" `Quick
            test_dead_connection_frees_admission_slot;
          Alcotest.test_case "one queue entry per request" `Quick
            test_one_queue_entry_per_request;
          Alcotest.test_case "a stale request is shed whole" `Quick
            test_stale_request_shed_whole;
          Alcotest.test_case "a dead connection charges nothing" `Quick
            test_dead_connection_charges_nothing;
          Alcotest.test_case "a shut-down instance sends nothing" `Quick
            test_shutdown_instance_sends_nothing ] );
      ("session", [ qc prop_session_model ]) ]
