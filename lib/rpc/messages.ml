open Ilp_codec

type request = {
  file_name : string;
  copies : int;
  max_reply : int;
  req_id : int;
  start_copy : int;
  start_offset : int;
}

let request ?(req_id = 0) ?(start_copy = 0) ?(start_offset = 0) ~file_name
    ~copies ~max_reply () =
  { file_name; copies; max_reply; req_id; start_copy; start_offset }

(* A request with no idempotency id and no resume point marshals in the
   original three-field form, so a stack that never crashes puts bytes on
   the wire identical to the pre-fault-model stack. *)
let request_is_v1 r = r.req_id = 0 && r.start_copy = 0 && r.start_offset = 0

type probe = { p_file_name : string; p_offset : int; p_crc : int; p_req_id : int }

type ctrl = Request of request | Probe of probe

type status = Ok | Not_found | Refused | Busy

type reply_header = {
  mutable status : status;
  mutable copy : int;
  mutable file_offset : int;
  mutable total_len : int;
  mutable data_len : int;
}

let request_v1_fields : (string * Asn1.ty) list =
  [ ("fileName", Str); ("copies", Int); ("maxReply", Int) ]

(* The resumable form: idempotency id plus resume point.  The three
   control-message forms are distinguished on the wire by the number of
   integer words after the file name — 2 (v1 request), 3 (CRC probe),
   5 (v2 request) — so no tag word is needed and the v1 encoding stays
   untouched. *)
let request_v2_fields : (string * Asn1.ty) list =
  request_v1_fields @ [ ("reqId", Uint); ("startCopy", Uint); ("startOffset", Uint) ]

(* "Does file [fileName]'s prefix [0, offset) fold to CRC32 [crc]?" —
   the client's resume handshake.  The reply is a data-less standard
   reply header: [Ok] verifies the prefix, [Refused] rejects it (the
   restarted server's file differs), [Not_found] as usual. *)
let probe_fields : (string * Asn1.ty) list =
  [ ("fileName", Str); ("offset", Uint); ("crc", Uint); ("reqId", Uint) ]

let request_ty : Asn1.ty = Seq request_v1_fields
let request_ty_v2 : Asn1.ty = Seq request_v2_fields
let probe_ty : Asn1.ty = Seq probe_fields

(* Capability flags, negotiated per connection on the first control
   message.  Bit 0: the client receives v2 ("Reverso") framed streams —
   the server must prefix every reply TSDU on this connection with the
   {!Ilp_tcp.Framing} prelude. *)
let flag_rx_framing = 0x1

(* The flagged forms append one flag word to an unflagged form, extending
   the tag-free word-count dispatch: 2 (v1 request), 3 (probe),
   4 (flagged probe), 5 (v2 request), 6 (flagged request).  There is no
   flagged v1 request — a flag word after the v1 fields would collide
   with the probe's three words — so a flagged request always marshals
   the full v2 field set (its resume fields may simply be zero).  A
   client negotiating framing has already left v1 byte-identity behind,
   so nothing is lost. *)
let flagged fields : Asn1.ty = Seq (fields @ [ ("flags", Asn1.Uint) ])

let request_ty_flagged = flagged request_v2_fields
let probe_ty_flagged = flagged probe_fields

let status_names = [| "ok"; "notFound"; "refused"; "busy" |]

let reply_ty : Asn1.ty =
  Seq
    [ ("status", Enum status_names);
      ("copy", Int);
      ("fileOffset", Int);
      ("totalLen", Int);
      ("data", Opaque) ]

let request_stub = Stub.compile request_ty
let request_stub_v2 = Stub.compile request_ty_v2
let probe_stub = Stub.compile probe_ty
let reply_stub = Stub.compile reply_ty

let status_to_enum = function Ok -> 0 | Not_found -> 1 | Refused -> 2 | Busy -> 3

let status_of_enum = function
  | 0 -> Some Ok
  | 1 -> Some Not_found
  | 2 -> Some Refused
  | 3 -> Some Busy
  | _ -> None

let encode_request r =
  if request_is_v1 r then
    Stub.marshal request_stub
      (VSeq [ VStr r.file_name; VInt r.copies; VInt r.max_reply ])
  else
    Stub.marshal request_stub_v2
      (VSeq
         [ VStr r.file_name; VInt r.copies; VInt r.max_reply; VInt r.req_id;
           VInt r.start_copy; VInt r.start_offset ])

let encode_probe p =
  Stub.marshal probe_stub
    (VSeq [ VStr p.p_file_name; VInt p.p_offset; VInt p.p_crc; VInt p.p_req_id ])

(* The ILP-extended stubs (section 2.1): field layouts compiled from the
   same descriptions, with the bulk data field left in application memory
   for the fused loop. *)
let request_ilp = Stub_ilp.compile request_ty
let request_ilp_v2 = Stub_ilp.compile request_ty_v2
let request_ilp_flagged = Stub_ilp.compile request_ty_flagged
let probe_ilp = Stub_ilp.compile probe_ty
let probe_ilp_flagged = Stub_ilp.compile probe_ty_flagged
let reply_ilp = Stub_ilp.compile reply_ty

let finish what stub =
  match Stub_ilp.finish stub with
  | Ok () -> stub
  | Error e -> invalid_arg ("Messages." ^ what ^ ": " ^ e)

(* The v1 fields, extended by the v2 fields and then by the flag word:
   a flagged request is always the full v2 form. *)
let request_segments ?(flags = 0) r =
  let v1 = flags = 0 && request_is_v1 r in
  let stub =
    if v1 then request_ilp else if flags = 0 then request_ilp_v2 else request_ilp_flagged
  in
  Stub_ilp.start stub;
  Stub_ilp.push_str stub r.file_name;
  Stub_ilp.push_int stub r.copies;
  Stub_ilp.push_int stub r.max_reply;
  if not v1 then begin
    Stub_ilp.push_int stub r.req_id;
    Stub_ilp.push_int stub r.start_copy;
    Stub_ilp.push_int stub r.start_offset;
    if flags <> 0 then Stub_ilp.push_int stub flags
  end;
  finish "request_segments" stub

let probe_segments ?(flags = 0) p =
  let stub = if flags = 0 then probe_ilp else probe_ilp_flagged in
  Stub_ilp.start stub;
  Stub_ilp.push_str stub p.p_file_name;
  Stub_ilp.push_int stub p.p_offset;
  Stub_ilp.push_int stub p.p_crc;
  Stub_ilp.push_int stub p.p_req_id;
  if flags <> 0 then Stub_ilp.push_int stub flags;
  finish "probe_segments" stub

let reply_segments h ~payload_addr =
  let stub = reply_ilp in
  Stub_ilp.start stub;
  Stub_ilp.push_enum stub (status_to_enum h.status);
  Stub_ilp.push_int stub h.copy;
  Stub_ilp.push_int stub h.file_offset;
  Stub_ilp.push_int stub h.total_len;
  Stub_ilp.push_memory stub ~addr:payload_addr ~len:h.data_len;
  finish "reply_segments" stub

(* ------------------------------------------------------------------ *)
(* Decoders.  Each reads the marshalled body and nothing else: the engine
   that added the length field, the CRC32 trailer and the alignment has
   checked and stripped them ([Engine.read_plaintext]).  The string
   decoders go through the generic [Stub] and are the reference; the
   in-place decoders below walk the same fields through the same
   [Xdr.Dec] cursor, leaving the bulk data in the buffer.  Equivalence
   is property-tested (test_rpc). *)

let decode_request body : (request, string) result =
  match Stub.unmarshal request_stub body with
  | VSeq [ VStr file_name; VInt copies; VInt max_reply ] ->
      Ok
        { file_name; copies; max_reply; req_id = 0; start_copy = 0;
          start_offset = 0 }
  | _ -> Error "request: unexpected shape"
  | exception Xdr.Dec.Error e -> Error e

let decode_reply body : (reply_header * string, string) result =
  match Stub.unmarshal reply_stub body with
  | VSeq [ VEnum st; VInt copy; VInt file_offset; VInt total_len; VBytes data ]
    -> (
      match status_of_enum st with
      | Some status ->
          Ok
            ( { status; copy; file_offset; total_len;
                data_len = String.length data },
              data )
      | None -> Error "reply: bad status")
  | _ -> Error "reply: unexpected shape"
  | exception Xdr.Dec.Error e -> Error e

(* The control forms share a leading file name and differ only in how
   many integer words follow it: 2 (v1 request), 3 (CRC probe),
   4 (flagged probe), 5 (v2 request), 6 (flagged request) — the flagged
   forms end in a capability flag word, returned alongside the message
   (0 for the unflagged forms). *)
let decode_ctrl_bytes buf ~off ~len : (ctrl * int, string) result =
  match
    let d = Xdr.Dec.create () in
    Xdr.Dec.reset d buf ~off ~len;
    let file_name = Xdr.Dec.opaque d in
    let rest = Xdr.Dec.remaining d in
    if rest mod 4 <> 0 then raise (Xdr.Dec.Error "ctrl: malformed body");
    match rest / 4 with
    | 2 ->
        let copies = Xdr.Dec.int32 d in
        let max_reply = Xdr.Dec.int32 d in
        ( Request
            { file_name; copies; max_reply; req_id = 0; start_copy = 0;
              start_offset = 0 },
          0 )
    | (3 | 4) as words ->
        let p_offset = Xdr.Dec.uint32 d in
        let p_crc = Xdr.Dec.uint32 d in
        let p_req_id = Xdr.Dec.uint32 d in
        let flags = if words = 4 then Xdr.Dec.uint32 d else 0 in
        (Probe { p_file_name = file_name; p_offset; p_crc; p_req_id }, flags)
    | (5 | 6) as words ->
        let copies = Xdr.Dec.int32 d in
        let max_reply = Xdr.Dec.int32 d in
        let req_id = Xdr.Dec.uint32 d in
        let start_copy = Xdr.Dec.uint32 d in
        let start_offset = Xdr.Dec.uint32 d in
        let flags = if words = 6 then Xdr.Dec.uint32 d else 0 in
        ( Request
            { file_name; copies; max_reply; req_id; start_copy; start_offset },
          flags )
    | k ->
        raise
          (Xdr.Dec.Error (Printf.sprintf "ctrl: unexpected shape (%d trailing words)" k))
  with
  | c -> Ok c
  | exception Xdr.Dec.Error e -> Error e

(* Into the caller's header, through the caller's cursor: nothing is
   allocated unless the body is malformed. *)
let decode_reply_view d h buf ~off ~len : (unit, string) result =
  match
    Xdr.Dec.reset d buf ~off ~len;
    let st = Xdr.Dec.enum d (Array.length status_names) in
    let copy = Xdr.Dec.int32 d in
    let file_offset = Xdr.Dec.int32 d in
    let total_len = Xdr.Dec.int32 d in
    let data_len = Xdr.Dec.opaque_in_place d in
    Xdr.Dec.expect_end d;
    match status_of_enum st with
    | Some status ->
        h.status <- status;
        h.copy <- copy;
        h.file_offset <- file_offset;
        h.total_len <- total_len;
        h.data_len <- data_len;
        true
    | None -> false
  with
  | true -> Result.Ok ()
  | false -> Error "reply: bad status"
  | exception Xdr.Dec.Error e -> Error e
