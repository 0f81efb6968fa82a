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
   decoders are the reference; the views below decode the same body in
   place. *)

let decode_request body : (request, string) result =
  match Stub.unmarshal_from request_stub (Xdr.Dec.of_string body) with
  | VSeq [ VStr file_name; VInt copies; VInt max_reply ] ->
      Ok
        { file_name; copies; max_reply; req_id = 0; start_copy = 0;
          start_offset = 0 }
  | _ -> Error "request: unexpected shape"
  | exception Xdr.Dec.Error e -> Error e

let decode_reply body : (reply_header * string, string) result =
  match Stub.unmarshal_from reply_stub (Xdr.Dec.of_string body) with
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

let reply_prefix h =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc (status_to_enum h.status);
  Xdr.Enc.int32 enc h.copy;
  Xdr.Enc.int32 enc h.file_offset;
  Xdr.Enc.int32 enc h.total_len;
  (* The opaque's length word; the payload bytes follow in the stream. *)
  Xdr.Enc.uint32 enc h.data_len;
  Xdr.Enc.contents enc

(* ------------------------------------------------------------------ *)
(* In-place decoders over pooled TSDU buffers (the single-copy receive
   path).  A [View] is a cursor over the body [buf.[base..limit-1]] with
   exactly {!Xdr.Dec}'s semantics — same bounds discipline, same error
   strings, positions counted from the body's start — but no
   [String.sub] per field: an opaque field stays in the buffer.
   Equivalence with the string decoders is property-tested (test_rpc). *)

module View = struct
  type t = {
    mutable buf : Bytes.t;
    mutable base : int;
    mutable limit : int;
    mutable pos : int;
    mutable opaque_off : int;  (* first byte of the last opaque decoded *)
  }

  exception Error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

  let create () = { buf = Bytes.empty; base = 0; limit = 0; pos = 0; opaque_off = 0 }

  (* Point [t] at the body [buf.[off..off+len-1]]; a span outside the
     buffer is an error, not an out-of-bounds read. *)
  let reset t buf ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length buf - len then
      fail "body span %d+%d outside a %d-byte buffer" off len (Bytes.length buf);
    t.buf <- buf;
    t.base <- off;
    t.limit <- off + len;
    t.pos <- off

  let make buf ~off ~len =
    let t = create () in
    reset t buf ~off ~len;
    t

  let opaque_off t = t.opaque_off

  let need t n =
    if t.pos + n > t.limit then
      fail "truncated XDR input: need %d bytes at %d, have %d" n (t.pos - t.base)
        (t.limit - t.pos)

  let uint32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xffff_ffff in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    let v = uint32 t in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  (* Length word, padding check, cursor advance — but the bytes stay put:
     the result is the opaque's length, and its first byte is
     [Xdr.padded n] behind the cursor. *)
  let opaque t =
    let n = uint32 t in
    need t (Xdr.padded n);
    for i = n to Xdr.padded n - 1 do
      if Bytes.get t.buf (t.pos + i) <> '\000' then fail "nonzero XDR padding"
    done;
    t.opaque_off <- t.pos;
    t.pos <- t.pos + Xdr.padded n;
    n

  let enum t names =
    let i = uint32 t in
    if i >= Array.length names then fail "enum value %d out of range" i;
    i
end

(* The control forms share a leading file name and differ only in how
   many integer words follow it: 2 (v1 request), 3 (CRC probe),
   4 (flagged probe), 5 (v2 request), 6 (flagged request) — the flagged
   forms end in a capability flag word, returned alongside the message
   (0 for the unflagged forms). *)
let decode_ctrl_bytes buf ~off ~len : (ctrl * int, string) result =
  match
    let v = View.make buf ~off ~len in
    let n = View.opaque v in
    let file_name = Bytes.sub_string buf (View.opaque_off v) n in
    let rest = v.View.limit - v.View.pos in
    if rest mod 4 <> 0 then View.fail "ctrl: malformed body";
    match rest / 4 with
    | 2 ->
        let copies = View.int32 v in
        let max_reply = View.int32 v in
        ( Request
            { file_name; copies; max_reply; req_id = 0; start_copy = 0;
              start_offset = 0 },
          0 )
    | (3 | 4) as words ->
        let p_offset = View.uint32 v in
        let p_crc = View.uint32 v in
        let p_req_id = View.uint32 v in
        let flags = if words = 4 then View.uint32 v else 0 in
        (Probe { p_file_name = file_name; p_offset; p_crc; p_req_id }, flags)
    | (5 | 6) as words ->
        let copies = View.int32 v in
        let max_reply = View.int32 v in
        let req_id = View.uint32 v in
        let start_copy = View.uint32 v in
        let start_offset = View.uint32 v in
        let flags = if words = 6 then View.uint32 v else 0 in
        ( Request
            { file_name; copies; max_reply; req_id; start_copy; start_offset },
          flags )
    | k -> View.fail "ctrl: unexpected shape (%d trailing words)" k
  with
  | c -> Ok c
  | exception View.Error e -> Error e

(* Into the caller's header, through the caller's view: nothing is
   allocated unless the body is malformed. *)
let decode_reply_view v h buf ~off ~len : (unit, string) result =
  match
    View.reset v buf ~off ~len;
    let st = View.enum v status_names in
    let copy = View.int32 v in
    let file_offset = View.int32 v in
    let total_len = View.int32 v in
    let data_len = View.opaque v in
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
  | exception View.Error e -> Error e
