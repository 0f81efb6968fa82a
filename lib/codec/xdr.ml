let padding n = (4 - (n land 3)) land 3
let padded n = n + padding n

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let uint32 t v =
    if v < 0 || v > 0xffff_ffff then invalid_arg "Xdr.Enc.uint32: out of range";
    Buffer.add_int32_be t (Int32.of_int v)

  let int32 t v =
    if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Xdr.Enc.int32: out of range";
    uint32 t (v land 0xffff_ffff)

  let opaque t s =
    uint32 t (String.length s);
    Buffer.add_string t s;
    for _ = 1 to padding (String.length s) do
      Buffer.add_char t '\000'
    done

  let raw t s = Buffer.add_string t s

  let length = Buffer.length
  let contents = Buffer.contents
  let clear = Buffer.clear
end

(* The body is [buf.[base..limit-1]]; [pos] is the next byte, in the
   buffer.  Every error position is [pos - base]. *)
module Dec = struct
  type t = {
    mutable buf : Bytes.t;
    mutable base : int;
    mutable limit : int;
    mutable pos : int;
    mutable opaque_off : int;  (* first byte of the last opaque read in place *)
  }

  exception Error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
  let create () = { buf = Bytes.empty; base = 0; limit = 0; pos = 0; opaque_off = 0 }

  (* A span outside the buffer is an error, not an out-of-bounds read. *)
  let reset t buf ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length buf - len then
      fail "body span %d+%d outside a %d-byte buffer" off len (Bytes.length buf);
    t.buf <- buf;
    t.base <- off;
    t.limit <- off + len;
    t.pos <- off

  (* The cursor never writes its buffer, so a string can back it. *)
  let of_string s =
    let t = create () in
    reset t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s);
    t

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

  let enum t n =
    let i = uint32 t in
    if i >= n then fail "enum value %d out of range" i;
    i

  (* Length word, padding check, cursor advance; the bytes stay put. *)
  let opaque_in_place t =
    let n = uint32 t in
    need t (padded n);
    for i = n to padded n - 1 do
      if Bytes.get t.buf (t.pos + i) <> '\000' then fail "nonzero XDR padding"
    done;
    t.opaque_off <- t.pos;
    t.pos <- t.pos + padded n;
    n

  let opaque t =
    let n = opaque_in_place t in
    Bytes.sub_string t.buf t.opaque_off n

  let opaque_off t = t.opaque_off
  let remaining t = t.limit - t.pos
  let expect_end t = if remaining t <> 0 then fail "%d trailing bytes" (remaining t)
end
