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

  let hyper t v = Buffer.add_int64_be t v
  let bool t b = uint32 t (if b then 1 else 0)

  let pad t n =
    for _ = 1 to padding n do
      Buffer.add_char t '\000'
    done

  let fixed_opaque t s =
    Buffer.add_string t s;
    pad t (String.length s)

  let opaque t s =
    uint32 t (String.length s);
    fixed_opaque t s

  let raw t s = Buffer.add_string t s

  let length = Buffer.length
  let contents = Buffer.contents
  let clear = Buffer.clear
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  exception Error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
  let of_string data = { data; pos = 0 }

  let sub data ~pos =
    if pos < 0 || pos > String.length data then fail "Xdr.Dec.sub: position %d" pos;
    { data; pos }

  let need t n =
    if t.pos + n > String.length t.data then
      fail "truncated XDR input: need %d bytes at %d, have %d" n t.pos
        (String.length t.data - t.pos)

  let uint32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_be t.data t.pos) land 0xffff_ffff in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    let v = uint32 t in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  let hyper t =
    need t 8;
    let v = String.get_int64_be t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | v -> fail "invalid XDR boolean %d" v

  let fixed_opaque t n =
    if n < 0 then fail "negative opaque length";
    need t (padded n);
    let s = String.sub t.data t.pos n in
    for i = n to padded n - 1 do
      if t.data.[t.pos + i] <> '\000' then fail "nonzero XDR padding"
    done;
    t.pos <- t.pos + padded n;
    s

  let opaque t =
    let n = uint32 t in
    fixed_opaque t n

  let pos t = t.pos
  let remaining t = String.length t.data - t.pos
  let expect_end t = if remaining t <> 0 then fail "%d trailing bytes" (remaining t)
end
