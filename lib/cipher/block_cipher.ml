type t = {
  name : string;
  block_len : int;
  encrypt : Bytes.t -> int -> unit;
  decrypt : Bytes.t -> int -> unit;
  code_encrypt : Ilp_memsim.Code.region;
  code_decrypt : Ilp_memsim.Code.region;
  store_unit : int;
}

let roundtrip_ok t =
  let sample = Bytes.init t.block_len (fun i -> Char.chr ((i * 37 + 11) land 0xff)) in
  let block = Bytes.copy sample in
  t.encrypt block 0;
  t.decrypt block 0;
  Bytes.equal block sample

let map_blocks t f s =
  let n = String.length s in
  if n mod t.block_len <> 0 then
    invalid_arg (t.name ^ ": input not a multiple of the block length");
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f b !off;
    off := !off + t.block_len
  done;
  Bytes.unsafe_to_string b

let encrypt_string t s = map_blocks t t.encrypt s
