type blocks_fn = Bytes.t -> int -> int -> unit

type t = {
  name : string;
  block_len : int;
  encrypt : Bytes.t -> int -> unit;
  decrypt : Bytes.t -> int -> unit;
  encrypt_blocks : blocks_fn option;
  decrypt_blocks : blocks_fn option;
  code_encrypt : Ilp_memsim.Code.region;
  code_decrypt : Ilp_memsim.Code.region;
  store_unit : int;
}

let check_blocks t buf ~off ~count =
  if off < 0 || count < 0 || off + (count * t.block_len) > Bytes.length buf then
    invalid_arg (t.name ^ ": block run out of bounds")

let run_blocks per_block block_len buf off count =
  for i = 0 to count - 1 do
    per_block buf (off + (i * block_len))
  done

let encrypt_blocks t buf ~off ~count =
  check_blocks t buf ~off ~count;
  match t.encrypt_blocks with
  | Some f -> f buf off count
  | None -> run_blocks t.encrypt t.block_len buf off count

let decrypt_blocks t buf ~off ~count =
  check_blocks t buf ~off ~count;
  match t.decrypt_blocks with
  | Some f -> f buf off count
  | None -> run_blocks t.decrypt t.block_len buf off count

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
