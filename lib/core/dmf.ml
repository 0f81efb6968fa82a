type t = {
  name : string;
  unit_len : int;
  code : Ilp_memsim.Code.region;
  transform : Bytes.t -> int -> unit;
}

let create ~name ~unit_len ~code transform =
  if unit_len <= 0 then invalid_arg "Dmf.create: unit_len";
  { name; unit_len; code; transform }

let of_cipher_encrypt (c : Ilp_cipher.Block_cipher.t) =
  { name = c.name ^ "-encrypt";
    unit_len = c.block_len;
    code = c.code_encrypt;
    transform = c.encrypt }

let of_cipher_decrypt (c : Ilp_cipher.Block_cipher.t) =
  { name = c.name ^ "-decrypt";
    unit_len = c.block_len;
    code = c.code_decrypt;
    transform = c.decrypt }

(* ALU ops per 4-byte word of XDR marshalling. *)
let ops_per_word = 2

let marshalling (sim : Ilp_memsim.Sim.t) ?(name = "xdr-marshal") ?(unit_len = 4)
    () =
  if unit_len mod 4 <> 0 then invalid_arg "Dmf.marshalling: unit_len";
  let code = Ilp_memsim.Code.alloc sim.code ~len:896 in
  let machine = sim.Ilp_memsim.Sim.machine in
  (* Per-invocation dispatch (field decode, pointer bump) plus the
     per-word work: this is what uniform unit sizes amortise. *)
  let ops = (ops_per_word * (unit_len / 4)) + 1 in
  { name;
    unit_len;
    code;
    transform = (fun _ _ -> Ilp_memsim.Machine.compute machine ops) }

let identity n =
  { name = "identity";
    unit_len = n;
    code = Ilp_memsim.Code.none;
    transform = (fun _ _ -> ()) }

let apply_over t block ~off ~len =
  if len mod t.unit_len <> 0 then
    invalid_arg (Printf.sprintf "Dmf.apply_over: %d not a multiple of %d" len t.unit_len);
  (* [for] rather than a [ref] cursor: this runs per stage per block of
     every fused simulated message, and a ref cell is an allocation. *)
  for j = 0 to (len / t.unit_len) - 1 do
    t.transform block (off + (j * t.unit_len))
  done
