open Ilp_memsim
module Internet = Ilp_checksum.Internet

type outcome = { sequential_mbps : float; fused_mbps : float }

let array_len = 20 (* integers, as in the paper's introduction *)
let bytes_len = array_len * 4

let simulated ?(machine = Config.ss10_30) () =
  let sim = Sim.create machine in
  let src = Alloc.alloc sim.Sim.alloc ~align:8 bytes_len in
  let dst = Alloc.alloc sim.Sim.alloc ~align:8 bytes_len in
  for i = 0 to array_len - 1 do
    Mem.poke_u32 sim.Sim.mem (src + (4 * i)) (i * 2654435761)
  done;
  let marshal = Ilp_core.Dmf.marshalling sim ~name:"e0-marshal" () in
  let reps = 2000 in
  (* Sequential: the marshalling pass writes the XDR buffer, then the
     checksum pass reads it back. *)
  let run_sequential () =
    Ilp_core.Pipeline.run_pass sim marshal ~src ~dst ~len:bytes_len ();
    ignore
      (Internet.checksum_mem sim.Sim.mem ~pos:dst ~len:bytes_len ~acc:Internet.empty)
  in
  (* Fused: one loop marshals and folds the checksum while the words are
     in registers. *)
  let cell = ref Internet.empty in
  let tap block ~off ~len =
    cell := Internet.add_bytes !cell block ~off ~len;
    Machine.compute sim.Sim.machine (Internet.ops ~len)
  in
  let spec = Ilp_core.Pipeline.spec ~read_unit:4 ~write_unit:4 ~tap [ marshal ] in
  let run_fused () =
    cell := Internet.empty;
    Ilp_core.Pipeline.run_fused sim spec ~src ~dst ~len:bytes_len
  in
  let time f =
    Sim.cold_start sim;
    for _ = 1 to reps do
      f ()
    done;
    Machine.micros sim.Sim.machine
  in
  let t_seq = time run_sequential in
  let t_fused = time run_fused in
  let mbps t = float_of_int (bytes_len * reps * 8) /. t in
  { sequential_mbps = mbps t_seq; fused_mbps = mbps t_fused }

(* ------------------------------------------------------------------ *)
(* Wall-clock version: real OCaml code, real memory, Wallbench timing. *)

let wall_src = Array.init array_len (fun i -> (i * 2654435761) land 0xffffffff)

let marshal_into buf =
  for i = 0 to array_len - 1 do
    Bytes.set_int32_be buf (4 * i) (Int32.of_int wall_src.(i))
  done

let checksum_of buf =
  let sum = ref 0 in
  for i = 0 to (bytes_len / 2) - 1 do
    sum := !sum + Bytes.get_uint16_be buf (2 * i);
    if !sum > 0xffff then sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let wall_sequential buf () =
  marshal_into buf;
  ignore (Sys.opaque_identity (checksum_of buf))

let wall_fused buf () =
  let sum = ref 0 in
  for i = 0 to array_len - 1 do
    let v = wall_src.(i) in
    Bytes.set_int32_be buf (4 * i) (Int32.of_int v);
    sum := !sum + (v lsr 16) + (v land 0xffff);
    if !sum > 0xffff then sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  ignore (Sys.opaque_identity (lnot !sum land 0xffff))

let ns_per_call ~quota_s f = Wallbench.ns_per_call ~budget_ns:(quota_s *. 1e9) f

let wall_clock ?(quota_s = 0.5) () =
  let buf = Bytes.create bytes_len in
  let mbps f = float_of_int (bytes_len * 8) /. (ns_per_call ~quota_s f /. 1000.0) in
  { sequential_mbps = mbps (wall_sequential buf); fused_mbps = mbps (wall_fused buf) }

let ciphers_wall_clock ?(quota_s = 0.5) () =
  let block_count = 128 in
  let buf =
    Bytes.init (8 * block_count) (fun i -> Char.chr ((i * 131) land 0xff))
  in
  let key = "wallbenc" in
  let safer6 = Ilp_cipher.Safer.expand_key ~rounds:6 key in
  let safer1 = Ilp_cipher.Safer.expand_key ~rounds:1 key in
  let simplified = Ilp_cipher.Safer_simplified.expand_key key in
  let des = Ilp_cipher.Des.expand_key key in
  let sweep f () =
    for b = 0 to block_count - 1 do
      f buf (b * 8)
    done
  in
  let cases =
    [ ("simple", sweep Ilp_cipher.Simple_cipher.encrypt_block);
      ("safer-simplified", sweep (Ilp_cipher.Safer_simplified.encrypt_block simplified));
      ("safer-k64-1round", sweep (Ilp_cipher.Safer.encrypt_block safer1));
      ("safer-k64-6rounds", sweep (Ilp_cipher.Safer.encrypt_block safer6));
      ("des", sweep (Ilp_cipher.Des.encrypt_block des)) ]
  in
  List.map
    (fun (name, f) ->
      (name, float_of_int (8 * block_count * 8) /. (ns_per_call ~quota_s f /. 1000.0)))
    cases
