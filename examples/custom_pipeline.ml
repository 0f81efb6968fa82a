(* Build your own integrated pipeline from the public API.

   This example steps outside the paper's fixed stack: it integrates DES
   encryption with a CRC-32 tap over raw buffers, chooses the exchange
   unit with Units.exchange_unit, and compares the fused loop against
   sequential passes — the same comparison the paper makes, on a stack
   the paper never built.

   Run with: dune exec examples/custom_pipeline.exe *)

open Ilp_memsim
module P = Ilp_core.Pipeline
module Dmf = Ilp_core.Dmf
module Units = Ilp_core.Units

let () =
  print_endline "custom pipeline: DES + CRC-32 tap on a simulated AXP 3000/800\n";
  let sim = Sim.create Config.axp3000_800 in
  let len = 4096 in
  let data = Ilp_app.Workload.generate ~len ~seed:42 in
  let src = Ilp_app.Workload.install sim data in
  let dst = Alloc.alloc sim.Sim.alloc ~align:64 len in

  (* Stage 1: a word-oriented marshalling step (4-byte units).
     Stage 2: DES (8-byte units).  The exchange unit is their LCM. *)
  let des = Ilp_cipher.Des.charged sim ~key:"examples" () in
  let stages = [ Dmf.marshalling sim (); Dmf.of_cipher_encrypt des ] in
  let le = Units.exchange_unit (List.map (fun d -> d.Dmf.unit_len) stages) in
  Printf.printf "exchange unit Le = LCM(4, 8) = %d bytes\n\n" le;

  (* A CRC-32 tap rides along in the fused loop, observing ciphertext. *)
  let crc = Ilp_checksum.Crc32.create sim.Sim.mem sim.Sim.alloc in
  let crc_acc = ref Ilp_checksum.Crc32.init in
  let tap block ~off ~len =
    crc_acc := Ilp_checksum.Crc32.update_block crc ~crc:!crc_acc block ~off ~len
  in

  let time name f =
    Sim.cold_start sim;
    f ();
    let us = Machine.micros sim.Sim.machine in
    Printf.printf "%-22s %8.1f us   (%.1f Mbit/s)\n" name us
      (float_of_int (len * 8) /. us);
    us
  in

  (* Conventional: one pass per manipulation, then a CRC pass. *)
  let sequential () =
    List.iteri
      (fun i stage ->
        let from = if i = 0 then src else dst in
        P.run_pass sim stage ~src:from ~dst ~len ())
      stages;
    crc_acc :=
      Ilp_checksum.Crc32.update_mem crc ~crc:Ilp_checksum.Crc32.init sim.Sim.mem
        ~pos:dst ~len
  in
  let t_seq = time "sequential passes" sequential in
  let crc_seq = Ilp_checksum.Crc32.finish !crc_acc in

  (* Integrated: one loop, CRC folded in. *)
  let fused () =
    crc_acc := Ilp_checksum.Crc32.init;
    let spec = P.spec ~tap ~tap_position:P.Tap_output stages in
    P.run_fused sim spec ~src ~dst ~len
  in
  let t_fused = time "fused ILP loop" fused in
  let crc_fused = Ilp_checksum.Crc32.finish !crc_acc in

  Printf.printf "\nCRC-32 sequential : %08x\n" crc_seq;
  Printf.printf "CRC-32 fused      : %08x   (identical: %b)\n" crc_fused
    (crc_seq = crc_fused);
  Printf.printf "fusion gain       : %.0f%%\n"
    (100.0 *. (1.0 -. (t_fused /. t_seq)));
  print_endline
    "\nNote how modest the gain is: DES is so ALU-heavy that eliminating\n\
     memory passes barely moves the needle — exactly why the paper had to\n\
     simplify its cipher (section 3.1, citing Gunningberg et al.)."
