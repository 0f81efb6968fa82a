(* A "production" configuration: the real SAFER K-64 (6 rounds, the
   published algorithm, test-vector-exact), a lossy reordering network,
   and the section 5 trailer framing — the protocol-design variant the
   paper recommends for ILP-friendliness.

   Run with: dune exec examples/secure_transfer.exe *)

open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine

let run name setup =
  let r = Ft.run setup in
  Printf.printf "%-34s %s  send %.0f us  recv %.0f us  rexmit %d\n" name
    (if r.Ft.verdict = Ilp_app.World.Complete then "ok " else "BAD")
    (Ft.mean r.Ft.send_us) (Ft.mean r.Ft.recv_us) r.Ft.retransmissions;
  r

let () =
  print_endline "secure transfer: full SAFER K-64 over a lossy link (SS20-60)\n";
  let base =
    { (Ft.default_setup ~machine:Config.ss20_60 ~mode:Engine.Ilp) with
      Ft.cipher = Ft.Safer_full 6;
      copies = 4;
      loss_rate = 0.05;
      seed = 2026 }
  in
  let ilp = run "ILP, leading length field" base in
  let non = run "non-ILP" { base with Ft.mode = Engine.Separate } in
  let trailer = run "ILP, trailer length field" { base with Ft.header_style = Engine.Trailer } in
  ignore trailer;
  let proc (r : Ft.result) = Ft.mean r.Ft.send_us +. Ft.mean r.Ft.recv_us in
  Printf.printf
    "\nILP gain with the REAL cipher: %.0f%% — compare ~20%% with the\n\
     simplified one.  A 6-round byte-oriented block cipher costs ~10x the\n\
     rest of the stack, so integrating the loops saves a fixed amount that\n\
     shrinks relative to total time (the paper's section 4.1 point, and\n\
     why DES experiments showed no ILP gain at all).\n"
    (100.0 *. (1.0 -. (proc ilp /. proc non)));
  (* Every byte was decrypted, unmarshalled and verified against the
     original file despite 5% datagram loss. *)
  Printf.printf "bytes verified end-to-end: %d (x%d copies), loss recovered by TCP\n"
    ilp.Ft.payload_bytes (base.Ft.copies)
