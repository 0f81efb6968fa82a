(* Cache sensitivity: how the ILP gain depends on the machine.

   The paper's section 4.2 explains its timing results through the memory
   hierarchy.  This example makes that knob explicit: it runs the same
   file transfer on synthetic machines sweeping the data-cache size and
   the presence of a second-level cache, printing how the ILP advantage
   and the miss ratios move.

   Run with: dune exec examples/cache_explorer.exe *)

open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine

let machine ~l1d_kb ~with_l2 =
  let l1d : Cache.config =
    { size = l1d_kb * 1024; line = 32; assoc = 4;
      write_policy = Cache.Write_through; write_allocate = false }
  in
  let l1i : Cache.config =
    { size = 20 * 1024; line = 64; assoc = 5;
      write_policy = Cache.Write_back; write_allocate = true }
  in
  let l2 =
    if with_l2 then
      Some
        { Cache.size = 1024 * 1024; line = 128; assoc = 1;
          write_policy = Cache.Write_back; write_allocate = true }
    else None
  in
  Config.custom
    ~name:(Printf.sprintf "%dkB%s" l1d_kb (if with_l2 then "+L2" else ""))
    ~clock_mhz:36.0 ~l1d ~l1i ~l2 ~l2_hit_ns:150.0 ~mem_ns:420.0
    ~store_buffer_ns:40.0 ()

let run machine mode =
  let r = Ft.run { (Ft.default_setup ~machine ~mode) with Ft.copies = 4 } in
  if r.Ft.verdict <> Ilp_app.World.Complete then failwith "transfer failed";
  r

let () =
  print_endline "ILP gain vs cache geometry (simplified SAFER, 1 kB packets)\n";
  Printf.printf "%-10s %14s %14s %8s %18s\n" "machine" "non-ILP us" "ILP us" "gain"
    "recv miss ILP/non";
  List.iter
    (fun (l1d_kb, with_l2) ->
      let m = machine ~l1d_kb ~with_l2 in
      let non = run m Engine.Separate in
      let ilp = run m Engine.Ilp in
      let proc (r : Ft.result) = Ft.mean r.Ft.send_us +. Ft.mean r.Ft.recv_us in
      Printf.printf "%-10s %14.1f %14.1f %7.0f%% %8.1f%% / %.1f%%\n" m.Config.name
        (proc non) (proc ilp)
        (100.0 *. (1.0 -. (proc ilp /. proc non)))
        (100.0 *. Stats.data_miss_ratio ilp.Ft.recv_stats)
        (100.0 *. Stats.data_miss_ratio non.Ft.recv_stats))
    [ (4, false); (8, false); (16, false); (16, true); (64, true) ];
  print_endline
    "\nReadings: a small first-level cache hurts both styles; adding an L2\n\
     rescues the misses that ILP's byte-wise stores produce; with a large\n\
     cache the non-ILP intermediate buffers stay resident and the gap is\n\
     down to pure instruction savings — the paper's claim that ILP's\n\
     benefit is fewer memory ACCESSES, not better cache behaviour."
