open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine
module Linkage = Ilp_core.Linkage

(* ------------------------------------------------------------------ *)
(* Cached measurement *)

(* Keyed on the whole setup, so two runs share a result only when every
   field agrees. *)
let cache : (Ft.setup, Ft.result) Hashtbl.t = Hashtbl.create 64

let measure ?(cipher = Ft.Safer_simplified) ?(copies = 8)
    ?(linkage = Linkage.Macro) ?(coalesce = false)
    ?(header_style = Engine.Leading) ?(rx_placement = Engine.Early)
    ?(uniform_units = false) ~machine ~mode ~size () =
  let setup =
    { (Ft.default_setup ~machine ~mode) with
      Ft.cipher;
      copies;
      max_reply = size;
      linkage;
      coalesce_writes = coalesce;
      header_style;
      rx_placement;
      uniform_units }
  in
  match Hashtbl.find_opt cache setup with
  | Some r -> r
  | None ->
      let r = Ft.run setup in
      (if r.Ft.verdict <> Ilp_app.World.Complete then
         failwith
           (Printf.sprintf "experiment on %s (%d-byte messages) failed: %s"
              machine.Config.name size
              (Ilp_app.World.verdict_to_string r.Ft.verdict)));
      Hashtbl.replace cache setup r;
      r

let send_us r = Ft.mean r.Ft.send_us
let recv_us r = Ft.mean r.Ft.recv_us
let proc_us r = send_us r +. recv_us r

let both ~machine ~size =
  ( measure ~machine ~mode:Engine.Ilp ~size (),
    measure ~machine ~mode:Engine.Separate ~size () )

(* ------------------------------------------------------------------ *)

let e0 () =
  Report.banner "E0 - intro micro-experiment: XDR(20 ints) + checksum";
  let sim = Microbench.simulated () in
  let wall = Microbench.wall_clock () in
  Report.table
    ~header:[ "variant"; "paper Mbit/s"; "simulated Mbit/s"; "wall-clock Mbit/s" ]
    [ [ "sequential";
        Report.mbps Paper_data.e0_sequential_mbps;
        Report.mbps sim.Microbench.sequential_mbps;
        Report.mbps wall.Microbench.sequential_mbps ];
      [ "fused (ILP)";
        Report.mbps Paper_data.e0_fused_mbps;
        Report.mbps sim.Microbench.fused_mbps;
        Report.mbps wall.Microbench.fused_mbps ] ];
  Report.note "paper gain: %+.0f%%  simulated: %+.0f%%  wall-clock: %+.0f%%\n"
    (100.0 *. ((Paper_data.e0_fused_mbps /. Paper_data.e0_sequential_mbps) -. 1.0))
    (100.0 *. ((sim.Microbench.fused_mbps /. sim.Microbench.sequential_mbps) -. 1.0))
    (100.0 *. ((wall.Microbench.fused_mbps /. wall.Microbench.sequential_mbps) -. 1.0))

let paper_row machine size =
  match Paper_data.table1_row ~platform:machine.Config.name ~size with
  | Some r -> r
  | None -> failwith ("no paper data for " ^ machine.Config.name)

let processing_figure ~title ~pick_paper_ilp ~pick_paper_non ~pick_ours () =
  Report.banner title;
  let rows =
    List.map
      (fun machine ->
        let ilp, non = both ~machine ~size:1024 in
        let p = paper_row machine 1024 in
        [ machine.Config.name;
          Report.vs ~paper:(float_of_int (pick_paper_non p)) ~ours:(pick_ours non);
          Report.vs ~paper:(float_of_int (pick_paper_ilp p)) ~ours:(pick_ours ilp);
          Printf.sprintf "%.0f%% / %.0f%%"
            (Report.pct_gain
               ~base:(float_of_int (pick_paper_non p))
               ~better:(float_of_int (pick_paper_ilp p)))
            (Report.pct_gain ~base:(pick_ours non) ~better:(pick_ours ilp)) ])
      Config.all
  in
  Report.table
    ~header:[ "machine"; "non-ILP us (paper -> ours)"; "ILP us (paper -> ours)";
              "gain paper/ours" ]
    rows

let f6 =
  processing_figure ~title:"Figure 6 - receive packet processing, 1 kB"
    ~pick_paper_ilp:(fun p -> p.Paper_data.recv_ilp)
    ~pick_paper_non:(fun p -> p.Paper_data.recv_non)
    ~pick_ours:recv_us

let f7 =
  processing_figure ~title:"Figure 7 - send packet processing, 1 kB"
    ~pick_paper_ilp:(fun p -> p.Paper_data.send_ilp)
    ~pick_paper_non:(fun p -> p.Paper_data.send_non)
    ~pick_ours:send_us

let f8 () =
  Report.banner "Figure 8 - throughput, 1 kB packets";
  let rows =
    List.map
      (fun machine ->
        let ilp, non = both ~machine ~size:1024 in
        let p = paper_row machine 1024 in
        let ours mode_r =
          Platforms.throughput_mbps machine ~size:1024 ~proc_us:(proc_us mode_r)
        in
        [ machine.Config.name;
          Report.vs ~paper:p.Paper_data.tput_non ~ours:(ours non);
          Report.vs ~paper:p.Paper_data.tput_ilp ~ours:(ours ilp) ])
      Config.all
  in
  Report.table
    ~header:
      [ "machine"; "non-ILP Mbit/s (paper -> ours)"; "ILP Mbit/s (paper -> ours)" ]
    rows

let sizes = [ 256; 512; 768; 1024; 1280 ]

let f9 () =
  Report.banner "Figure 9 - throughput vs packet size";
  List.iter
    (fun machine ->
      Report.note "\n-- %s --\n" machine.Config.name;
      let rows =
        List.map
          (fun size ->
            let ilp, non = both ~machine ~size in
            let p = paper_row machine size in
            let ours r = Platforms.throughput_mbps machine ~size ~proc_us:(proc_us r) in
            [ string_of_int size;
              Report.vs ~paper:p.Paper_data.tput_non ~ours:(ours non);
              Report.vs ~paper:p.Paper_data.tput_ilp ~ours:(ours ilp) ])
          sizes
      in
      Report.table
        ~header:[ "size"; "non-ILP Mbit/s"; "ILP Mbit/s" ]
        rows)
    Config.figure9

let f10 () =
  Report.banner "Figure 10 - packet processing vs packet size";
  List.iter
    (fun machine ->
      Report.note "\n-- %s --\n" machine.Config.name;
      let rows =
        List.map
          (fun size ->
            let ilp, non = both ~machine ~size in
            let p = paper_row machine size in
            [ string_of_int size;
              Report.vs ~paper:(float_of_int p.Paper_data.send_non) ~ours:(send_us non);
              Report.vs ~paper:(float_of_int p.Paper_data.send_ilp) ~ours:(send_us ilp);
              Report.vs ~paper:(float_of_int p.Paper_data.recv_non) ~ours:(recv_us non);
              Report.vs ~paper:(float_of_int p.Paper_data.recv_ilp) ~ours:(recv_us ilp) ])
          sizes
      in
      Report.table
        ~header:[ "size"; "send non-ILP"; "send ILP"; "recv non-ILP"; "recv ILP" ]
        rows)
    Config.figure9

let f11 () =
  Report.banner
    "Figure 11 - packet processing, simplified SAFER vs simple encryption (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let row name cipher (paper : Paper_data.f11) =
    let ilp = measure ~machine ~mode:Engine.Ilp ~cipher ~size:1024 () in
    let non = measure ~machine ~mode:Engine.Separate ~cipher ~size:1024 () in
    [ [ name ^ " send";
        Report.vs ~paper:(float_of_int paper.Paper_data.send_non) ~ours:(send_us non);
        Report.vs ~paper:(float_of_int paper.Paper_data.send_ilp) ~ours:(send_us ilp) ];
      [ name ^ " recv";
        Report.vs ~paper:(float_of_int paper.Paper_data.recv_non) ~ours:(recv_us non);
        Report.vs ~paper:(float_of_int paper.Paper_data.recv_ilp) ~ours:(recv_us ilp) ] ]
  in
  Report.table
    ~header:[ "cipher / path"; "non-ILP us (paper -> ours)"; "ILP us (paper -> ours)" ]
    (row "simplified SAFER" Ft.Safer_simplified Paper_data.f11_simplified
    @ row "simple encryption" Ft.Simple_encryption Paper_data.f11_simple)

let f12 () =
  Report.banner "Figure 12 - throughput incl. kernel TCP (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let row name cipher (paper : Paper_data.f12) =
    let ilp = measure ~machine ~mode:Engine.Ilp ~cipher ~size:1024 () in
    let non = measure ~machine ~mode:Engine.Separate ~cipher ~size:1024 () in
    let t r = Platforms.throughput_mbps machine ~size:1024 ~proc_us:(proc_us r) in
    (* Kernel TCP: same (non-ILP) manipulations, kernel overhead profile. *)
    let kernel =
      Platforms.kernel_throughput_mbps machine ~size:1024 ~proc_us:(proc_us non)
    in
    [ name;
      Report.vs ~paper:paper.Paper_data.non_ilp ~ours:(t non);
      Report.vs ~paper:paper.Paper_data.ilp ~ours:(t ilp);
      Report.vs ~paper:paper.Paper_data.kernel ~ours:kernel ]
  in
  Report.table
    ~header:[ "cipher"; "non-ILP Mbit/s"; "ILP Mbit/s"; "kernel-TCP Mbit/s" ]
    [ row "simplified SAFER" Ft.Safer_simplified Paper_data.f12_simplified;
      row "simple encryption" Ft.Simple_encryption Paper_data.f12_simple ]

let paper_volume = 10.7e6

(* Bigger transfer for the memory-system figures, normalised to the
   paper's 10.7 MB. *)
let mem_run ~mode ~cipher =
  let r = measure ~machine:Config.ss10_30 ~mode ~cipher ~size:1024 ~copies:16 () in
  let scale = paper_volume /. float_of_int r.Ft.payload_bytes in
  (r, scale)

let f13 () =
  Report.banner "Figure 13 - memory accesses per 10.7 MB transferred (SS10-30, 1 kB)";
  let line name cipher =
    let ilp, s_ilp = mem_run ~mode:Engine.Ilp ~cipher in
    let non, s_non = mem_run ~mode:Engine.Separate ~cipher in
    let get (r : Ft.result) scale stats kind =
      float_of_int (Stats.accesses stats kind) *. scale |> fun v -> ignore r; v
    in
    [ [ name ^ " send reads";
        Report.millions (get non s_non non.Ft.send_stats Stats.Read);
        Report.millions (get ilp s_ilp ilp.Ft.send_stats Stats.Read) ];
      [ name ^ " send writes";
        Report.millions (get non s_non non.Ft.send_stats Stats.Write);
        Report.millions (get ilp s_ilp ilp.Ft.send_stats Stats.Write) ];
      [ name ^ " recv reads";
        Report.millions (get non s_non non.Ft.recv_stats Stats.Read);
        Report.millions (get ilp s_ilp ilp.Ft.recv_stats Stats.Read) ];
      [ name ^ " recv writes";
        Report.millions (get non s_non non.Ft.recv_stats Stats.Write);
        Report.millions (get ilp s_ilp ilp.Ft.recv_stats Stats.Write) ] ]
  in
  Report.table
    ~header:[ "series"; "non-ILP x1e6"; "ILP x1e6" ]
    (line "simplified SAFER" Ft.Safer_simplified
    @ line "simple encryption" Ft.Simple_encryption);
  let p = Paper_data.f13_simplified in
  Report.note
    "paper anchors (simplified SAFER): send reads %.1fe6 -> %.1fe6 saved %.1fe6;\n\
     recv reads %.1fe6, saved %.1fe6; write savings: send %.1fe6, recv %.1fe6\n"
    p.Paper_data.send_reads_non
    (p.Paper_data.send_reads_non -. p.Paper_data.send_reads_saved)
    p.Paper_data.send_reads_saved p.Paper_data.recv_reads_non
    p.Paper_data.recv_reads_saved p.Paper_data.send_writes_saved
    p.Paper_data.recv_writes_saved

let f14 () =
  Report.banner "Figure 14 - cache misses per 10.7 MB (SS10-30, 1 kB)";
  let line name cipher =
    let ilp, s_ilp = mem_run ~mode:Engine.Ilp ~cipher in
    let non, s_non = mem_run ~mode:Engine.Separate ~cipher in
    let miss stats kind scale = float_of_int (Stats.misses stats kind ~level:1) *. scale in
    let miss1 stats scale =
      float_of_int (Stats.misses_of_size stats Stats.Write ~size:1 ~level:1) *. scale
    in
    [ [ name ^ " send read misses";
        Report.millions (miss non.Ft.send_stats Stats.Read s_non);
        Report.millions (miss ilp.Ft.send_stats Stats.Read s_ilp) ];
      [ name ^ " send write misses";
        Report.millions (miss non.Ft.send_stats Stats.Write s_non);
        Report.millions (miss ilp.Ft.send_stats Stats.Write s_ilp) ];
      [ name ^ " send 1-byte write misses";
        Report.millions (miss1 non.Ft.send_stats s_non);
        Report.millions (miss1 ilp.Ft.send_stats s_ilp) ];
      [ name ^ " recv write misses";
        Report.millions (miss non.Ft.recv_stats Stats.Write s_non);
        Report.millions (miss ilp.Ft.recv_stats Stats.Write s_ilp) ];
      [ name ^ " recv miss ratio %";
        Printf.sprintf "%.1f" (100.0 *. Stats.data_miss_ratio non.Ft.recv_stats);
        Printf.sprintf "%.1f" (100.0 *. Stats.data_miss_ratio ilp.Ft.recv_stats) ] ]
  in
  Report.table
    ~header:[ "series"; "non-ILP"; "ILP" ]
    (line "simplified SAFER" Ft.Safer_simplified
    @ line "simple encryption" Ft.Simple_encryption);
  Report.note
    "paper (simplified SAFER): recv miss ratio %.1f%% -> %.1f%%; recv write misses \
     %.1fe6 -> %.1fe6; send 1-byte misses %.2fe6 -> %.1fe6\n"
    (100.0 *. Paper_data.recv_miss_ratio_non)
    (100.0 *. Paper_data.recv_miss_ratio_ilp)
    Paper_data.recv_write_misses_non Paper_data.recv_write_misses_ilp
    Paper_data.send_byte_misses_non Paper_data.send_byte_misses_ilp;
  (* The paper's section 4.2 atom paragraph: memory-system time on the
     AXP 3000/500. *)
  let axp = Config.axp3000_500 in
  let ilp = measure ~machine:axp ~mode:Engine.Ilp ~size:1024 ~copies:16 () in
  let non = measure ~machine:axp ~mode:Engine.Separate ~size:1024 ~copies:16 () in
  Report.note "\nAXP 3000/500 memory-system time (atom, section 4.2):\n";
  Report.table
    ~header:[ "path"; "ILP / non-ILP stall ratio (paper)"; "ours" ]
    [ [ "send"; "0.494s / 0.539s = 0.92";
        Printf.sprintf "%.2f" (ilp.Ft.send_stall_us /. non.Ft.send_stall_us) ];
      [ "receive"; "0.292s / 0.295s = 0.99";
        Printf.sprintf "%.2f" (ilp.Ft.recv_stall_us /. non.Ft.recv_stall_us) ] ];
  Report.note
    "I-cache share of the ILP run's memory-system time: %.0f%% (paper: 24-28%%)\n"
    (100.0 *. ilp.Ft.ifetch_stall_us
    /. (ilp.Ft.send_stall_us +. ilp.Ft.recv_stall_us))

let t1 () =
  Report.banner "Table 1 - full grid (paper -> ours)";
  (* Per machine, the printed |deviation| of each throughput and each
     processing cell, for the fit block after the grid. *)
  let fit =
    List.map
      (fun machine ->
        Report.note "\n-- %s --\n" machine.Config.name;
        let cells =
          List.map
            (fun size ->
              let ilp, non = both ~machine ~size in
              let p = paper_row machine size in
              let t r = Platforms.throughput_mbps machine ~size ~proc_us:(proc_us r) in
              let us n = float_of_int n in
              ( size,
                [ (p.Paper_data.tput_ilp, t ilp); (p.Paper_data.tput_non, t non) ],
                [ (us p.Paper_data.send_ilp, send_us ilp);
                  (us p.Paper_data.recv_ilp, recv_us ilp);
                  (us p.Paper_data.send_non, send_us non);
                  (us p.Paper_data.recv_non, recv_us non) ] ))
            sizes
        in
        let vs (paper, ours) = Report.vs ~paper ~ours in
        Report.table
          ~header:
            [ "size"; "tput ILP"; "tput non"; "send ILP us"; "recv ILP us";
              "send non us"; "recv non us" ]
          (List.map
             (fun (size, tput, proc) -> string_of_int size :: List.map vs (tput @ proc))
             cells);
        let pct cols =
          List.map
            (fun (paper, ours) -> Report.vs_abs_pct ~paper ~ours)
            (List.concat_map cols cells)
        in
        ( machine.Config.name,
          pct (fun (_, tput, _) -> tput),
          pct (fun (_, _, proc) -> proc) ))
      Config.all
  in
  let within cells = List.length (List.filter (fun d -> d <= 15) cells) in
  let mean cells =
    float_of_int (List.fold_left ( + ) 0 cells) /. float_of_int (List.length cells)
  in
  let tput = List.concat_map (fun (_, t, _) -> t) fit in
  let proc = List.concat_map (fun (_, _, p) -> p) fit in
  Report.note "\n-- fit to the paper, from the rounded percentages above --\n";
  Report.note "processing cells within +-15%%: %d of %d\n" (within proc)
    (List.length proc);
  Report.note "throughput cells within +-15%%: %d of %d\n" (within tput)
    (List.length tput);
  Report.note "mean |deviation| of the processing cells: %.1f%%\n" (mean proc);
  Report.table
    ~header:[ "machine"; "mean |deviation|" ]
    (List.map (fun (name, _, p) -> [ name; Printf.sprintf "%.1f%%" (mean p) ]) fit)

let a1 () =
  Report.banner "Ablation A1 - macro inlining vs function calls (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let non = measure ~machine ~mode:Engine.Separate ~size:1024 () in
  let macro = measure ~machine ~mode:Engine.Ilp ~size:1024 () in
  let calls =
    measure ~machine ~mode:Engine.Ilp ~linkage:Linkage.function_calls ~size:1024 ()
  in
  Report.table
    ~header:[ "variant"; "send us"; "recv us"; "gain vs non-ILP" ]
    [ [ "non-ILP"; Report.us (send_us non); Report.us (recv_us non); "-" ];
      [ "ILP, macros";
        Report.us (send_us macro);
        Report.us (recv_us macro);
        Printf.sprintf "%.0f%%" (Report.pct_gain ~base:(proc_us non) ~better:(proc_us macro)) ];
      [ "ILP, function calls";
        Report.us (send_us calls);
        Report.us (recv_us calls);
        Printf.sprintf "%.0f%%" (Report.pct_gain ~base:(proc_us non) ~better:(proc_us calls)) ] ];
  Report.note
    "paper: substituting macros by function calls loses all ILP benefit (3.2.1)\n"

let a2 () =
  Report.banner "Ablation A2 - store sizing: cipher byte stores vs LCM stores (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let plain = measure ~machine ~mode:Engine.Ilp ~size:1024 ~copies:16 () in
  let lcm = measure ~machine ~mode:Engine.Ilp ~coalesce:true ~size:1024 ~copies:16 () in
  let wm (r : Ft.result) = Stats.misses r.Ft.recv_stats Stats.Write ~level:1 in
  Report.table
    ~header:[ "variant"; "send us"; "recv us"; "recv write misses" ]
    [ [ "byte-wise stores (as measured in the paper)";
        Report.us (send_us plain); Report.us (recv_us plain);
        string_of_int (wm plain) ];
      [ "Le = LCM stores (the section 2.2 remedy)";
        Report.us (send_us lcm); Report.us (recv_us lcm);
        string_of_int (wm lcm) ] ]

let a4 () =
  Report.banner "Ablation A4 - trailer length field (section 5), ILP mode";
  let line machine =
    let leading = measure ~machine ~mode:Engine.Ilp ~size:1024 () in
    let trailer =
      measure ~machine ~mode:Engine.Ilp ~header_style:Engine.Trailer ~size:1024 ()
    in
    let imiss (r : Ft.result) = Stats.misses r.Ft.total_stats Stats.Ifetch ~level:1 in
    [ [ machine.Config.name ^ " leading";
        Report.us (send_us leading); Report.us (recv_us leading);
        string_of_int (imiss leading) ];
      [ machine.Config.name ^ " trailer";
        Report.us (send_us trailer); Report.us (recv_us trailer);
        string_of_int (imiss trailer) ] ]
  in
  Report.table
    ~header:[ "variant"; "send us"; "recv us"; "I-cache misses (total)" ]
    (line Config.ss10_30 @ line Config.axp3000_800)

let a5 () =
  Report.banner "Ablation A5 - receive placement (section 3.2.3), ILP mode (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let early = measure ~machine ~mode:Engine.Ilp ~size:1024 () in
  let late =
    measure ~machine ~mode:Engine.Ilp ~rx_placement:Engine.Late ~size:1024 ()
  in
  Report.table
    ~header:[ "placement"; "recv us"; "send us" ]
    [ [ "early: integrated right after the system copy (the paper's choice)";
        Report.us (recv_us early); Report.us (send_us early) ];
      [ "late: deferred to delivery, TCP checksums separately";
        Report.us (recv_us late); Report.us (send_us late) ] ];
  Report.note
    "paper: both placements measured within ~5 us of each other; reproduced --
     the late placement's separate TCP checksum pass is offset by dropping the
     fused loop's checksum tap and its register pressure.  Both the paper and
     this stack default to early placement: checksum errors are then known
     before TCP control processing, so nothing needs rolling back.
"

let a6 () =
  Report.banner
    "Ablation A6 - uniform processing unit sizes (section 5), ILP mode (SS10-30, 1 kB)";
  let machine = Config.ss10_30 in
  let mixed = measure ~machine ~mode:Engine.Ilp ~size:1024 () in
  let uniform = measure ~machine ~mode:Engine.Ilp ~uniform_units:true ~size:1024 () in
  Report.table
    ~header:[ "variant"; "send us"; "recv us" ]
    [ [ "mixed units (XDR 4 B, cipher 8 B; the measured system)";
        Report.us (send_us mixed); Report.us (recv_us mixed) ];
      [ "uniform units (both 8 B)";
        Report.us (send_us uniform); Report.us (recv_us uniform) ] ];
  Report.note
    "section 5 suggests uniform unit sizes as an ILP-friendly protocol\n\
     feature: one marshalling invocation per cipher block saves per-unit\n\
     dispatch in the fused loop.\n"

let wall () =
  Report.banner "Wall-clock cipher kernels (this host)";
  let results = Microbench.ciphers_wall_clock () in
  Report.table
    ~header:[ "cipher"; "Mbit/s (host)"; "paper (SPARCstation 10)" ]
    (List.map
       (fun (name, mbps) ->
         let paper =
           match name with
           | "safer-simplified" -> "~50"
           | "safer-k64-1round" -> "~25"
           | "des" -> "0.5-1"
           | _ -> "-"
         in
         [ name; Report.mbps mbps; paper ])
       results);
  Report.note
    "the ordering simple >> simplified >> 1-round SAFER >> 6-round >> DES is the
     paper's cipher-cost hierarchy; absolute numbers are this host's.
"

(* Machine-readable export of the full grid, for plotting. *)
let t1_csv () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "machine,size,paper_tput_ilp,ours_tput_ilp,paper_tput_non,ours_tput_non,paper_send_ilp_us,ours_send_ilp_us,paper_recv_ilp_us,ours_recv_ilp_us,paper_send_non_us,ours_send_non_us,paper_recv_non_us,ours_recv_non_us\n";
  List.iter
    (fun machine ->
      List.iter
        (fun size ->
          let ilp, non = both ~machine ~size in
          let p = paper_row machine size in
          let t r = Platforms.throughput_mbps machine ~size ~proc_us:(proc_us r) in
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.2f,%.2f,%.2f,%.2f,%d,%.1f,%d,%.1f,%d,%.1f,%d,%.1f\n"
               machine.Config.name size p.Paper_data.tput_ilp (t ilp)
               p.Paper_data.tput_non (t non) p.Paper_data.send_ilp (send_us ilp)
               p.Paper_data.recv_ilp (recv_us ilp) p.Paper_data.send_non
               (send_us non) p.Paper_data.recv_non (recv_us non)))
        sizes)
    Config.all;
  Buffer.contents buf

(* Every experiment by name, in the order [all] runs them. *)
let table =
  [ ("e0", e0); ("f6", f6); ("f7", f7); ("f8", f8); ("f9", f9); ("f10", f10);
    ("f11", f11); ("f12", f12); ("f13", f13); ("f14", f14); ("t1", t1);
    ("a1", a1); ("a2", a2); ("a4", a4); ("a5", a5); ("a6", a6);
    ("wall", wall) ]

let all () = List.iter (fun (_, run) -> run ()) table
let names = List.map fst table @ [ "all" ]

let run_named name =
  match List.assoc_opt name (table @ [ ("all", all) ]) with
  | Some run -> Ok (run ())
  | None -> Error (Printf.sprintf "unknown experiment %S" name)
