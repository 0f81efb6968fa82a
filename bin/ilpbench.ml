(* The ilpbench command-line interface.

   ilpbench experiments [NAMES...]   regenerate the paper's tables/figures
   ilpbench transfer [OPTIONS]       one configurable measured transfer
   ilpbench machines                 list the modelled workstations *)

open Cmdliner
open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine
module Linkage = Ilp_core.Linkage

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* experiments *)

let experiments_cmd =
  let names =
    Arg.(value & pos_all string [ "all" ]
         & info [] ~docv:"NAME"
             ~doc:"Experiments to run (e0 f6-f14 t1 a1 a2 a4 a5 a6 wall all).")
  in
  let run names =
    List.fold_left
      (fun acc name ->
        match Ilp_bench.Experiments.run_named name with
        | Ok () -> acc
        | Error msg ->
            Printf.eprintf "%s (available: %s)\n" msg
              (String.concat ", " Ilp_bench.Experiments.names);
            1)
      0 names
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ names)

(* ------------------------------------------------------------------ *)
(* transfer *)

let machine_conv =
  let parse s =
    match Config.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown machine %S (try: %s)" s
                (String.concat ", "
                   (List.map (fun m -> m.Config.name) Config.all))))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf m.Config.name)

let cipher_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Ft.cipher_of_name s)),
      fun ppf c -> Format.pp_print_string ppf (Ft.cipher_name c) )

let cipher_doc =
  Printf.sprintf "One of: %s."
    (String.concat ", " (List.map Ft.cipher_name Ft.ciphers))

let transfer_cmd =
  let machine =
    Arg.(value & opt machine_conv Config.ss10_30
         & info [ "machine"; "m" ] ~docv:"NAME" ~doc:"Simulated workstation.")
  in
  let ilp =
    Arg.(value & flag & info [ "ilp" ] ~doc:"Integrated (ILP) implementation.")
  in
  let cipher =
    Arg.(value & opt cipher_conv Ft.Safer_simplified
         & info [ "cipher"; "c" ] ~docv:"CIPHER" ~doc:cipher_doc)
  in
  let size =
    Arg.(value & opt int 1024
         & info [ "size"; "s" ] ~docv:"BYTES" ~doc:"Payload bytes per message.")
  in
  let copies =
    Arg.(value & opt int 8 & info [ "copies" ] ~docv:"N" ~doc:"File copies to send.")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Datagram loss rate.")
  in
  let trailer =
    Arg.(value & flag & info [ "trailer" ] ~doc:"Trailer-placed length field (section 5).")
  in
  let coalesce =
    Arg.(value & flag
         & info [ "coalesce-writes" ] ~doc:"LCM-sized stores (the section 2.2 remedy).")
  in
  let calls =
    Arg.(value & flag
         & info [ "function-calls" ]
             ~doc:"Function-call linkage instead of macro inlining (section 3.2.1).")
  in
  let late =
    Arg.(value & flag
         & info [ "late" ] ~doc:"Defer receive manipulations to delivery (section 3.2.3).")
  in
  let uniform =
    Arg.(value & flag
         & info [ "uniform-units" ]
             ~doc:"Uniform processing-unit sizes (section 5).")
  in
  let native =
    Arg.(value & flag
         & info [ "native" ]
             ~doc:"Run the data manipulations through the un-simulated \
                   fast-path kernels (wire bytes identical; the simulated \
                   counters then cover only the protocol machinery).")
  in
  let crc =
    Arg.(value & flag
         & info [ "crc32" ]
             ~doc:"End-to-end CRC32 trailer on every message (closes the \
                   16-bit checksum collision hole).")
  in
  let run machine ilp cipher size copies loss trailer coalesce calls late uniform
      native crc =
    let mode = if ilp then Engine.Ilp else Engine.Separate in
    let setup =
      { (Ft.default_setup ~machine ~mode) with
        Ft.cipher;
        max_reply = size;
        copies;
        loss_rate = loss;
        header_style = (if trailer then Engine.Trailer else Engine.Leading);
        coalesce_writes = coalesce;
        linkage = (if calls then Linkage.function_calls else Linkage.Macro);
        rx_placement = (if late then Engine.Late else Engine.Early);
        uniform_units = uniform;
        native;
        crc }
    in
    let r = Ft.run setup in
    Printf.printf "machine      %s (%.0f MHz)\n" machine.Config.name
      machine.Config.clock_mhz;
    Printf.printf "mode         %s%s%s%s%s%s\n"
      (if ilp then "ILP" else "non-ILP")
      (if trailer then ", trailer" else "")
      (if coalesce then ", coalesced stores" else "")
      (if calls then ", function calls" else "")
      (if native then ", native kernels" else "")
      (if crc then ", crc32 trailer" else "");
    Printf.printf "status       %s\n"
      (match r.Ft.verdict with
      | Ilp_app.World.Complete -> "transfer complete, every byte verified"
      | v -> "FAILED: " ^ Ilp_app.World.verdict_to_string v);
    Printf.printf "messages     %d (%d payload bytes, %d wire bytes)\n" r.Ft.n_replies
      r.Ft.payload_bytes r.Ft.wire_bytes;
    Printf.printf "send         %.1f us/packet (%.1f us system copy)\n"
      (Ft.mean r.Ft.send_us) (Ft.mean r.Ft.send_syscopy_us);
    Printf.printf "receive      %.1f us/packet\n" (Ft.mean r.Ft.recv_us);
    Printf.printf "throughput   %.2f Mbit/s (with the %s overhead model)\n"
      (Ilp_bench.Platforms.throughput_mbps machine ~size
         ~proc_us:(Ft.mean r.Ft.send_us +. Ft.mean r.Ft.recv_us))
      machine.Config.name;
    Printf.printf "memory       %d reads, %d writes; recv miss ratio %.1f%%\n"
      (Stats.accesses r.Ft.total_stats Stats.Read)
      (Stats.accesses r.Ft.total_stats Stats.Write)
      (100.0 *. Stats.data_miss_ratio r.Ft.recv_stats);
    Printf.printf "tcp          %d retransmissions, %d checksum failures\n"
      r.Ft.retransmissions r.Ft.checksum_failures;
    if r.Ft.verdict = Ilp_app.World.Complete then 0 else 1
  in
  Cmd.v
    (Cmd.info "transfer" ~doc:"Run one measured file transfer.")
    Term.(
      const run $ machine $ ilp $ cipher $ size $ copies $ loss $ trailer $ coalesce
      $ calls $ late $ uniform $ native $ crc)

(* ------------------------------------------------------------------ *)
(* wall *)

let wall_cmd =
  let module Wb = Ilp_bench.Wallbench in
  let cipher =
    Arg.(value & opt cipher_conv Ft.Simple_encryption
         & info [ "cipher"; "c" ] ~docv:"CIPHER" ~doc:cipher_doc)
  in
  let out =
    Arg.(value & opt string "BENCH_wall.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON trajectory output path.")
  in
  let trials =
    Arg.(value & opt int 9
         & info [ "trials" ] ~docv:"K" ~doc:"Paired separate/ILP trials per point (median taken).")
  in
  let sizes =
    Arg.(value & opt (list int) [ 1024; 8192; 65536; 524288 ]
         & info [ "sizes" ] ~docv:"BYTES,..."
             ~doc:"Message sizes, each a positive multiple of 8.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke variant: fewer sizes (1k/8k/64k) and 5 trials.")
  in
  let min_speedup =
    Arg.(value & opt (some float) None
         & info [ "min-speedup" ] ~docv:"X"
             ~doc:"Fail (exit 1) unless the ILP speedup is at least $(docv) \
                   at every size.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Also run the kernels under the span tracer and print a \
                   per-stage time-share table (4 KiB and 64 KiB messages).")
  in
  let run cipher out trials sizes quick min_speedup trace =
    let cipher = Ft.fastpath_cipher cipher in
    let sizes = if quick then [ 1024; 8192; 65536 ] else sizes in
    let trials = if quick then 5 else trials in
    match Wb.run ~cipher ~sizes ~trials () with
    | r ->
        Wb.print_table r;
        if trace then
          Wb.print_stage_tables
            (Wb.stages ~cipher ~sizes:[ 4096; 65536 ]
               ~reps:(if quick then 64 else 256) ());
        write_file out (Wb.to_json r);
        Printf.printf "wrote %s\n" out;
        (match min_speedup with
        | None -> 0
        | Some floor ->
            let slow =
              List.filter (fun p -> p.Wb.speedup < floor) r.Wb.points
            in
            if slow = [] then 0
            else begin
              List.iter
                (fun p ->
                  Printf.eprintf
                    "ilpbench: speedup %.3f at %d bytes is below the %.3f floor\n"
                    p.Wb.speedup p.Wb.len floor)
                slow;
              1
            end)
    | exception Invalid_argument msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        1
  in
  Cmd.v
    (Cmd.info "wall"
       ~doc:
         "Wall-clock benchmark of the native fast path: separate four-pass \
          stack versus the fused ILP loop, on this host.")
    Term.(const run $ cipher $ out $ trials $ sizes $ quick $ min_speedup $ trace)

(* ------------------------------------------------------------------ *)
(* mem *)

let mem_cmd =
  let module Mtr = Ilp_bench.Memtrace in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON trajectory output path.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke variant: two sizes, fewer messages per point.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Fail (exit 1) unless the single-copy gates hold at every \
                   size: native lanes copy at most 2 (ILP) or 3 (separate) \
                   host bytes per wire byte, at most 1 on the receive \
                   direction; every lane allocates no ledger bytes and no \
                   direct major-heap words, allocates no more minor words \
                   per message than at the smallest size, and balances its \
                   pool (an unreturned rx placement buffer fails here — \
                   also across a crash-resumed transfer's aborts); and \
                   disabled-path tracing is allocation-free.")
  in
  (* The abort-path pool gate: crash-resumed transfers tear sockets and
     server instances down mid-flight; every pooled buffer they held must
     come back.  Run a few seeded crash/restart transfers and demand the
     crash soak's verdict, which also fails a vacuous run (no crash or
     no resumed completion). *)
  let crash_pool_gate () =
    let module Soak = Ilp_app.Soak in
    let cfg =
      { (Soak.default_config Soak.Crash) with Soak.runs = 6; file_len = 1024 }
    in
    match Soak.verdict (Soak.run cfg) with
    | Soak.Held _ -> Ok ()
    | Soak.Violated line | Soak.Vacuous line ->
        Error [ "crash-resume pool: " ^ line ]
  in
  let run out quick check_gates =
    let config = if quick then Mtr.quick_config else Mtr.default_config in
    match Mtr.run ~config () with
    | r ->
        Mtr.print_table r;
        write_file out (Mtr.to_json r);
        Printf.printf "wrote %s\n" out;
        if not check_gates then 0
        else begin
          let gates =
            match (Mtr.check r, crash_pool_gate ()) with
            | Ok (), Ok () -> Ok ()
            | Error a, Error b -> Error (a @ b)
            | (Error _ as e), Ok () | Ok (), (Error _ as e) -> e
          in
          match gates with
          | Ok () ->
              print_endline
                "mem gates held: native copies per wire byte <= 2 (ilp) / 3 \
                 (separate), <= 1 on receive; no ledger or major-heap \
                 allocation; minor words flat in size; pool balanced across \
                 crash-resumed aborts";
              0
          | Error failures ->
              List.iter (fun f -> Printf.eprintf "ilpbench: mem gate: %s\n" f) failures;
              1
        end
    | exception Invalid_argument msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        2
    | exception Failure msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "mem"
       ~doc:
         "Memory-traffic benchmark: host bytes copied and GC allocation per \
          message on the single-copy data path, across modes, backends and \
          sizes.")
    Term.(const run $ out $ quick $ check)

(* ------------------------------------------------------------------ *)
(* stream *)

let stream_cmd =
  let module Sb = Ilp_bench.Streambench in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON trajectory output path.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke variant: a 256 KiB transfer over a smaller grid.")
  in
  let bytes =
    Arg.(value & opt (some int) None
         & info [ "bytes"; "b" ] ~docv:"N"
             ~doc:"Payload bytes per transfer (default: 2 MiB, 256 KiB with \
                   $(b,--quick)).")
  in
  let mss =
    Arg.(value & opt int Sb.default_config.Sb.mss
         & info [ "mss" ] ~docv:"BYTES"
             ~doc:"TCP maximum segment size (multiple of 8).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Link impairment seed.")
  in
  let sack =
    Arg.(value & flag
         & info [ "sack" ]
             ~doc:"Also sweep pipelined transfers with SACK disabled (a \
                   NewReno baseline), enabling the SACK gates under \
                   $(b,--check): SACK goodput at least 2x NewReno at 10 ms \
                   RTT / 5% loss with strictly fewer RTO fallbacks, and a \
                   byte-identical clean-link wire.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Fail (exit 1) unless the stream gates hold: every grid \
                   cell byte-exact, stop-and-wait strictly serial, and \
                   pipelined goodput at least 4x stop-and-wait on the clean \
                   10 ms-RTT cell (plus the SACK gates with $(b,--sack)).")
  in
  let run out quick bytes mss seed sack_compare check_gates =
    let base =
      { Sb.default_config with
        Sb.total_bytes =
          Option.value bytes
            ~default:
              (if quick then 256 * 1024 else Sb.default_config.Sb.total_bytes);
        mss;
        seed }
    in
    match Sb.run ~quick ~sack_compare ~config:base () with
    | r ->
        Sb.print_table r;
        write_file out (Sb.to_json r);
        Printf.printf "wrote %s\n" out;
        if not check_gates then 0
        else begin
          match Sb.check r with
          | Ok () ->
              print_endline
                ("stream gates held: byte-exact on every cell, pipelined \
                  window >= 4x stop-and-wait at 10 ms RTT"
                ^
                if sack_compare then
                  "; SACK >= 2x NewReno at 5% loss with fewer RTO fallbacks, \
                   clean wire identical"
                else "");
              0
          | Error failures ->
              List.iter
                (fun f -> Printf.eprintf "ilpbench: stream gate: %s\n" f)
                failures;
              1
        end
    | exception Invalid_argument msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Streaming-TCP goodput benchmark: multi-megabyte transfers as \
          MSS-segmented pipelined TSDUs versus a stop-and-wait window, \
          across simulated RTT and loss, in simulated time.")
    Term.(const run $ out $ quick $ bytes $ mss $ seed $ sack $ check)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let out =
    Arg.(value & opt string "t1.csv"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let run out =
    let csv = Ilp_bench.Experiments.t1_csv () in
    write_file out csv;
    Printf.printf "wrote %s (%d bytes, paper and measured for 35 grid cells)\n" out
      (String.length csv);
    0
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the full Table 1 grid as CSV.")
    Term.(const run $ out)

(* ------------------------------------------------------------------ *)
(* soak *)

(* A soak's log rule, shared by [soak] and [report]: ordinary typed
   outcomes print only under --verbose, and a line that counts an
   invariant violation always prints. *)
let soak_log verbose ~violation line =
  if verbose || violation then print_endline line

let soak_cmd =
  let module Soak = Ilp_app.Soak in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Soak master seed.")
  in
  let runs =
    Arg.(value & opt (some int) None
         & info [ "iters"; "n"; "clients" ] ~docv:"N"
             ~doc:"Transfers (chaos, crash) or concurrent clients (overload) \
                   to run (default: 512, 64 and 8).")
  in
  let size =
    Arg.(value & opt (some int) None
         & info [ "size"; "s" ] ~docv:"BYTES"
             ~doc:"File length per transfer (default: 512 for the chaos soak, \
                   2048 for the overload and crash soaks).")
  in
  let machine =
    Arg.(value & opt machine_conv Config.ss10_30
         & info [ "machine"; "m" ] ~docv:"NAME" ~doc:"Simulated workstation.")
  in
  let intensity =
    Arg.(value & opt (some float) None
         & info [ "intensity" ] ~docv:"X"
             ~doc:"Impairment-rate scale of the chaos soak; 0 disables all \
                   faults, 1 (the default) is full chaos.")
  in
  (* The soak family: at most one of --overload and --crash. *)
  let family =
    Arg.(value
         & vflag `Chaos
             [ ( `Overload,
                 info [ "overload" ]
                   ~doc:"Overload soak instead of chaos soak: many concurrent \
                         mixed-persona clients (honest, slow-reader, \
                         dead-reader, oversized) against one shared server, \
                         asserting graceful degradation." );
               ( `Crash,
                 info [ "crash" ]
                   ~doc:"Crash soak instead of chaos soak: seeded node \
                         crash/restart faults (RST or blackhole while down) \
                         against single transfers, asserting \
                         byte-exact-or-typed outcomes, prefix-verified \
                         resumption, dedup conservation and timer/pool \
                         hygiene." ) ])
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Log every failed iteration, not just \
                                         invariant violations.")
  in
  (* Soaks run with the span tracer on: a violated invariant dumps the
     metrics delta and the trace tail alongside the repro line, so the
     failing run explains itself. *)
  let dump_observability before =
    prerr_endline "--- metrics delta (this run) ---";
    prerr_string
      (Ilp_obs.Metrics.render
         (Ilp_obs.Metrics.diff
            (Ilp_obs.Metrics.snapshot Ilp_obs.Metrics.default)
            before));
    prerr_endline "--- trace tail (last 40 spans) ---";
    List.iter prerr_endline (Ilp_obs.Trace.timeline ~tail:40 ());
    (* The always-on flight recorder: per-connection event tail on
       stderr, the full retained ring to FLIGHT.txt for CI artifacts. *)
    let flight = Ilp_obs.Recorder.dump () in
    prerr_endline "--- flight recorder (last 60 events) ---";
    let n = List.length flight in
    List.iteri (fun i l -> if i = 0 || i > n - 61 then prerr_endline l) flight;
    Ilp_bench.Telem.write_flight ~path:"FLIGHT.txt";
    prerr_endline "full flight-recorder dump written to FLIGHT.txt"
  in
  (* Run the soak with the span tracer on, print its summary and
     verdict, and on a failed verdict dump the observability artefacts
     and the repro line. *)
  let drive cfg verbose =
    let before = Ilp_obs.Metrics.snapshot Ilp_obs.Metrics.default in
    Ilp_obs.Trace.enable ~capacity:32768 ();
    match Soak.run ~log:(soak_log verbose) cfg with
    | o -> (
        Ilp_obs.Trace.disable ();
        List.iter print_endline (Soak.summary_lines o);
        match Soak.verdict o with
        | Soak.Held line ->
            print_endline line;
            0
        | Soak.Violated line | Soak.Vacuous line ->
            prerr_endline line;
            dump_observability before;
            prerr_endline ("reproduce: ilpbench soak " ^ Soak.repro cfg);
            1)
    | exception Invalid_argument msg ->
        Ilp_obs.Trace.disable ();
        Printf.eprintf "ilpbench: %s\n" msg;
        2
  in
  let run seed runs size machine intensity family verbose =
    match (family, intensity) with
    | (`Overload | `Crash), Some _ ->
        `Error (true, "--intensity scales the chaos soak's wire only")
    | (`Chaos | `Overload | `Crash), _ ->
        let d =
          Soak.default_config
            (match family with
            | `Chaos ->
                Soak.Chaos { intensity = Option.value intensity ~default:1.0 }
            | `Overload -> Soak.Overload
            | `Crash -> Soak.Crash)
        in
        `Ok
          (drive
             { d with
               Soak.seed;
               runs = Option.value runs ~default:d.Soak.runs;
               file_len = Option.value size ~default:d.Soak.file_len;
               machine }
             verbose)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos soak: randomized impaired transfers across both modes, both \
          backends and all four ciphers, asserting byte-exact delivery or a \
          typed error on every iteration.  With $(b,--overload): many \
          concurrent mixed-persona clients against one shared server, \
          asserting graceful degradation under load.  With $(b,--crash): \
          seeded node crash/restart faults with resumable exactly-once \
          recovery.  The two are exclusive.")
    Term.(
      ret (const run $ seed $ runs $ size $ machine $ intensity $ family $ verbose))

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let module Tr = Ilp_bench.Tracerun in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Chrome trace_event JSON output path.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"CI smoke variant: smaller transfers.")
  in
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ] ~doc:"Print the plain-text span timeline tail.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Print the metrics-registry delta of the run.")
  in
  let run out quick timeline metrics =
    match Tr.run ~quick () with
    | r ->
        write_file out r.Tr.json;
        List.iter print_endline (Tr.summary_lines r);
        if timeline then begin
          print_endline "--- timeline tail ---";
          List.iter print_endline r.Tr.timeline
        end;
        if metrics then begin
          print_endline "--- metrics delta ---";
          print_string (Ilp_obs.Metrics.render r.Tr.metrics)
        end;
        Printf.printf "wrote %s (load in chrome://tracing or Perfetto)\n" out;
        if Tr.complete r then 0
        else begin
          prerr_endline
            "ilpbench: trace is incomplete: need at least one complete send \
             chain (marshal+encrypt+checksum+ring-copy) and one complete \
             receive chain (checksum+decrypt+unmarshal)";
          1
        end
    | exception Failure msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one ILP and one separate simulated transfer per-packet and \
          export Chrome trace_event JSON; fails unless the trace contains \
          complete send and receive span chains.")
    Term.(const run $ out $ quick $ timeline $ metrics)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let module Telem = Ilp_bench.Telem in
  let out =
    Arg.(value & opt string "TELEMETRY.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Time-series JSON output path.")
  in
  let flight_out =
    Arg.(value & opt string "FLIGHT.txt"
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Flight-recorder dump output path.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke variant: fewer clients, coarser sampling.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Log every soak verdict line.")
  in
  let run out flight_out quick verbose =
    let config = if quick then Telem.quick_config else Telem.default_config in
    match Telem.run ~log:(soak_log verbose) ~config () with
    | r ->
        write_file out (Telem.to_json r);
        Telem.write_flight ~path:flight_out;
        List.iter print_endline (Telem.summary_lines r);
        print_endline "--- dashboard ---";
        List.iter print_endline (Telem.dashboard_lines r);
        Printf.printf "wrote %s and %s\n" out flight_out;
        (match Telem.check r with
        | Ok () ->
            print_endline
              "telemetry gates passed: soak invariants, sampler conservation, \
               SLOs within bounds";
            0
        | Error fs ->
            List.iter (fun f -> Printf.eprintf "ilpbench report: %s\n" f) fs;
            1)
    | exception Invalid_argument msg ->
        Printf.eprintf "ilpbench: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Continuous-telemetry report: run the overload soak with the \
          periodic registry sampler attached, print the sparkline dashboard, \
          export the JSON time series and the flight-recorder dump, and gate \
          on sampler conservation and the latency SLOs.")
    Term.(const run $ out $ flight_out $ quick $ verbose)

(* ------------------------------------------------------------------ *)
(* regress *)

let regress_cmd =
  let module Regress = Ilp_bench.Regress in
  let baseline =
    Arg.(value & opt string "bench/baseline"
         & info [ "baseline"; "b" ] ~docv:"DIR"
             ~doc:"Directory holding the committed baseline BENCH_*.json.")
  in
  let dir =
    Arg.(value & opt string "."
         & info [ "dir"; "d" ] ~docv:"DIR"
             ~doc:"Directory holding the current BENCH_*.json.")
  in
  let run baseline dir =
    match Regress.run ~baseline_dir:baseline ~current_dir:dir with
    | Ok report ->
        List.iter print_endline (Regress.report_lines report);
        if Regress.passed report then 0 else 1
    | Error e ->
        Printf.eprintf "ilpbench regress: %s\n" e;
        2
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Compare the current BENCH_wall/mem/stream.json against the \
          committed baseline with tolerance bands (10% for the \
          deterministic mem/stream indicators, 30% for the wall-clock \
          speedups); exits nonzero on any regressed indicator.")
    Term.(const run $ baseline $ dir)

(* ------------------------------------------------------------------ *)
(* machines *)

let machines_cmd =
  let run () =
    List.iter
      (fun (m : Config.t) ->
        let o = Ilp_bench.Platforms.overhead m in
        Printf.printf "%-12s %4.0f MHz  L1D %2d kB/%d-way  L1I %2d kB  L2 %-6s  overhead %.0f us + %.3f us/B\n"
          m.Config.name m.Config.clock_mhz
          (m.Config.l1d.Cache.size / 1024)
          m.Config.l1d.Cache.assoc
          (m.Config.l1i.Cache.size / 1024)
          (match m.Config.l2 with
          | Some l2 -> Printf.sprintf "%d kB" (l2.Cache.size / 1024)
          | None -> "none")
          o.Ilp_bench.Platforms.base_us o.Ilp_bench.Platforms.per_byte_us)
      Config.all;
    0
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the modelled workstations.") Term.(const run $ const ())

let () =
  let doc = "Reproduction harness for 'Protocol Implementation Using Integrated Layer Processing'" in
  let info = Cmd.info "ilpbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ experiments_cmd; transfer_cmd; wall_cmd; mem_cmd; stream_cmd;
            machines_cmd; export_cmd; soak_cmd; trace_cmd; report_cmd;
            regress_cmd ]))
