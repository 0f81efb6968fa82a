(* The reproduction harness's own plumbing: paper data, the overhead
   model, reporting, and the micro-benchmark. *)

open Ilp_memsim
module B = Ilp_bench

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_table1_complete () =
  check "35 rows" 35 (List.length B.Paper_data.table1);
  List.iter
    (fun (m : Config.t) ->
      List.iter
        (fun size ->
          match B.Paper_data.table1_row ~platform:m.Config.name ~size with
          | Some row ->
              checkb "throughputs positive" true
                (row.B.Paper_data.tput_ilp > 0.0 && row.B.Paper_data.tput_non > 0.0);
              (* At 1 kB and above ILP always wins in the paper. *)
              if size >= 768 then
                checkb "ILP wins at large sizes" true
                  (row.B.Paper_data.tput_ilp >= row.B.Paper_data.tput_non)
          | None -> Alcotest.failf "missing %s/%d" m.Config.name size)
        [ 256; 512; 768; 1024; 1280 ])
    Config.all

let test_table1_spot_values () =
  (* Two anchor cells quoted in the running text. *)
  match B.Paper_data.table1_row ~platform:"SS10-30" ~size:1024 with
  | None -> Alcotest.fail "missing anchor row"
  | Some r ->
      check "send non-ILP" 369 r.B.Paper_data.send_non;
      check "send ILP" 311 r.B.Paper_data.send_ilp;
      check "recv non-ILP" 356 r.B.Paper_data.recv_non;
      check "recv ILP" 300 r.B.Paper_data.recv_ilp

let test_overhead_fit () =
  List.iter
    (fun (m : Config.t) ->
      let o = B.Platforms.overhead m in
      checkb (m.Config.name ^ " base positive") true (o.B.Platforms.base_us > 0.0);
      (* Reconstructing the paper's own rows with the paper's own
         processing times must land near the paper's throughput. *)
      List.iter
        (fun size ->
          match B.Paper_data.table1_row ~platform:m.Config.name ~size with
          | None -> ()
          | Some row ->
              let proc = float_of_int (row.B.Paper_data.send_ilp + row.B.Paper_data.recv_ilp) in
              let t = B.Platforms.throughput_mbps m ~size ~proc_us:proc in
              let err = Float.abs (t -. row.B.Paper_data.tput_ilp) /. row.B.Paper_data.tput_ilp in
              if err > 0.25 then
                Alcotest.failf "%s/%d: fit error %.0f%%" m.Config.name size (err *. 100.0))
        [ 512; 768; 1024 ])
    Config.all

let test_kernel_profile_faster () =
  let m = Config.ss10_30 in
  let user = B.Platforms.throughput_mbps m ~size:1024 ~proc_us:500.0 in
  let kernel = B.Platforms.kernel_throughput_mbps m ~size:1024 ~proc_us:500.0 in
  checkb "kernel profile is faster" true (kernel > user)

let test_report_helpers () =
  checkb "gain" true (B.Report.pct_gain ~base:100.0 ~better:80.0 = 20.0);
  checkb "vs formats" true (String.length (B.Report.vs ~paper:10.0 ~ours:12.0) > 0);
  (* vs_abs_pct is the percentage vs prints, ties and -0 included. *)
  List.iter
    (fun (paper, ours, want) ->
      let s = B.Report.vs ~paper ~ours in
      let i = String.index s '(' in
      let printed = String.sub s i (String.length s - i) in
      check ("vs_abs_pct of " ^ s) want (B.Report.vs_abs_pct ~paper ~ours);
      checkb ("printed " ^ s) true
        (printed = Printf.sprintf "(+%d%%)" want || printed = Printf.sprintf "(-%d%%)" want))
    [ (100.0, 102.5, 2); (100.0, 97.5, 2); (100.0, 99.6, 0); (369.0, 342.1, 7);
      (10.0, 12.0, 20); (0.0, 5.0, 0) ]

let test_percentile_sorted () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkb "p0 is the minimum" true (B.Report.percentile_sorted sorted 0.0 = 1.0);
  checkb "median matches the old upper-median" true
    (B.Report.percentile_sorted sorted 0.5 = 3.0);
  checkb "p100 is the maximum" true (B.Report.percentile_sorted sorted 1.0 = 4.0);
  (match B.Report.percentile_sorted [||] 0.5 with
  | _ -> Alcotest.fail "expected Invalid_argument on empty"
  | exception Invalid_argument _ -> ());
  match B.Report.percentile_sorted sorted 1.5 with
  | _ -> Alcotest.fail "expected Invalid_argument on q > 1"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Perf-regression gating *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file dir name contents =
  let oc = open_out (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let stream_json ~gate ~goodput =
  Printf.sprintf
    {|{ "gate_ratio": %f,
  "points": [
    { "mode": "pipelined", "rtt_us": 2000, "loss": 0.0, "goodput_mbps": %f }
  ] }|}
    gate goodput

let test_regress_identical_passes () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  let j = stream_json ~gate:40.0 ~goodput:100.0 in
  write_file base "BENCH_stream.json" j;
  write_file cur "BENCH_stream.json" j;
  match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "identical dirs pass" true (B.Regress.passed r);
      check "two stream indicators" 2 (List.length r.B.Regress.verdicts);
      check "wall and mem skipped (no baseline)" 2
        (List.length r.B.Regress.files_skipped);
      checkb "report lines render" true
        (List.length (B.Regress.report_lines r) >= 3)

let test_regress_detects_regression () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  (* goodput down 50% blows the 10% band; gate_ratio UP is fine. *)
  write_file cur "BENCH_stream.json" (stream_json ~gate:44.0 ~goodput:50.0);
  match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "regression fails the run" false (B.Regress.passed r);
      check "exactly one regressed indicator" 1
        (List.length (B.Regress.regressions r));
      (match B.Regress.regressions r with
      | [ v ] ->
          checkb "the goodput point regressed" true
            (v.B.Regress.v_key = "stream.goodput[pipelined,rtt=2000,loss=0.000]")
      | _ -> Alcotest.fail "expected one regression")

let test_regress_within_band_passes () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  write_file cur "BENCH_stream.json" (stream_json ~gate:38.0 ~goodput:95.0);
  match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error e -> Alcotest.fail e
  | Ok r -> checkb "5% dip within the 10% band" true (B.Regress.passed r)

let test_regress_missing_current () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  write_file base "BENCH_stream.json" (stream_json ~gate:40.0 ~goodput:100.0);
  (match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing current file must be a hard error");
  (* A baseline indicator silently dropped from the current run is a
     regression, not a pass. *)
  write_file cur "BENCH_stream.json" {|{ "gate_ratio": 40.0, "points": [] }|};
  match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "dropped indicator fails the run" false (B.Regress.passed r);
      check "it is reported as missing" 1
        (List.length r.B.Regress.missing_current)

(* A [--sack] file carries a NewReno sweep on the same mode/RTT/loss
   cells as the SACK sweep; both must survive as separate indicators. *)
let test_regress_sack_file_self_compare () =
  let base = temp_dir "regress_base" and cur = temp_dir "regress_cur" in
  let j =
    {|{ "gate_ratio": 40.0, "sack_ratio": 2.775,
  "points": [
    { "mode": "pipelined", "sack": true, "rtt_us": 10000, "loss": 0.05, "goodput_mbps": 5.389 },
    { "mode": "pipelined", "sack": false, "rtt_us": 10000, "loss": 0.05, "goodput_mbps": 1.942 }
  ] }|}
  in
  write_file base "BENCH_stream.json" j;
  write_file cur "BENCH_stream.json" j;
  match B.Regress.run ~baseline_dir:base ~current_dir:cur with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "a --sack file passes against itself" true (B.Regress.passed r);
      Alcotest.(check (list string))
        "gate, sack ratio and both sweeps keyed apart"
        [ "stream.gate_ratio"; "stream.sack_ratio";
          "stream.goodput[pipelined,rtt=10000,loss=0.050]";
          "stream.goodput[pipelined,rtt=10000,loss=0.050,newreno]" ]
        (List.map (fun v -> v.B.Regress.v_key) r.B.Regress.verdicts)

(* One real quick-config memory-traffic run, shared by the gate and
   regress tests below (well under a second). *)
let mem_run = lazy (B.Memtrace.run ~config:B.Memtrace.quick_config ())

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* [r] with the lane ([len], [mode], backend) replaced by [f] of it. *)
let plant (r : B.Memtrace.result) ~len ~mode ~native f =
  { r with
    B.Memtrace.points =
      List.map
        (fun (p : B.Memtrace.point) ->
          if p.len = len && p.mode = mode && p.native = native then f p else p)
        r.B.Memtrace.points }

let find_lane (r : B.Memtrace.result) ~len ~mode ~native =
  List.find
    (fun (p : B.Memtrace.point) ->
      p.len = len && p.mode = mode && p.native = native)
    r.B.Memtrace.points

let test_memtrace_check_names_violations () =
  let r = Lazy.force mem_run in
  (match B.Memtrace.check r with
  | Ok () -> ()
  | Error fs -> Alcotest.failf "clean run fails: %s" (String.concat "; " fs));
  let module E = Ilp_core.Engine in
  let per_wire x (p : B.Memtrace.point) = x *. float_of_int p.wire_len in
  let minor_1k = (find_lane r ~len:1024 ~mode:E.Ilp ~native:false).minor_words in
  List.iter
    (fun (what, planted, needles) ->
      match B.Memtrace.check planted with
      | Ok () -> Alcotest.failf "%s: not caught" what
      | Error [ msg ] ->
          List.iter
            (fun needle ->
              if not (contains msg needle) then
                Alcotest.failf "%s: %S does not name %S" what msg needle)
            needles
      | Error fs ->
          Alcotest.failf "%s: expected one failure, got %d: %s" what
            (List.length fs) (String.concat "; " fs))
    [ ( "ILP copies",
        plant r ~len:65536 ~mode:E.Ilp ~native:true (fun p ->
            { p with copied = per_wire 2.01 p }),
        [ "65536/ilp/native"; "2.01 host copies per wire byte" ] );
      ( "receive copies",
        plant r ~len:1024 ~mode:E.Separate ~native:true (fun p ->
            { p with copied_rx = per_wire 1.01 p }),
        [ "1024/separate/native"; "1.01 receive copies per wire byte" ] );
      ( "minor words grow with size",
        plant r ~len:65536 ~mode:E.Ilp ~native:false (fun p ->
            { p with minor_words = minor_1k +. 1.0 }),
        [ "65536/ilp/sim"; "minor words" ] );
      ( "ledger allocation",
        plant r ~len:1024 ~mode:E.Separate ~native:false (fun p ->
            { p with allocated = 1.0 }),
        [ "1024/separate/sim"; "ledger bytes allocated" ] );
      ( "major word",
        plant r ~len:65536 ~mode:E.Separate ~native:true (fun p ->
            { p with major_words = 1.0 }),
        [ "65536/separate/native"; "major-heap words" ] );
      ( "unbalanced pool",
        plant r ~len:1024 ~mode:E.Ilp ~native:true (fun p ->
            { p with pool_balanced = false }),
        [ "1024/ilp/native"; "pool not balanced" ] ) ]

let test_regress_mem_self_and_band () =
  let module E = Ilp_core.Engine in
  let r = Lazy.force mem_run in
  let run_against cur =
    let base = temp_dir "regress_base" and dir = temp_dir "regress_cur" in
    write_file base "BENCH_mem.json" (B.Memtrace.to_json r);
    write_file dir "BENCH_mem.json" (B.Memtrace.to_json cur);
    match B.Regress.run ~baseline_dir:base ~current_dir:dir with
    | Error e -> Alcotest.fail e
    | Ok rep -> rep
  in
  let self = run_against r in
  checkb "a new-schema BENCH_mem.json passes against itself" true
    (B.Regress.passed self);
  let keys = List.map (fun v -> v.B.Regress.v_key) self.B.Regress.verdicts in
  let expected =
    List.concat_map
      (fun (p : B.Memtrace.point) ->
        let lane =
          Printf.sprintf "[len=%d,%s,%s]" p.len
            (match p.mode with E.Ilp -> "ilp" | E.Separate -> "separate")
            (if p.native then "native" else "sim")
        in
        (if p.native then
           [ "mem.copied_per_wire_byte" ^ lane;
             "mem.rx_copied_per_wire_byte" ^ lane ]
         else [])
        @ [ "mem.minor_words" ^ lane ])
      r.B.Memtrace.points
    @ [ "mem.disabled_trace_minor_words_per_call" ]
  in
  Alcotest.(check (list string)) "one key per gated lane figure" expected keys;
  List.iter
    (fun v ->
      checkb (v.B.Regress.v_key ^ " in the 10% band") true
        (v.B.Regress.v_tol = 0.10))
    self.B.Regress.verdicts;
  let lane_key name = Printf.sprintf "mem.%s[len=65536,ilp,native]" name in
  let bump f = plant r ~len:65536 ~mode:E.Ilp ~native:true f in
  List.iter
    (fun (name, f) ->
      checkb (name ^ ": 11% less is not a regression (lower is better)") true
        (B.Regress.passed (run_against (bump (f 0.89))));
      Alcotest.(check (list string))
        (name ^ ": +11% is a regression")
        [ lane_key name ]
        (List.map
           (fun v -> v.B.Regress.v_key)
           (B.Regress.regressions (run_against (bump (f 1.11))))))
    [ ( "copied_per_wire_byte",
        fun k (p : B.Memtrace.point) -> { p with copied = p.copied *. k } );
      ( "rx_copied_per_wire_byte",
        fun k (p : B.Memtrace.point) -> { p with copied_rx = p.copied_rx *. k } );
      ( "minor_words",
        fun k (p : B.Memtrace.point) ->
          { p with minor_words = p.minor_words *. k } ) ]

let test_regress_json_parser () =
  (match B.Regress.parse_string {| { "a": [1, 2.5, true, null, "s
"] } |} with
  | Ok j -> (
      match B.Regress.member "a" j with
      | Some (B.Regress.Arr l) -> check "array arity survives" 5 (List.length l)
      | _ -> Alcotest.fail "member lookup failed")
  | Error e -> Alcotest.fail e);
  match B.Regress.parse_string {| { "a": } |} with
  | Ok _ -> Alcotest.fail "malformed JSON must not parse"
  | Error _ -> ()

let test_microbench_simulated () =
  let o = B.Microbench.simulated () in
  checkb "sequential positive" true (o.B.Microbench.sequential_mbps > 0.0);
  checkb "fusion wins" true
    (o.B.Microbench.fused_mbps > o.B.Microbench.sequential_mbps);
  (* The paper's micro-loop gain is ~40%; ours must at least be a
     double-digit percentage. *)
  checkb "double-digit gain" true
    (o.B.Microbench.fused_mbps /. o.B.Microbench.sequential_mbps > 1.10)

let test_cipher_wall_clock_ordering () =
  let results = B.Microbench.ciphers_wall_clock ~quota_s:0.05 () in
  let get name = List.assoc name results in
  checkb "simple fastest" true (get "simple" > get "safer-simplified");
  checkb "1 round beats 6 rounds" true
    (get "safer-k64-1round" > get "safer-k64-6rounds");
  checkb "DES slowest" true (get "des" < get "safer-simplified")

let test_t1_csv_shape () =
  let csv = B.Experiments.t1_csv () in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check "header + 35 rows" 36 (List.length lines);
  match lines with
  | header :: _ ->
      check "14 columns" 14
        (List.length (String.split_on_char ',' header))
  | [] -> Alcotest.fail "empty csv"

let test_wallbench_points () =
  (* Tiny configuration: the structure and the JSON schema, not timing. *)
  let r = B.Wallbench.run ~sizes:[ 64; 8 ] ~trials:1 ~warmup:0 () in
  check "one point per size" 2 (List.length r.B.Wallbench.points);
  (match r.B.Wallbench.points with
  | p1 :: p2 :: _ ->
      check "sorted by size" 8 p1.B.Wallbench.len;
      check "sorted by size" 64 p2.B.Wallbench.len;
      List.iter
        (fun p ->
          checkb "times positive" true
            (p.B.Wallbench.separate.B.Wallbench.send_ns > 0.0
            && p.B.Wallbench.ilp.B.Wallbench.recv_ns > 0.0);
          checkb "speedup finite" true (Float.is_finite p.B.Wallbench.speedup))
        [ p1; p2 ]
  | _ -> Alcotest.fail "missing points");
  let json = B.Wallbench.to_json r in
  List.iter
    (fun needle -> checkb ("json has " ^ needle) true (contains json needle))
    [ "\"benchmark\": \"wall\""; "\"cipher\": \"simple\""; "\"points\"";
      "\"speedup\""; "\"send_ns\"" ]

let test_wallbench_validation () =
  Alcotest.check_raises "odd size rejected"
    (Invalid_argument "Wallbench.run: size 12 is not a positive multiple of 8")
    (fun () -> ignore (B.Wallbench.run ~sizes:[ 12 ] ()));
  let module Ft = Ilp_app.File_transfer in
  (match Ft.cipher_of_name "no-such-cipher" with
  | Ok _ -> Alcotest.fail "accepted bogus cipher"
  | Error _ -> ());
  List.iter
    (fun c ->
      match Ft.cipher_of_name (Ft.cipher_name c) with
      | Ok c' -> checkb "name round-trips" true (c = c')
      | Error e -> Alcotest.fail e)
    Ft.ciphers

let test_experiment_names () =
  checkb "has all" true (List.mem "all" B.Experiments.names);
  match B.Experiments.run_named "no-such-thing" with
  | Ok () -> Alcotest.fail "accepted bogus name"
  | Error _ -> ()

(* The committed TRACE.json, which [dune build @oracles] holds equal to a
   fresh [trace --quick] export, is trace_event JSON with at least one
   complete send chain (marshal, encrypt, checksum and ring-copy spans on
   one packet id), counted here apart from the exporter's own check. *)
let test_trace_send_chains () =
  let module R = B.Regress in
  let events =
    match Result.map (R.member "traceEvents") (R.parse_file "../TRACE.json") with
    | Ok (Some (R.Arr es)) -> es
    | Ok _ -> Alcotest.fail "TRACE.json: no traceEvents array"
    | Error e -> Alcotest.fail ("TRACE.json: " ^ e)
  in
  let sends =
    List.filter_map
      (fun e ->
        match (R.member "ph" e, R.member "cat" e, R.member "name" e) with
        | Some (R.Str "X"), Some (R.Str "send"), Some (R.Str name) -> (
            match Option.bind (R.member "args" e) (R.member "packet") with
            | Some (R.Num id) -> Some (id, name)
            | _ -> Alcotest.failf "send span %s without a packet id" name)
        | _ -> None)
      events
  in
  let complete id =
    List.for_all
      (fun stage -> List.mem (id, stage) sends)
      [ "marshal"; "encrypt"; "checksum"; "ring-copy" ]
  in
  let ids = List.sort_uniq Float.compare (List.map fst sends) in
  let chains = List.length (List.filter complete ids) in
  checkb
    (Printf.sprintf "%d events, %d complete send chains" (List.length events) chains)
    true (chains >= 1)

let () =
  Alcotest.run "bench"
    [ ( "paper data",
        [ Alcotest.test_case "table 1 complete" `Quick test_table1_complete;
          Alcotest.test_case "anchor values" `Quick test_table1_spot_values ] );
      ( "platform model",
        [ Alcotest.test_case "overhead fit" `Quick test_overhead_fit;
          Alcotest.test_case "kernel profile" `Quick test_kernel_profile_faster ] );
      ( "report",
        [ Alcotest.test_case "helpers" `Quick test_report_helpers;
          Alcotest.test_case "percentile_sorted" `Quick test_percentile_sorted ] );
      ( "regress",
        [ Alcotest.test_case "identical dirs pass" `Quick
            test_regress_identical_passes;
          Alcotest.test_case "detects a regression" `Quick
            test_regress_detects_regression;
          Alcotest.test_case "within-band drift passes" `Quick
            test_regress_within_band_passes;
          Alcotest.test_case "missing current data" `Quick
            test_regress_missing_current;
          Alcotest.test_case "sack file passes against itself" `Quick
            test_regress_sack_file_self_compare;
          Alcotest.test_case "json parser" `Quick test_regress_json_parser;
          Alcotest.test_case "mem file: self, keys and band" `Quick
            test_regress_mem_self_and_band ] );
      ( "memtrace",
        [ Alcotest.test_case "check names each planted violation" `Quick
            test_memtrace_check_names_violations ] );
      ( "microbench",
        [ Alcotest.test_case "simulated" `Quick test_microbench_simulated ] );
      ( "experiments",
        [ Alcotest.test_case "cipher wall-clock ordering" `Quick
            test_cipher_wall_clock_ordering;
          Alcotest.test_case "t1 csv shape" `Slow test_t1_csv_shape;
          Alcotest.test_case "names" `Quick test_experiment_names ] );
      ( "trace",
        [ Alcotest.test_case "committed export has a send chain" `Quick
            test_trace_send_chains ] );
      ( "wallbench",
        [ Alcotest.test_case "points and json" `Quick test_wallbench_points;
          Alcotest.test_case "validation" `Quick test_wallbench_validation ] ) ]
