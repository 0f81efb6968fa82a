(* End-to-end host-time benchmark of the file-transfer stack.

     e2e.exe run WORKLOAD [--seed N] [--seconds S] [--trace] [--out DIR]
     e2e.exe --workload WORKLOAD --seed N --seconds S --trace 0|1

   Prints one "name value unit" line per metric, then one JSON object
   {"correct", "attempted", "failed", "metrics"} as the last line.  An
   untraced run reports the end-to-end metrics, a traced run the
   per-layer ones.  Any correctness gate that fails exits 1. *)

open E2e_bench

let usage () =
  prerr_endline
    ("usage: e2e.exe run WORKLOAD [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.World.name) World.workloads));
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable out : string option;
}

let parse argv =
  let o = { workload = None; seed = 1; seconds = 10.0; traced = false; out = None } in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "run" :: w :: rest | "--workload" :: w :: rest ->
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- num int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- num float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.traced <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.traced <- true;
        go rest
    | "--out" :: d :: rest ->
        o.out <- Some d;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let json_metric (m : Bench.metric) =
  let s = m.Bench.stat in
  Printf.sprintf
    "\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"median\": %.17g, \"q1\": %.17g, \
     \"q3\": %.17g, \"n\": %d}"
    m.Bench.name s.Bench.value m.Bench.unit s.Bench.median s.Bench.q1 s.Bench.q3 s.Bench.n

let write path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let report_file (wl : World.workload) o (r : Bench.result) =
  Printf.sprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"traced\": %b, \"ocaml\": \"%s\", \
     \"domains\": %d, \"seconds\": %g, \"attempted\": %d,\n\
    \ \"det\": {%s},\n \"layers\": {%s},\n \"metrics\": {\n  %s\n}}\n"
    wl.World.name o.seed o.traced Sys.ocaml_version
    (Domain.recommended_domain_count ())
    o.seconds r.Bench.attempted
    (String.concat ", "
       (List.map
          (fun (l, d) ->
            Printf.sprintf
              "\"%s\": {\"digest\": \"%016x\", \"sim_goodput_mbps\": %.17g, \
               \"rpc_sim_us_p90\": %.17g, \"rpcs\": %d}"
              l d.Bench.digest d.Bench.goodput_mbps d.Bench.sim_p90_us d.Bench.det_rpcs)
          r.Bench.dets))
    (String.concat ", "
       (List.map
          (fun (l, total, shares) ->
            Printf.sprintf "\"%s\": {\"measured\": %.17g, %s}" l total
              (String.concat ", "
                 (List.map (fun (n, v) -> Printf.sprintf "\"%s\": %.17g" n v) shares)))
          r.Bench.layers))
    (String.concat ",\n  " (List.map json_metric r.Bench.metrics))

let () =
  let o = parse Sys.argv in
  let wl =
    match o.workload with
    | None -> usage ()
    | Some n -> (
        match List.find_opt (fun w -> w.World.name = n) World.workloads with
        | Some w -> w
        | None -> usage ())
  in
  match Bench.run wl ~seed:o.seed ~seconds:o.seconds ~traced:o.traced with
  | exception World.Gate msg ->
      prerr_endline ("e2e: gate failed: " ^ msg);
      print_endline "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
      exit 1
  | r ->
      List.iter print_endline r.Bench.info;
      List.iter
        (fun (m : Bench.metric) ->
          Printf.printf "%s %.6g %s\n" m.Bench.name m.Bench.stat.Bench.value m.Bench.unit)
        r.Bench.metrics;
      (match o.out with
      | None -> ()
      | Some dir ->
          let stem =
            Filename.concat dir
              (Printf.sprintf "e2e_%s_%s" wl.World.name
                 (if o.traced then "traced" else "untraced"))
          in
          write (stem ^ ".json") (report_file wl o r);
          Option.iter (write (stem ^ ".chrome.json")) r.Bench.chrome);
      Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
        r.Bench.attempted
        (String.concat ", "
           (List.map
              (fun (m : Bench.metric) ->
                Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.Bench.name
                  m.Bench.stat.Bench.value m.Bench.unit)
              r.Bench.metrics))
