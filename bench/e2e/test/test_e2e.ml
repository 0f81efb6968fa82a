(* Smoke test of the end-to-end benchmark: every workload, untraced and
   traced, for one tiny sample per world.  The benchmark's own gates
   (every RPC verified, equal wire digests across worlds, clean
   teardown) raise on failure; this test adds the checks that span two
   runs or the benchmark's declaration file. *)

open E2e_bench
module R = Ilp_bench.Regress

let declared key =
  match R.parse_file "../../../BENCHMARK.json" with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok j -> (
      match R.member key j with
      | Some (R.Arr l) ->
          List.map
            (fun m ->
              match R.member "name" m with
              | Some (R.Str s) -> s
              | _ -> Alcotest.fail ("BENCHMARK.json: unnamed metric in " ^ key))
            l
      | _ -> Alcotest.fail ("BENCHMARK.json: no " ^ key))

let names (r : Bench.result) = List.map (fun (m : Bench.metric) -> m.Bench.name) r.Bench.metrics

let smoke (wl : World.workload) () =
  let run traced = Bench.run ~quick:true wl ~seed:1 ~seconds:0.0 ~traced in
  let u = run false and t = run true in
  Alcotest.(check (list string)) "end-to-end names" (declared "end_to_end") (names u);
  Alcotest.(check (list string)) "per-layer names" (declared "per_layer") (names t);
  Alcotest.(check bool) "rpcs attempted" true (u.Bench.attempted > 0 && t.Bench.attempted > 0);
  let ilp (r : Bench.result) = List.assoc "ilp" r.Bench.dets in
  Alcotest.(check bool) "traced and untraced runs agree on the wire and in virtual time"
    true
    (ilp u = ilp t);
  List.iter
    (fun (_, d) ->
      Alcotest.(check int) "one wire digest for every world" (ilp u).Bench.digest
        d.Bench.digest)
    (u.Bench.dets @ t.Bench.dets);
  List.iter
    (fun (lane, total, shares) ->
      let parts = List.fold_left (fun a (_, v) -> a +. v) 0.0 shares in
      if Float.abs (parts -. total) > 0.01 *. total then
        Alcotest.failf "%s: layers sum to %.3f ns/B of a measured %.3f" lane parts total)
    t.Bench.layers;
  Alcotest.(check int) "both traced worlds checked" 2 (List.length t.Bench.layers)

let () =
  Alcotest.run "e2e"
    [ ( "e2e",
        List.map
          (fun (wl : World.workload) ->
            Alcotest.test_case (wl.World.name ^ " smoke") `Quick (smoke wl))
          World.workloads ) ]
