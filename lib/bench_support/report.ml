let banner s =
  let line = String.make (String.length s + 8) '=' in
  Printf.printf "\n%s\n==  %s  ==\n%s\n" line s line

let note fmt = Printf.printf fmt

let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> width.(i) <- max width.(i) (String.length cell)))
    all;
  let print_row r =
    List.iteri
      (fun i cell ->
        let pad = String.make (width.(i) - String.length cell) ' ' in
        if i = 0 then Printf.printf "%s%s" cell pad
        else Printf.printf "  %s%s" pad cell)
      r;
    print_newline ()
  in
  print_row header;
  let rule = List.mapi (fun i _ -> String.make width.(i) '-') header in
  print_row rule;
  List.iter print_row rows

let deviation ~paper ~ours =
  if paper = 0.0 then 0.0 else (ours -. paper) /. paper *. 100.0

let vs ~paper ~ours =
  Printf.sprintf "%.1f -> %.1f (%+.0f%%)" paper ours (deviation ~paper ~ours)

(* Parsed back from the printed digits, so it rounds exactly as [vs]
   does ("%.0f" rounds a binary tie to even, [Float.round] away from 0). *)
let vs_abs_pct ~paper ~ours =
  abs (int_of_string (Printf.sprintf "%.0f" (deviation ~paper ~ours)))

(* q-quantile of an already-sorted sample array by nearest rank: the
   q=0.5 case picks index n/2, exactly the upper-median convention the
   wall benchmark has always used. *)
let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Report.percentile_sorted: empty sample";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Report.percentile_sorted: q must be in [0, 1]";
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let us v = Printf.sprintf "%.1f" v
let mbps v = Printf.sprintf "%.2f" v
let millions v = Printf.sprintf "%.1f" (v /. 1.0e6)
let pct_gain ~base ~better = if base = 0.0 then 0.0 else (base -. better) /. base *. 100.0
