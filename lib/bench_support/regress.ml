(* Perf-regression detector: compare the current BENCH_wall / BENCH_mem /
   BENCH_stream JSON trajectories against a committed baseline with
   per-family tolerance bands.

   The container has no JSON library, and every writer in this repo
   hand-rolls its output — so the reader side is a small recursive-
   descent parser over exactly the JSON subset those writers emit
   (objects, arrays, strings with simple escapes, numbers, booleans,
   null).  Indicators are chosen for signal-to-noise: the wall
   benchmark's speedups are real wall-clock and get a wide band; the
   mem copy and allocation figures and the stream goodputs are
   deterministic (simulated machine, virtual time) and get a tight
   one. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> parse_error "expected %c at %d, found %c" c !pos x
    | None -> parse_error "expected %c at %d, found end of input" c !pos
  in
  let parse_str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then parse_error "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
             if !pos + 4 > n then parse_error "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code = int_of_string ("0x" ^ hex) in
             (* The writers only emit ASCII; decode the BMP point as a
                raw byte when it fits, '?' otherwise. *)
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else Buffer.add_char b '?'
         | c -> parse_error "bad escape \\%c" c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_num () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num f
    | None -> parse_error "bad number %S at %d" lit start
  in
  let parse_lit lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else parse_error "bad literal at %d" !pos
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '"' -> Str (parse_str ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_str () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> parse_error "expected , or } at %d" !pos
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_error "expected , or ] at %d" !pos
          in
          Arr (elements [])
        end
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_num ()
                else parse_error "unexpected %c at %d" c !pos
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_error "trailing garbage at %d" !pos;
    Ok v
  with Parse_error e -> Error e

let parse_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> parse_string s

(* ---- accessors ---- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let num_member key j =
  match member key j with Some (Num f) -> Some f | _ -> None

let str_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

let arr_member key j =
  match member key j with Some (Arr l) -> l | _ -> []

(* ---- indicators ----

   An indicator is one gated scalar extracted from a benchmark file,
   identified by a stable key so baseline and current line up even if
   point order changes. *)

type direction = Higher_better | Lower_better

type indicator = {
  key : string;
  value : float;
  direction : direction;
  tol : float;  (* fractional tolerance band *)
  slack : float;  (* absolute slack added on top of the band *)
}

(* The bands: 10% for the deterministic mem and stream figures, 30% for
   the noisy wall-clock speedups. *)
let tol = 0.10
let wall_tol = 0.30

let wall_indicators j =
  List.filter_map
    (fun p ->
      match (num_member "len" p, num_member "speedup" p) with
      | Some len, Some speedup ->
          Some
            { key = Printf.sprintf "wall.speedup[len=%.0f]" len;
              value = speedup;
              direction = Higher_better;
              tol = wall_tol;
              slack = 0.0 }
      | _ -> None)
    (arr_member "points" j)

let mem_indicators j =
  let points =
    List.filter_map
      (fun p ->
        match
          (num_member "len" p, str_member "mode" p, str_member "backend" p)
        with
        | Some len, Some mode, Some backend ->
            let pick name =
              match num_member name p with
              | Some v ->
                  [ { key =
                        Printf.sprintf "mem.%s[len=%.0f,%s,%s]" name len mode
                          backend;
                      value = v;
                      direction = Lower_better;
                      tol;
                      slack = 0.0 } ]
              | None -> []
            in
            (* Native lanes gate host copies per wire byte (the ledger
               covers the whole data path there); every lane gates its
               GC minor words. *)
            Some
              ((if backend = "native" then
                  pick "copied_per_wire_byte" @ pick "rx_copied_per_wire_byte"
                else [])
              @ pick "minor_words")
        | _ -> None)
      (arr_member "points" j)
  in
  let disabled =
    match num_member "disabled_trace_minor_words_per_call" j with
    | Some v ->
        [ { key = "mem.disabled_trace_minor_words_per_call";
            value = v;
            direction = Lower_better;
            tol;
            (* The absolute gate is 0.01 words/call; give the comparison
               the same absolute slack so 0-vs-0.004 noise never trips. *)
            slack = 0.01 } ]
    | None -> []
  in
  List.concat points @ disabled

let stream_indicators j =
  let ratio name =
    match num_member name j with
    | Some v when v > 0.0 ->
        [ { key = "stream." ^ name;
            value = v;
            direction = Higher_better;
            tol;
            slack = 0.0 } ]
    | _ -> []
  in
  let points =
    List.filter_map
      (fun p ->
        match
          ( str_member "mode" p,
            num_member "rtt_us" p,
            num_member "loss" p,
            num_member "goodput_mbps" p )
        with
        | Some mode, Some rtt, Some loss, Some goodput ->
            (* A [--sack] file adds a NewReno (SACK-off) sweep over the
               same mode, RTT and loss cells; its points get their own
               keys so they cannot overwrite the SACK cells. *)
            let variant =
              match member "sack" p with
              | Some (Bool false) -> ",newreno"
              | _ -> ""
            in
            Some
              { key =
                  Printf.sprintf "stream.goodput[%s,rtt=%.0f,loss=%.3f%s]" mode
                    rtt loss variant;
                value = goodput;
                direction = Higher_better;
                tol;
                slack = 0.0 }
        | _ -> None)
      (arr_member "points" j)
  in
  (* [sack_ratio] is 0 in a file written without [--sack]: no A/B to
     gate. *)
  ratio "gate_ratio" @ ratio "sack_ratio" @ points

(* ---- comparison ---- *)

type verdict = {
  v_key : string;
  v_baseline : float;
  v_current : float;
  v_tol : float;
  v_ok : bool;
}

type report = {
  verdicts : verdict list;
  missing_current : string list;
      (* indicator in the baseline, absent from the current run: a
         silently dropped benchmark point is itself a regression *)
  files_compared : string list;
  files_skipped : string list;  (* absent from the baseline directory *)
}

let compare_indicators ~baseline ~current =
  let current_tbl = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace current_tbl i.key i) current;
  let verdicts, missing =
    List.fold_left
      (fun (vs, missing) b ->
        match Hashtbl.find_opt current_tbl b.key with
        | None -> (vs, b.key :: missing)
        | Some c ->
            let ok =
              match b.direction with
              | Higher_better ->
                  c.value >= (b.value *. (1.0 -. b.tol)) -. b.slack
              | Lower_better ->
                  c.value <= (b.value *. (1.0 +. b.tol)) +. b.slack
            in
            ( { v_key = b.key;
                v_baseline = b.value;
                v_current = c.value;
                v_tol = b.tol;
                v_ok = ok }
              :: vs,
              missing ))
      ([], []) baseline
  in
  (List.rev verdicts, List.rev missing)

let benchmark_files =
  [ ("BENCH_wall.json", wall_indicators);
    ("BENCH_mem.json", mem_indicators);
    ("BENCH_stream.json", stream_indicators) ]

let run ~baseline_dir ~current_dir =
  let rec go files acc =
    match files with
    | [] ->
        let verdicts, missing, compared, skipped = acc in
        Ok
          { verdicts = List.rev verdicts;
            missing_current = List.rev missing;
            files_compared = List.rev compared;
            files_skipped = List.rev skipped }
    | (file, extract) :: rest -> (
        let verdicts, missing, compared, skipped = acc in
        let base_path = Filename.concat baseline_dir file in
        if not (Sys.file_exists base_path) then
          (* No committed baseline for this family: nothing to gate. *)
          go rest (verdicts, missing, compared, file :: skipped)
        else
          let cur_path = Filename.concat current_dir file in
          if not (Sys.file_exists cur_path) then
            Error
              (Printf.sprintf
                 "%s has a committed baseline but is missing from %s" file
                 current_dir)
          else
            match (parse_file base_path, parse_file cur_path) with
            | Error e, _ -> Error (Printf.sprintf "%s (baseline): %s" file e)
            | _, Error e -> Error (Printf.sprintf "%s (current): %s" file e)
            | Ok bj, Ok cj ->
                let vs, miss =
                  compare_indicators ~baseline:(extract bj)
                    ~current:(extract cj)
                in
                go rest
                  ( List.rev_append vs verdicts,
                    List.rev_append miss missing,
                    file :: compared,
                    skipped ))
  in
  go benchmark_files ([], [], [], [])

let regressions r = List.filter (fun v -> not v.v_ok) r.verdicts

let passed r = regressions r = [] && r.missing_current = []

let delta_pct v =
  if v.v_baseline = 0.0 then 0.0
  else (v.v_current -. v.v_baseline) /. v.v_baseline *. 100.0

let verdict_line v =
  Printf.sprintf "%-54s %10.3f -> %10.3f  %+6.1f%% (band %.0f%%)  %s" v.v_key
    v.v_baseline v.v_current (delta_pct v) (v.v_tol *. 100.0)
    (if v.v_ok then "ok" else "REGRESSION")

let report_lines r =
  let lines = List.map verdict_line r.verdicts in
  let missing =
    List.map
      (fun k -> Printf.sprintf "%-54s missing from current run  REGRESSION" k)
      r.missing_current
  in
  let skipped =
    List.map
      (fun f -> Printf.sprintf "%s: no committed baseline, skipped" f)
      r.files_skipped
  in
  let summary =
    let n_reg = List.length (regressions r) + List.length r.missing_current in
    if n_reg = 0 then
      Printf.sprintf "regress: %d indicators within tolerance (%s)"
        (List.length r.verdicts)
        (String.concat ", " r.files_compared)
    else Printf.sprintf "regress: %d REGRESSED indicators" n_reg
  in
  lines @ missing @ skipped @ [ summary ]
