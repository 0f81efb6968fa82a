(* Counters live in families: a module registers its counter names once
   and every instance takes a zeroed block with one slot per name.  The
   registry keeps every block it hands out, so a name's value is the sum
   of its slot over all of them and stays monotonic for the process. *)
type block = int array
type family = { f_names : string array; mutable blocks : block list }
type counter = block (* a one-name family's block *)
type gauge = { mutable g : int }
type histogram = { mutable count : int; mutable sum : int; buckets : int array }

type entry = Ec of family * int | Eg of gauge | Eh of histogram

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable names : string list; (* reverse registration order *)
}

let create () = { tbl = Hashtbl.create 64; names = [] }
let default = create ()

(* 63 buckets cover every non-negative OCaml int: bucket 0 is <= 0,
   bucket i >= 1 is [2^(i-1), 2^i - 1]. *)
let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let n = ref v and b = ref 0 in
    while !n > 0 do
      n := !n lsr 1;
      incr b
    done;
    !b
  end

let bucket_bounds i =
  if i < 0 || i >= n_buckets then invalid_arg "Metrics.bucket_bounds";
  if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let kind_name = function
  | Ec _ -> "counter"
  | Eg _ -> "gauge"
  | Eh _ -> "histogram"

let already name e =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name e))

let register t name make wrap unwrap =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> ( match unwrap e with Some v -> v | None -> already name e)
  | None ->
      let v = make () in
      Hashtbl.add t.tbl name (wrap v);
      t.names <- name :: t.names;
      v

(* Find-or-create: the same names in the same order return the existing
   family; any other clash with a registered name raises. *)
let family t names =
  if names = [||] then invalid_arg "Metrics.family: no names";
  match Hashtbl.find_opt t.tbl names.(0) with
  | Some (Ec (f, 0)) when f.f_names = names -> f
  | _ ->
      let f = { f_names = Array.copy names; blocks = [] } in
      let check name = Option.iter (already name) (Hashtbl.find_opt t.tbl name) in
      Array.iter check names;
      Array.iteri
        (fun i name ->
          check name;
          Hashtbl.add t.tbl name (Ec (f, i));
          t.names <- name :: t.names)
        names;
      f

let block f =
  let b = Array.make (Array.length f.f_names) 0 in
  f.blocks <- b :: f.blocks;
  b

let counter t name =
  let f = family t [| name |] in
  match f.blocks with b :: _ -> b | [] -> block f

let gauge t name =
  register t name
    (fun () -> { g = 0 })
    (fun g -> Eg g)
    (function Eg g -> Some g | _ -> None)

let histogram t name =
  register t name
    (fun () -> { count = 0; sum = 0; buckets = Array.make n_buckets 0 })
    (fun h -> Eh h)
    (function Eh h -> Some h | _ -> None)

let inc c n = c.(0) <- c.(0) + n
let counter_value c = c.(0)
let set g v = g.g <- v
let add_gauge g n = g.g <- g.g + n
let gauge_value g = g.g

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

(* ---- snapshots ---- *)

type hist = { count : int; sum : int; buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist

type snapshot = (string * value) list

let snapshot t =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find t.tbl name with
        | Ec (f, i) ->
            Counter (List.fold_left (fun acc b -> acc + b.(i)) 0 f.blocks)
        | Eg g -> Gauge g.g
        | Eh h ->
            Histogram { count = h.count; sum = h.sum; buckets = Array.copy h.buckets }
      in
      (name, v))
    t.names

let find snap name = List.assoc_opt name snap

(* Percentile estimate from a log2 histogram.  The raw observations are
   gone; we locate the bucket holding the q-th ranked one and
   interpolate linearly across the bucket's [lo, hi] span.  Exact for
   bucket 0 (a single value); within the bucket's factor-of-2 width
   otherwise.  Interpolation runs in float so the top bucket, whose
   [hi] is [max_int], cannot overflow. *)
let percentile h q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.percentile: q must be in [0, 1]";
  if h.count = 0 then 0
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int h.count)) in
      if t < 1 then 1 else if t > h.count then h.count else t
    in
    let rec locate i seen =
      let n = h.buckets.(i) in
      if seen + n >= target then begin
        let lo, hi = bucket_bounds i in
        let rank = target - seen in (* 1 .. n within this bucket *)
        let frac =
          if n = 1 then 0.5
          else float_of_int (rank - 1) /. float_of_int (n - 1)
        in
        (* Interpolate in float and clamp: bucket 62 spans up to
           max_int, where rounding of the span can overflow an integer
           [lo + frac * (hi - lo)]. *)
        let est = float_of_int lo +. (frac *. (float_of_int hi -. float_of_int lo)) in
        if est <= float_of_int lo then lo
        else if est >= float_of_int hi then hi
        else int_of_float est
      end
      else locate (i + 1) (seen + n)
    in
    locate 0 0
  end

let counter_diff later earlier name =
  let get s = match find s name with Some (Counter n) -> n | _ -> 0 in
  get later - get earlier

let combine_hist op a b =
  Histogram
    { count = op a.count b.count;
      sum = op a.sum b.sum;
      buckets = Array.init n_buckets (fun i -> op a.buckets.(i) b.buckets.(i)) }

(* Shared shape of [merge] and [diff]: walk [base]'s names in order,
   combining with [other] where present; [extra] appends names only in
   [other] (merge) or drops them (diff). *)
let combine ~op ~gauge_pick ~extra base other =
  let combined =
    List.map
      (fun (name, v) ->
        match (v, find other name) with
        | Counter a, Some (Counter b) -> (name, Counter (op a b))
        | Gauge a, Some (Gauge b) -> (name, Gauge (gauge_pick a b))
        | Histogram a, Some (Histogram b) -> (name, combine_hist op a b)
        | v, _ -> (name, v))
      base
  in
  if not extra then combined
  else
    combined
    @ List.filter (fun (name, _) -> find base name = None) other

let merge a b = combine ~op:( + ) ~gauge_pick:(fun _ b -> b) ~extra:true a b

let diff later earlier =
  combine ~op:( - ) ~gauge_pick:(fun a _ -> a) ~extra:false later earlier

(* ---- rendering ---- *)

let hist_buckets_line buckets =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if Buffer.length b > 0 then Buffer.add_char b ' ';
        let lo, hi = bucket_bounds i in
        Buffer.add_string b (Printf.sprintf "[%d,%d]=%d" lo hi n)
      end)
    buckets;
  Buffer.contents b

let render snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string b (Printf.sprintf "%-40s %d\n" name n)
      | Gauge n ->
          Buffer.add_string b (Printf.sprintf "%-40s %d (gauge)\n" name n)
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf "%-40s count=%d sum=%d\n" name h.count h.sum);
          if h.count > 0 then
            Buffer.add_string b ("  " ^ hist_buckets_line h.buckets ^ "\n"))
    snap;
  Buffer.contents b

let to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      match v with
      | Counter n -> Buffer.add_string b (Printf.sprintf "\"%s\": %d" name n)
      | Gauge n -> Buffer.add_string b (Printf.sprintf "\"%s\": %d" name n)
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf "\"%s\": {\"count\": %d, \"sum\": %d, \"buckets\": {"
               name h.count h.sum);
          let first = ref true in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                if not !first then Buffer.add_string b ", ";
                first := false;
                let lo, _ = bucket_bounds i in
                Buffer.add_string b (Printf.sprintf "\"%d\": %d" lo n)
              end)
            h.buckets;
          Buffer.add_string b "}}")
    snap;
  Buffer.add_string b "}";
  Buffer.contents b
