type kind = Read | Write | Ifetch

let kind_index = function Read -> 0 | Write -> 1 | Ifetch -> 2

(* Size classes 1, 2, 4, 8 bytes map to indices 0..3. *)
let size_class size =
  match size with
  | 1 -> 0
  | 2 -> 1
  | 4 -> 2
  | 8 -> 3
  | _ -> invalid_arg (Printf.sprintf "Stats: unsupported access size %d" size)

let class_size = [| 1; 2; 4; 8 |]

let n_kinds = 3
let n_sizes = 4
let n_levels = 2

type t = {
  acc : int array; (* [kind * n_sizes + size_class] *)
  mis : int array; (* [(kind * n_sizes + size_class) * n_levels + level-1] *)
}

let create () =
  { acc = Array.make (n_kinds * n_sizes) 0;
    mis = Array.make (n_kinds * n_sizes * n_levels) 0 }

let record_accesses t k ~size ~n =
  let i = (kind_index k * n_sizes) + size_class size in
  t.acc.(i) <- t.acc.(i) + n

let record_access t k ~size = record_accesses t k ~size ~n:1

let record_misses t k ~size ~level ~n =
  if level < 1 || level > n_levels then invalid_arg "Stats.record_miss: level";
  let i = (((kind_index k * n_sizes) + size_class size) * n_levels) + (level - 1) in
  t.mis.(i) <- t.mis.(i) + n

let record_miss t k ~size ~level = record_misses t k ~size ~level ~n:1

let accesses_of_size t k ~size = t.acc.((kind_index k * n_sizes) + size_class size)

let accesses t k =
  let base = kind_index k * n_sizes in
  let sum = ref 0 in
  for s = 0 to n_sizes - 1 do
    sum := !sum + t.acc.(base + s)
  done;
  !sum

let misses_of_size t k ~size ~level =
  t.mis.((((kind_index k * n_sizes) + size_class size) * n_levels) + (level - 1))

let misses t k ~level =
  let sum = ref 0 in
  for s = 0 to n_sizes - 1 do
    sum := !sum + t.mis.((((kind_index k * n_sizes) + s) * n_levels) + (level - 1))
  done;
  !sum

let bytes t k =
  let base = kind_index k * n_sizes in
  let sum = ref 0 in
  for s = 0 to n_sizes - 1 do
    sum := !sum + (t.acc.(base + s) * class_size.(s))
  done;
  !sum

let miss_ratio t k ~level =
  let a = accesses t k in
  if a = 0 then 0.0 else float_of_int (misses t k ~level) /. float_of_int a

let data_miss_ratio t =
  let a = accesses t Read + accesses t Write in
  if a = 0 then 0.0
  else
    float_of_int (misses t Read ~level:1 + misses t Write ~level:1)
    /. float_of_int a

let reset t =
  Array.fill t.acc 0 (Array.length t.acc) 0;
  Array.fill t.mis 0 (Array.length t.mis) 0

let accumulate ~into t =
  Array.iteri (fun i v -> into.acc.(i) <- into.acc.(i) + v) t.acc;
  Array.iteri (fun i v -> into.mis.(i) <- into.mis.(i) + v) t.mis

let copy t = { acc = Array.copy t.acc; mis = Array.copy t.mis }

let diff a b =
  { acc = Array.mapi (fun i v -> v - b.acc.(i)) a.acc;
    mis = Array.mapi (fun i v -> v - b.mis.(i)) a.mis }

let scale t f =
  let round x = int_of_float (Float.round x) in
  { acc = Array.map (fun v -> round (float_of_int v *. f)) t.acc;
    mis = Array.map (fun v -> round (float_of_int v *. f)) t.mis }
