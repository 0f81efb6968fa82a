type ty =
  | Int
  | Uint
  | Hyper
  | Bool
  | Enum of string array
  | Fixed_opaque of int
  | Opaque
  | Str
  | Seq of (string * ty) list
  | Seq_of of ty
  | Choice of (string * ty) array
  | Option of ty

type value =
  | VInt of int
  | VHyper of int64
  | VBool of bool
  | VEnum of int
  | VBytes of string
  | VStr of string
  | VSeq of value list
  | VList of value list
  | VChoice of int * value
  | VNone
  | VSome of value

let rec check ty v =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match (ty, v) with
  | Int, VInt n when n >= -0x8000_0000 && n <= 0x7fff_ffff -> Ok ()
  | Int, VInt n -> err "int out of 32-bit range: %d" n
  | Uint, VInt n when n >= 0 && n <= 0xffff_ffff -> Ok ()
  | Uint, VInt n -> err "unsigned int out of range: %d" n
  | Hyper, VHyper _ -> Ok ()
  | Bool, VBool _ -> Ok ()
  | Enum names, VEnum i when i >= 0 && i < Array.length names -> Ok ()
  | Enum names, VEnum i -> err "enum value %d out of range 0..%d" i (Array.length names - 1)
  | Fixed_opaque n, VBytes s when String.length s = n -> Ok ()
  | Fixed_opaque n, VBytes s ->
      err "fixed opaque: expected %d bytes, got %d" n (String.length s)
  | Opaque, VBytes _ -> Ok ()
  | Str, VStr _ -> Ok ()
  | Seq fields, VSeq vs ->
      if List.length fields <> List.length vs then
        err "sequence: expected %d fields, got %d" (List.length fields) (List.length vs)
      else
        List.fold_left2
          (fun acc (name, fty) fv ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match check fty fv with
                | Ok () -> Ok ()
                | Error e -> err "field %s: %s" name e))
          (Ok ()) fields vs
  | Seq_of ety, VList vs ->
      List.fold_left
        (fun acc v -> match acc with Error _ -> acc | Ok () -> check ety v)
        (Ok ()) vs
  | Choice arms, VChoice (i, v) ->
      if i < 0 || i >= Array.length arms then err "choice arm %d out of range" i
      else check (snd arms.(i)) v
  | Option _, VNone -> Ok ()
  | Option ety, VSome v -> check ety v
  | _, _ -> err "value does not match type"

let rec equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VHyper x, VHyper y -> Int64.equal x y
  | VBool x, VBool y -> x = y
  | VEnum x, VEnum y -> x = y
  | VBytes x, VBytes y | VStr x, VStr y -> String.equal x y
  | VSeq xs, VSeq ys | VList xs, VList ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | VChoice (i, x), VChoice (j, y) -> i = j && equal x y
  | VNone, VNone -> true
  | VSome x, VSome y -> equal x y
  | _, _ -> false

let rec pp_ty ppf = function
  | Int -> Format.pp_print_string ppf "INTEGER"
  | Uint -> Format.pp_print_string ppf "UNSIGNED"
  | Hyper -> Format.pp_print_string ppf "HYPER"
  | Bool -> Format.pp_print_string ppf "BOOLEAN"
  | Enum names ->
      Format.fprintf ppf "ENUMERATED {%s}" (String.concat ", " (Array.to_list names))
  | Fixed_opaque n -> Format.fprintf ppf "OPAQUE[%d]" n
  | Opaque -> Format.pp_print_string ppf "OPAQUE"
  | Str -> Format.pp_print_string ppf "STRING"
  | Seq fields ->
      Format.fprintf ppf "SEQUENCE {@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (n, t) -> Format.fprintf ppf "%s %a" n pp_ty t))
        fields
  | Seq_of t -> Format.fprintf ppf "SEQUENCE OF %a" pp_ty t
  | Choice arms ->
      Format.fprintf ppf "CHOICE {@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (n, t) -> Format.fprintf ppf "%s %a" n pp_ty t))
        (Array.to_list arms)
  | Option t -> Format.fprintf ppf "%a OPTIONAL" pp_ty t

let rec pp_value ppf = function
  | VInt n -> Format.pp_print_int ppf n
  | VHyper n -> Format.fprintf ppf "%LdL" n
  | VBool b -> Format.pp_print_bool ppf b
  | VEnum i -> Format.fprintf ppf "enum(%d)" i
  | VBytes s -> Format.fprintf ppf "bytes(%d)" (String.length s)
  | VStr s -> Format.fprintf ppf "%S" s
  | VSeq vs ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        vs
  | VList vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        vs
  | VChoice (i, v) -> Format.fprintf ppf "choice %d: %a" i pp_value v
  | VNone -> Format.pp_print_string ppf "none"
  | VSome v -> Format.fprintf ppf "some %a" pp_value v
