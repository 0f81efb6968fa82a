type ty =
  | Int
  | Uint
  | Enum of string array
  | Opaque
  | Str
  | Seq of (string * ty) list

type value =
  | VInt of int
  | VEnum of int
  | VBytes of string
  | VStr of string
  | VSeq of value list

let rec check ty v =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match (ty, v) with
  | Int, VInt n when n >= -0x8000_0000 && n <= 0x7fff_ffff -> Ok ()
  | Int, VInt n -> err "int out of 32-bit range: %d" n
  | Uint, VInt n when n >= 0 && n <= 0xffff_ffff -> Ok ()
  | Uint, VInt n -> err "unsigned int out of range: %d" n
  | Enum names, VEnum i when i >= 0 && i < Array.length names -> Ok ()
  | Enum names, VEnum i -> err "enum value %d out of range 0..%d" i (Array.length names - 1)
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
  | _, _ -> err "value does not match type"

let rec equal a b =
  match (a, b) with
  | VInt x, VInt y | VEnum x, VEnum y -> x = y
  | VBytes x, VBytes y | VStr x, VStr y -> String.equal x y
  | VSeq xs, VSeq ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | _, _ -> false

let rec pp_ty ppf = function
  | Int -> Format.pp_print_string ppf "INTEGER"
  | Uint -> Format.pp_print_string ppf "UNSIGNED"
  | Enum names ->
      Format.fprintf ppf "ENUMERATED {%s}" (String.concat ", " (Array.to_list names))
  | Opaque -> Format.pp_print_string ppf "OPAQUE"
  | Str -> Format.pp_print_string ppf "STRING"
  | Seq fields ->
      Format.fprintf ppf "SEQUENCE {@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (n, t) -> Format.fprintf ppf "%s %a" n pp_ty t))
        fields

let rec pp_value ppf = function
  | VInt n -> Format.pp_print_int ppf n
  | VEnum i -> Format.fprintf ppf "enum(%d)" i
  | VBytes s -> Format.fprintf ppf "bytes(%d)" (String.length s)
  | VStr s -> Format.fprintf ppf "%S" s
  | VSeq vs ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        vs
