type memo = { mutable cache : int; mutable fills : int; mutable ways : int array }
type region = { base : int; len : int; memo : memo }

type allocator = { mutable next : int; mutable images : (string * region) list }

(* Instruction addresses live in their own space; the base offset merely
   keeps them visually distinct from data addresses in traces. *)
let allocator () = { next = 0x4000_0000; images = [] }

let region ~base ~len = { base; len; memo = { cache = -1; fills = 0; ways = [||] } }

let alloc a ~len =
  if len < 0 then invalid_arg "Code.alloc: negative length";
  let base = a.next in
  (* Align regions to 64 bytes, the largest first-level line of the
     modelled machines, so two regions never share an L1 line; they may
     share a SPARC L2 line (128 bytes).  The layout decides Table 1's
     digits through cache conflicts, so it stays as it is. *)
  a.next <- (base + len + 63) land lnot 63;
  region ~base ~len

let image a ~name ~len =
  match List.assoc_opt name a.images with
  | Some r when r.len = len -> r
  | Some r ->
      invalid_arg
        (Printf.sprintf "Code.image: %S is %d bytes, not %d" name r.len len)
  | None ->
      let r = alloc a ~len in
      a.images <- (name, r) :: a.images;
      r

let none = region ~base:0 ~len:0
