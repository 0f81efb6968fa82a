type segment = Gen of string | App of { addr : int; len : int }

(* A compiled stub: the type's leaves in declaration order (a sequence
   is walked into its fields, every other type is one leaf), and the
   scratch of the message being laid out: [gen] holds the bytes
   generated since the last flush, [out.(0 .. n-1)] the segments laid
   out so far, [next] the leaf the next push fills and [error] the first
   failure.  [start] empties them, so one encoder and one array serve
   every message of the type. *)
type t = {
  leaves : Asn1.ty array;
  gen : Xdr.Enc.t;
  mutable out : segment array;
  mutable n : int;
  mutable next : int;
  mutable error : string option;
}

let no_segment = Gen ""

let rec leaves_of acc (ty : Asn1.ty) =
  match ty with
  | Seq fields -> List.fold_left (fun acc (_, f) -> leaves_of acc f) acc fields
  | leaf -> leaf :: acc

let compile ty =
  { leaves = Array.of_list (List.rev (leaves_of [] ty));
    gen = Xdr.Enc.create ();
    out = Array.make 4 no_segment;
    n = 0;
    next = 0;
    error = None }

let start t =
  Xdr.Enc.clear t.gen;
  Array.fill t.out 0 t.n no_segment;
  t.n <- 0;
  t.next <- 0;
  t.error <- None

let emit t seg =
  if t.n = Array.length t.out then begin
    let out = Array.make (2 * t.n) no_segment in
    Array.blit t.out 0 out 0 t.n;
    t.out <- out
  end;
  t.out.(t.n) <- seg;
  t.n <- t.n + 1

let flush t =
  if Xdr.Enc.length t.gen > 0 then begin
    emit t (Gen (Xdr.Enc.contents t.gen));
    Xdr.Enc.clear t.gen
  end

(* The first failure sticks: later pushes are ignored and [finish]
   reports it. *)
let failed t = match t.error with None -> false | Some _ -> true
let fail t msg = if not (failed t) then t.error <- Some msg

(* A sequence is never a leaf (a stub walks it into its fields), so it
   stands for "no leaf": the push is dropped. *)
let no_leaf = Asn1.Seq []

(* The leaf the next push fills, or [no_leaf] when the message has
   already failed or has no leaf left. *)
let next_leaf t =
  if failed t then no_leaf
  else if t.next >= Array.length t.leaves then begin
    fail t "too many sources for the message type";
    no_leaf
  end
  else begin
    let fty = t.leaves.(t.next) in
    t.next <- t.next + 1;
    fty
  end

(* [v] does not inhabit [fty]: the push fails with [Asn1.check]'s
   words. *)
let refuse t fty v =
  match Asn1.check fty v with
  | Ok () -> ()
  | Error e -> fail t ("immediate value does not inhabit its field: " ^ e)

(* The typed pushes test and encode their leaf directly, allocating
   nothing unless the leaf refuses the value. *)
let push_int t v =
  match next_leaf t with
  | Asn1.Int when v >= -0x8000_0000 && v <= 0x7fff_ffff ->
      if v >= 0 then Xdr.Enc.uint32 t.gen v else Xdr.Enc.int32 t.gen v
  | Asn1.Uint when v >= 0 && v <= 0xffff_ffff -> Xdr.Enc.uint32 t.gen v
  | Asn1.Seq _ -> ()
  | fty -> refuse t fty (Asn1.VInt v)

let push_enum t i =
  match next_leaf t with
  | Asn1.Enum names when i >= 0 && i < Array.length names -> Xdr.Enc.uint32 t.gen i
  | Asn1.Seq _ -> ()
  | fty -> refuse t fty (Asn1.VEnum i)

let push_str t s =
  match next_leaf t with
  | Asn1.Str -> Xdr.Enc.opaque t.gen s
  | Asn1.Seq _ -> ()
  | fty -> refuse t fty (Asn1.VStr s)

(* XDR padding runs, shared: a padded field adds no string of its own. *)
let zero_pad = [| ""; "\000"; "\000\000"; "\000\000\000" |]

(* A memory-resident variable-length field: generated length word, the
   in-place bytes, generated XDR padding. *)
let push_memory t ~addr ~len =
  match next_leaf t with
  | (Asn1.Opaque | Asn1.Str) when len < 0 -> fail t "negative memory field length"
  | Asn1.Opaque | Asn1.Str ->
      Xdr.Enc.uint32 t.gen len;
      flush t;
      emit t (App { addr; len });
      Xdr.Enc.raw t.gen zero_pad.(Xdr.padding len)
  | Asn1.Seq _ -> ()
  | _ -> fail t "From_memory is only valid for opaque and string fields"

let finish t =
  match t.error with
  | Some e -> Error e
  | None ->
      if t.next < Array.length t.leaves then Error "not enough sources for the message type"
      else begin
        flush t;
        Ok ()
      end

let count t = t.n
let segments t = t.out
let segment_len = function Gen s -> String.length s | App a -> a.len

let total_len t =
  let n = ref 0 in
  for i = 0 to t.n - 1 do
    n := !n + segment_len t.out.(i)
  done;
  !n

let flatten mem t =
  String.concat ""
    (List.init t.n (fun i ->
         match t.out.(i) with
         | Gen s -> s
         | App { addr; len } ->
             Bytes.to_string (Ilp_memsim.Mem.peek_bytes mem ~pos:addr ~len)))
