type source =
  | Immediate of Asn1.value
  | From_memory of { addr : int; len : int }

type segment = Gen of string | App of { addr : int; len : int }

(* A compiled stub owns the scratch state of its layouts: [gen] holds the
   bytes generated since the last flush and [out.(0 .. n-1)] the
   segments laid out so far.  Both live only inside one [layout] call,
   which copies out what it returns (a flush takes the encoder's bytes
   as a fresh string, the result is a fresh list), so one encoder and
   one array serve every message of the type. *)
type t = {
  ty : Asn1.ty;
  gen : Xdr.Enc.t;
  mutable out : segment array;
  mutable n : int;
}

let no_segment = Gen ""
let compile ty = { ty; gen = Xdr.Enc.create (); out = Array.make 4 no_segment; n = 0 }
let ty t = t.ty

exception Layout_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Layout_error s)) fmt

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

let encode_immediate t fty v =
  match Asn1.check fty v with
  | Ok () -> Stub.encode t.gen fty v
  | Error e -> fail "immediate value does not inhabit its field: %s" e

(* XDR padding runs, shared: a padded field adds no string of its own. *)
let zero_pad = [| ""; "\000"; "\000\000"; "\000\000\000" |]

(* A memory-resident variable-length field: generated length word, the
   in-place bytes, generated XDR padding. *)
let memory_field t ~with_length ~addr ~len =
  if len < 0 then fail "negative memory field length";
  if with_length then Xdr.Enc.uint32 t.gen len;
  flush t;
  emit t (App { addr; len });
  Xdr.Enc.raw t.gen zero_pad.(Xdr.padding len)

(* Lay out [fty] from the head of [sources]; the sources it did not take
   are returned. *)
let rec walk t (fty : Asn1.ty) sources =
  match (fty, sources) with
  | Asn1.Seq fields, _ -> walk_fields t fields sources
  | _, [] -> fail "not enough sources for the message type"
  | _, Immediate v :: rest ->
      encode_immediate t fty v;
      rest
  | (Asn1.Opaque | Asn1.Str), From_memory { addr; len } :: rest ->
      memory_field t ~with_length:true ~addr ~len;
      rest
  | Asn1.Fixed_opaque n, From_memory { addr; len } :: rest ->
      if len <> n then fail "fixed opaque of %d bytes given %d" n len;
      memory_field t ~with_length:false ~addr ~len;
      rest
  | _, From_memory _ :: _ ->
      fail "From_memory is only valid for opaque and string fields"

and walk_fields t fields sources =
  match fields with
  | [] -> sources
  | (_, f) :: rest -> walk_fields t rest (walk t f sources)

(* Empty the scratch; a layout that failed half way left it in use. *)
let reset t =
  Xdr.Enc.clear t.gen;
  Array.fill t.out 0 t.n no_segment;
  t.n <- 0

(* The segments laid out, as a list in order. *)
let take t =
  let segs = ref [] in
  for i = t.n - 1 downto 0 do
    segs := t.out.(i) :: !segs
  done;
  reset t;
  !segs

let layout t sources =
  reset t;
  match walk t t.ty sources with
  | [] ->
      flush t;
      Ok (take t)
  | _ :: _ -> Error "too many sources for the message type"
  | exception Layout_error e -> Error e

let segment_len = function Gen s -> String.length s | App a -> a.len
let total_len segs = List.fold_left (fun acc seg -> acc + segment_len seg) 0 segs

let flatten mem segs =
  String.concat ""
    (List.map
       (function
         | Gen s -> s
         | App { addr; len } ->
             Bytes.to_string (Ilp_memsim.Mem.peek_bytes mem ~pos:addr ~len))
       segs)
