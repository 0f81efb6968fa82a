type source =
  | Immediate of Asn1.value
  | From_memory of { addr : int; len : int }

type segment = Gen of string | App of { addr : int; len : int }

type t = { ty : Asn1.ty }

let compile ty = { ty }
let ty t = t.ty

exception Layout_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Layout_error s)) fmt

type state = {
  mutable segments : segment list;  (* reversed *)
  gen : Xdr.Enc.t;  (* the bytes generated since the last flush *)
}

let flush st =
  if Xdr.Enc.length st.gen > 0 then begin
    st.segments <- Gen (Xdr.Enc.contents st.gen) :: st.segments;
    Xdr.Enc.clear st.gen
  end

let encode_immediate st fty v =
  match Asn1.check fty v with
  | Ok () -> Stub.encode st.gen fty v
  | Error e -> fail "immediate value does not inhabit its field: %s" e

(* A memory-resident variable-length field: generated length word, the
   in-place bytes, generated XDR padding. *)
let memory_field st ~with_length ~addr ~len =
  if len < 0 then fail "negative memory field length";
  if with_length then Xdr.Enc.uint32 st.gen len;
  flush st;
  st.segments <- App { addr; len } :: st.segments;
  Xdr.Enc.raw st.gen (String.make (Xdr.padding len) '\000')

(* Lay out [fty] from the head of [sources]; the sources it did not take
   are returned. *)
let rec walk st (fty : Asn1.ty) sources =
  match (fty, sources) with
  | Asn1.Seq fields, _ ->
      List.fold_left (fun rest (_, f) -> walk st f rest) sources fields
  | _, [] -> fail "not enough sources for the message type"
  | _, Immediate v :: rest ->
      encode_immediate st fty v;
      rest
  | (Asn1.Opaque | Asn1.Str), From_memory { addr; len } :: rest ->
      memory_field st ~with_length:true ~addr ~len;
      rest
  | Asn1.Fixed_opaque n, From_memory { addr; len } :: rest ->
      if len <> n then fail "fixed opaque of %d bytes given %d" n len;
      memory_field st ~with_length:false ~addr ~len;
      rest
  | _, From_memory _ :: _ ->
      fail "From_memory is only valid for opaque and string fields"

let layout t sources =
  let st = { segments = []; gen = Xdr.Enc.create () } in
  match walk st t.ty sources with
  | [] ->
      flush st;
      Ok (List.rev st.segments)
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
