type t = { ty : Asn1.ty }

let compile ty = { ty }

let rec encode enc (ty : Asn1.ty) (v : Asn1.value) =
  match (ty, v) with
  | (Int | Uint), VInt n ->
      if n >= 0 then Xdr.Enc.uint32 enc (n land 0xffff_ffff) else Xdr.Enc.int32 enc n
  | Enum _, VEnum i -> Xdr.Enc.uint32 enc i
  | Opaque, VBytes s | Str, VStr s -> Xdr.Enc.opaque enc s
  | Seq fields, VSeq vs -> List.iter2 (fun (_, fty) fv -> encode enc fty fv) fields vs
  | _ -> invalid_arg "Stub: value does not match type"

let rec decode dec (ty : Asn1.ty) : Asn1.value =
  match ty with
  | Int -> VInt (Xdr.Dec.int32 dec)
  | Uint -> VInt (Xdr.Dec.uint32 dec)
  | Enum names -> VEnum (Xdr.Dec.enum dec (Array.length names))
  | Opaque -> VBytes (Xdr.Dec.opaque dec)
  | Str -> VStr (Xdr.Dec.opaque dec)
  | Seq fields -> VSeq (List.map (fun (_, fty) -> decode dec fty) fields)

let marshal t v =
  (match Asn1.check t.ty v with
  | Ok () -> ()
  | Error e -> invalid_arg ("Stub.marshal: " ^ e));
  let enc = Xdr.Enc.create () in
  encode enc t.ty v;
  Xdr.Enc.contents enc

let unmarshal t s =
  let dec = Xdr.Dec.of_string s in
  let v = decode dec t.ty in
  Xdr.Dec.expect_end dec;
  v
