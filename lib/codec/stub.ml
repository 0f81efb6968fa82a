type t = { ty : Asn1.ty }

let compile ty = { ty }
let ty t = t.ty

let rec encode enc (ty : Asn1.ty) (v : Asn1.value) =
  match (ty, v) with
  | (Int | Uint), VInt n ->
      if n >= 0 then Xdr.Enc.uint32 enc (n land 0xffff_ffff) else Xdr.Enc.int32 enc n
  | Hyper, VHyper n -> Xdr.Enc.hyper enc n
  | Bool, VBool b -> Xdr.Enc.bool enc b
  | Enum _, VEnum i -> Xdr.Enc.uint32 enc i
  | Fixed_opaque _, VBytes s -> Xdr.Enc.fixed_opaque enc s
  | Opaque, VBytes s -> Xdr.Enc.opaque enc s
  | Str, VStr s -> Xdr.Enc.opaque enc s
  | Seq fields, VSeq vs -> List.iter2 (fun (_, fty) fv -> encode enc fty fv) fields vs
  | Seq_of ety, VList vs ->
      Xdr.Enc.uint32 enc (List.length vs);
      List.iter (encode enc ety) vs
  | Choice arms, VChoice (i, av) ->
      Xdr.Enc.uint32 enc i;
      encode enc (snd arms.(i)) av
  | Option _, VNone -> Xdr.Enc.bool enc false
  | Option ety, VSome ov ->
      Xdr.Enc.bool enc true;
      encode enc ety ov
  | _ -> invalid_arg "Stub: value does not match type"

let rec decode dec (ty : Asn1.ty) : Asn1.value =
  match ty with
  | Int -> VInt (Xdr.Dec.int32 dec)
  | Uint -> VInt (Xdr.Dec.uint32 dec)
  | Hyper -> VHyper (Xdr.Dec.hyper dec)
  | Bool -> VBool (Xdr.Dec.bool dec)
  | Enum names ->
      let i = Xdr.Dec.uint32 dec in
      if i >= Array.length names then
        raise (Xdr.Dec.Error (Printf.sprintf "enum value %d out of range" i));
      VEnum i
  | Fixed_opaque n -> VBytes (Xdr.Dec.fixed_opaque dec n)
  | Opaque -> VBytes (Xdr.Dec.opaque dec)
  | Str -> VStr (Xdr.Dec.opaque dec)
  | Seq fields -> VSeq (List.map (fun (_, fty) -> decode dec fty) fields)
  | Seq_of ety ->
      let n = Xdr.Dec.uint32 dec in
      if n > 0xff_ffff then raise (Xdr.Dec.Error "unreasonable array length");
      VList (List.init n (fun _ -> decode dec ety))
  | Choice arms ->
      let i = Xdr.Dec.uint32 dec in
      if i >= Array.length arms then
        raise (Xdr.Dec.Error (Printf.sprintf "choice arm %d out of range" i));
      VChoice (i, decode dec (snd arms.(i)))
  | Option ety -> if Xdr.Dec.bool dec then VSome (decode dec ety) else VNone

let check_exn ty v =
  match Asn1.check ty v with
  | Ok () -> ()
  | Error e -> invalid_arg ("Stub.marshal: " ^ e)

let marshal t v =
  check_exn t.ty v;
  let enc = Xdr.Enc.create () in
  encode enc t.ty v;
  Xdr.Enc.contents enc

let unmarshal_from t dec = decode dec t.ty

let unmarshal t s =
  let dec = Xdr.Dec.of_string s in
  let v = decode dec t.ty in
  Xdr.Dec.expect_end dec;
  v

let rec size_of (ty : Asn1.ty) (v : Asn1.value) =
  match (ty, v) with
  | (Int | Uint | Bool | Enum _), _ -> 4
  | Hyper, _ -> 8
  | Fixed_opaque n, _ -> Xdr.padded n
  | (Opaque | Str), (VBytes s | VStr s) -> 4 + Xdr.padded (String.length s)
  | Seq fields, VSeq vs ->
      List.fold_left2 (fun acc (_, fty) fv -> acc + size_of fty fv) 0 fields vs
  | Seq_of ety, VList vs -> List.fold_left (fun acc v -> acc + size_of ety v) 4 vs
  | Choice arms, VChoice (i, av) -> 4 + size_of (snd arms.(i)) av
  | Option _, VNone -> 4
  | Option ety, VSome ov -> 4 + size_of ety ov
  | _ -> invalid_arg "Stub.size: value does not match type"

let size t v =
  check_exn t.ty v;
  size_of t.ty v
