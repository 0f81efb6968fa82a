(* XDR / ASN.1 / stub-compiler tests, including random-typed round trips. *)

open Ilp_codec

let check = Alcotest.(check int)
let check_s = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* XDR primitives *)

let test_padding () =
  check "pad 0" 0 (Xdr.padding 0);
  check "pad 1" 3 (Xdr.padding 1);
  check "pad 2" 2 (Xdr.padding 2);
  check "pad 3" 1 (Xdr.padding 3);
  check "pad 4" 0 (Xdr.padding 4);
  check "padded 5" 8 (Xdr.padded 5)

let test_xdr_int_encodings () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.int32 enc (-1);
  check_s "minus one is all ones" "\xff\xff\xff\xff" (Xdr.Enc.contents enc);
  let enc2 = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc2 0xDEADBEEF;
  check_s "uint32 big endian" "\xde\xad\xbe\xef" (Xdr.Enc.contents enc2)

let test_xdr_opaque_padding () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.opaque enc "abcde";
  let s = Xdr.Enc.contents enc in
  check "length word + 5 bytes + 3 pad" 12 (String.length s);
  check_s "payload" "abcde" (String.sub s 4 5);
  check_s "zero padding" "\000\000\000" (String.sub s 9 3)

let test_xdr_decode_roundtrip () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.int32 enc (-42);
  Xdr.Enc.uint32 enc 42;
  Xdr.Enc.uint32 enc 2;
  Xdr.Enc.opaque enc "xyz";
  Xdr.Enc.opaque enc "abcde";
  let dec = Xdr.Dec.of_string (Xdr.Enc.contents enc) in
  check "int32" (-42) (Xdr.Dec.int32 dec);
  check "uint32" 42 (Xdr.Dec.uint32 dec);
  check "enum" 2 (Xdr.Dec.enum dec 3);
  check_s "opaque" "xyz" (Xdr.Dec.opaque dec);
  check "opaque in place" 5 (Xdr.Dec.opaque_in_place dec);
  check "its bytes" 24 (Xdr.Dec.opaque_off dec);
  Xdr.Dec.expect_end dec

(* One cursor re-pointed at bodies inside a larger buffer: it reads each
   body and nothing past its end, leaves an opaque's bytes where they
   are, and counts error positions from the body's start. *)
let test_xdr_decode_in_place () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc 7;
  Xdr.Enc.opaque enc "abc";
  let body = Xdr.Enc.contents enc in
  let buf = Bytes.of_string ("junk" ^ body ^ "\000\000\000\000") in
  let dec = Xdr.Dec.create () in
  Xdr.Dec.reset dec buf ~off:4 ~len:(String.length body);
  check "a word" 7 (Xdr.Dec.uint32 dec);
  check "opaque length" 3 (Xdr.Dec.opaque_in_place dec);
  check_s "opaque bytes in the buffer" "abc"
    (Bytes.sub_string buf (Xdr.Dec.opaque_off dec) 3);
  Xdr.Dec.expect_end dec;
  Xdr.Dec.reset dec buf ~off:4 ~len:6;
  ignore (Xdr.Dec.uint32 dec);
  (match Xdr.Dec.uint32 dec with
  | _ -> Alcotest.fail "read past the body"
  | exception Xdr.Dec.Error e ->
      check_s "position from the body's start"
        "truncated XDR input: need 4 bytes at 4, have 2" e);
  match Xdr.Dec.reset dec buf ~off:8 ~len:(Bytes.length buf) with
  | () -> Alcotest.fail "span outside the buffer accepted"
  | exception Xdr.Dec.Error _ -> ()

let expect_dec_error f =
  match f () with
  | _ -> Alcotest.fail "expected Xdr.Dec.Error"
  | exception Xdr.Dec.Error _ -> ()

let test_xdr_decode_errors () =
  expect_dec_error (fun () -> Xdr.Dec.uint32 (Xdr.Dec.of_string "ab"));
  expect_dec_error (fun () -> Xdr.Dec.enum (Xdr.Dec.of_string "\000\000\000\002") 2);
  (* Nonzero padding is rejected. *)
  expect_dec_error (fun () ->
      Xdr.Dec.opaque (Xdr.Dec.of_string "\000\000\000\001aXYZ"));
  expect_dec_error (fun () -> Xdr.Dec.expect_end (Xdr.Dec.of_string "left"));
  (* An absurd opaque length must not crash or allocate wildly. *)
  expect_dec_error (fun () -> Xdr.Dec.opaque (Xdr.Dec.of_string "\xff\xff\xff\xff"))

let test_xdr_enc_range_checks () =
  let enc = Xdr.Enc.create () in
  (match Xdr.Enc.uint32 enc (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Xdr.Enc.int32 enc 0x1_0000_0000 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* ASN.1 checking *)

let sample_ty : Asn1.ty =
  Seq
    [ ("kind", Enum [| "a"; "b" |]);
      ("count", Int);
      ("size", Uint);
      ("tag", Opaque);
      ("names", Seq [ ("first", Str); ("last", Str) ]) ]

let sample_value : Asn1.value =
  VSeq
    [ VEnum 1; VInt (-7); VInt 0xffff_ffff; VBytes "xyz";
      VSeq [ VStr "one"; VStr "two" ] ]

let test_asn1_check_ok () =
  (match Asn1.check sample_ty sample_value with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checkb "equal reflexive" true (Asn1.equal sample_value sample_value)

let test_asn1_check_failures () =
  let bad cases =
    List.iter
      (fun (name, ty, v) ->
        match Asn1.check ty v with
        | Ok () -> Alcotest.failf "%s: expected rejection" name
        | Error _ -> ())
      cases
  in
  bad
    [ ("enum range", Asn1.Enum [| "x" |], Asn1.VEnum 1);
      ("int range", Asn1.Int, Asn1.VInt 0x1_0000_0000);
      ("uint negative", Asn1.Uint, Asn1.VInt (-1));
      ("wrong constructor", Asn1.Str, Asn1.VInt 0);
      ("bytes for a string", Asn1.Str, Asn1.VBytes "abc");
      ( "field count",
        Asn1.Seq [ ("a", Asn1.Int) ],
        Asn1.VSeq [ Asn1.VInt 1; Asn1.VInt 2 ] ) ]

(* ------------------------------------------------------------------ *)
(* Stub compiler: fixed and random round trips *)

let test_stub_roundtrip_sample () =
  let stub = Stub.compile sample_ty in
  let wire = Stub.marshal stub sample_value in
  check "whole words" 0 (String.length wire mod 4);
  checkb "round trip" true (Asn1.equal sample_value (Stub.unmarshal stub wire))

let test_stub_rejects_ill_typed () =
  let stub = Stub.compile Asn1.Int in
  match Stub.marshal stub (Asn1.VStr "x") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Random type + matching value generator. *)
let rec gen_ty depth : Asn1.ty QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneofl [ Asn1.Int; Asn1.Uint; Asn1.Enum [| "a"; "b"; "c" |]; Asn1.Opaque; Asn1.Str ]
  in
  if depth = 0 then leaf
  else
    frequency
      [ (3, leaf);
        ( 1,
          int_range 1 3 >>= fun n ->
          list_repeat n (gen_ty (depth - 1)) >>= fun tys ->
          return (Asn1.Seq (List.mapi (fun i t -> (Printf.sprintf "f%d" i, t)) tys)) ) ]

let rec gen_value (ty : Asn1.ty) : Asn1.value QCheck.Gen.t =
  let open QCheck.Gen in
  match ty with
  | Asn1.Int -> map (fun n -> Asn1.VInt n) (int_range (-0x8000_0000) 0x7fff_ffff)
  | Asn1.Uint -> map (fun n -> Asn1.VInt n) (int_bound 0xffff_ffff)
  | Asn1.Enum names -> map (fun i -> Asn1.VEnum i) (int_bound (Array.length names - 1))
  | Asn1.Opaque -> map (fun s -> Asn1.VBytes s) (string_size (int_bound 12))
  | Asn1.Str -> map (fun s -> Asn1.VStr s) (string_size (int_bound 12))
  | Asn1.Seq fields ->
      let rec go = function
        | [] -> return []
        | (_, fty) :: rest ->
            gen_value fty >>= fun v ->
            go rest >>= fun vs -> return (v :: vs)
      in
      map (fun vs -> Asn1.VSeq vs) (go fields)

let gen_typed_value =
  QCheck.Gen.(gen_ty 2 >>= fun ty -> gen_value ty >>= fun v -> return (ty, v))

let arbitrary_typed =
  QCheck.make gen_typed_value ~print:(fun (ty, v) ->
      Format.asprintf "%a / %a" Asn1.pp_ty ty Asn1.pp_value v)

let prop_stub_roundtrip =
  QCheck.Test.make ~count:300 ~name:"marshal/unmarshal = id for random typed values"
    arbitrary_typed
    (fun (ty, v) ->
      let stub = Stub.compile ty in
      let wire = Stub.marshal stub v in
      String.length wire mod 4 = 0 && Asn1.equal v (Stub.unmarshal stub wire))

let prop_stub_garbage_safe =
  QCheck.Test.make ~count:300 ~name:"random bytes never crash the decoder"
    QCheck.(pair arbitrary_typed (string_of_size Gen.(int_bound 40)))
    (fun ((ty, _), junk) ->
      let stub = Stub.compile ty in
      match Stub.unmarshal stub junk with
      | _ -> true
      | exception Xdr.Dec.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* The ILP-extended stub compiler *)

let install sim str =
  let addr =
    Ilp_memsim.Alloc.alloc sim.Ilp_memsim.Sim.alloc ~align:8
      (max 1 (String.length str))
  in
  Ilp_memsim.Mem.poke_string sim.Ilp_memsim.Sim.mem ~pos:addr str;
  addr

let message_ty : Asn1.ty =
  Seq [ ("kind", Enum [| "data"; "ctl" |]); ("offset", Int); ("body", Opaque) ]

(* Lay out a message through the cursor: [start], one push per leaf,
   [finish]. *)
let lay_out stub pushes =
  Stub_ilp.start stub;
  List.iter (fun push -> push stub) pushes;
  Stub_ilp.finish stub

let laid_segments stub = List.init (Stub_ilp.count stub) (fun i -> (Stub_ilp.segments stub).(i))

let test_stub_ilp_matches_plain_marshal () =
  (* The compiled layout, flattened, must equal the plain stub's output
     for the same logical value. *)
  let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
  let payload = "seventeen bytes!!" in
  let addr = install sim payload in
  let ilp = Stub_ilp.compile message_ty in
  match
    lay_out ilp
      [ (fun s -> Stub_ilp.push_enum s 0);
        (fun s -> Stub_ilp.push_int s 4096);
        Stub_ilp.push_memory ~addr ~len:(String.length payload) ]
  with
  | Error e -> Alcotest.fail e
  | Ok () ->
      let plain =
        Stub.marshal (Stub.compile message_ty)
          (Asn1.VSeq [ Asn1.VEnum 0; Asn1.VInt 4096; Asn1.VBytes payload ])
      in
      Alcotest.(check string)
        "flattened layout = plain marshal" plain
        (Stub_ilp.flatten sim.Ilp_memsim.Sim.mem ilp);
      Alcotest.(check int) "total_len" (String.length plain) (Stub_ilp.total_len ilp);
      (* The payload run must be an App segment, not copied into Gen. *)
      checkb "payload stays in memory" true
        (List.exists
           (function Stub_ilp.App { addr = a; _ } -> a = addr | _ -> false)
           (laid_segments ilp))

let test_stub_ilp_multiple_memory_fields () =
  let ty : Asn1.ty = Seq [ ("a", Opaque); ("sep", Int); ("b", Opaque) ] in
  let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
  let a = install sim "first-region" and b = install sim "second" in
  let ilp = Stub_ilp.compile ty in
  match
    lay_out ilp
      [ Stub_ilp.push_memory ~addr:a ~len:12;
        (fun s -> Stub_ilp.push_int s 7);
        Stub_ilp.push_memory ~addr:b ~len:6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok () ->
      let plain =
        Stub.marshal (Stub.compile ty)
          (Asn1.VSeq [ Asn1.VBytes "first-region"; Asn1.VInt 7; Asn1.VBytes "second" ])
      in
      Alcotest.(check string)
        "two memory fields" plain
        (Stub_ilp.flatten sim.Ilp_memsim.Sim.mem ilp);
      check "two App segments" 2
        (List.length
           (List.filter (function Stub_ilp.App _ -> true | _ -> false) (laid_segments ilp)))

(* One encoder per layout: a flush hands over the bytes generated so far
   and clears the encoder, so a memory field costs the segments it adds
   (its length word, the run, its padding) and never a fresh encoder. *)
let test_stub_ilp_one_encoder () =
  let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
  let addr = install sim "seventeen bytes!!" in
  let words_per_call f =
    ignore (Sys.opaque_identity (f ()));
    let n = 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let layout k =
    let ty : Asn1.ty =
      Seq (List.init k (fun i -> (Printf.sprintf "f%d" i, Asn1.Opaque)))
    in
    let ilp = Stub_ilp.compile ty in
    fun () ->
      Stub_ilp.start ilp;
      for _ = 1 to k do
        Stub_ilp.push_memory ilp ~addr ~len:17
      done;
      Stub_ilp.finish ilp
  in
  let encoder = words_per_call Xdr.Enc.create in
  let per_field = (words_per_call (layout 5) -. words_per_call (layout 1)) /. 4.0 in
  checkb
    (Printf.sprintf "a memory field costs %.1f words, an encoder %.1f" per_field
       encoder)
    true (per_field < encoder)

(* A missing leaf, a memory push to an enum, an ill-typed value and an
   extra push are each an [Error], with the layout's own words. *)
let test_stub_ilp_errors () =
  let ilp = Stub_ilp.compile message_ty in
  let fails what want pushes =
    match lay_out ilp pushes with
    | Error e -> check_s what want e
    | Ok () -> Alcotest.fail (what ^ " accepted")
  in
  fails "missing sources" "not enough sources for the message type"
    [ (fun s -> Stub_ilp.push_enum s 0) ];
  let empty_body = Stub_ilp.push_memory ~addr:0 ~len:0 in
  fails "From_memory for an enum"
    "From_memory is only valid for opaque and string fields"
    [ Stub_ilp.push_memory ~addr:0 ~len:4; (fun s -> Stub_ilp.push_int s 0); empty_body ];
  fails "ill-typed immediate"
    "immediate value does not inhabit its field: value does not match type"
    [ (fun s -> Stub_ilp.push_enum s 0); (fun s -> Stub_ilp.push_str s "x"); empty_body ];
  fails "enum out of range"
    "immediate value does not inhabit its field: enum value 2 out of range 0..1"
    [ (fun s -> Stub_ilp.push_enum s 2); (fun s -> Stub_ilp.push_int s 0); empty_body ];
  fails "int out of range"
    "immediate value does not inhabit its field: int out of 32-bit range: 4294967296"
    [ (fun s -> Stub_ilp.push_enum s 0);
      (fun s -> Stub_ilp.push_int s 0x1_0000_0000);
      empty_body ];
  fails "negative memory length" "negative memory field length"
    [ (fun s -> Stub_ilp.push_enum s 0);
      (fun s -> Stub_ilp.push_int s 0);
      Stub_ilp.push_memory ~addr:0 ~len:(-1) ];
  fails "extra sources" "too many sources for the message type"
    [ (fun s -> Stub_ilp.push_enum s 0);
      (fun s -> Stub_ilp.push_int s 0);
      empty_body;
      (fun s -> Stub_ilp.push_int s 9) ];
  (* A failed layout leaves nothing behind: the next message lays out
     cleanly. *)
  let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
  let addr = install sim "ok" in
  match
    lay_out ilp
      [ (fun s -> Stub_ilp.push_enum s 1);
        (fun s -> Stub_ilp.push_int s 5);
        Stub_ilp.push_memory ~addr ~len:2 ]
  with
  | Ok () ->
      check_s "after a failure"
        (Stub.marshal (Stub.compile message_ty)
           (Asn1.VSeq [ Asn1.VEnum 1; Asn1.VInt 5; Asn1.VBytes "ok" ]))
        (Stub_ilp.flatten sim.Ilp_memsim.Sim.mem ilp)
  | Error e -> Alcotest.fail e

let prop_stub_ilp_equals_plain =
  QCheck.Test.make ~count:150
    ~name:"compiled layout flattens to the plain stub's encoding"
    QCheck.(
      triple (string_of_size Gen.(int_bound 40)) (int_bound 1000)
        (string_of_size Gen.(int_bound 15)))
    (fun (payload, n, tag) ->
      let ty : Asn1.ty = Seq [ ("tag", Str); ("n", Int); ("body", Opaque) ] in
      let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
      let addr = install sim payload in
      let ilp = Stub_ilp.compile ty in
      match
        lay_out ilp
          [ (fun s -> Stub_ilp.push_str s tag);
            (fun s -> Stub_ilp.push_int s n);
            Stub_ilp.push_memory ~addr ~len:(String.length payload) ]
      with
      | Error _ -> false
      | Ok () ->
          Stub_ilp.flatten sim.Ilp_memsim.Sim.mem ilp
          = Stub.marshal (Stub.compile ty)
              (Asn1.VSeq [ Asn1.VStr tag; Asn1.VInt n; Asn1.VBytes payload ]))

(* The leaves of a typed value, in declaration order: the cursor's
   pushes. *)
let rec leaves (ty : Asn1.ty) (v : Asn1.value) acc =
  match (ty, v) with
  | Asn1.Seq fields, Asn1.VSeq vs ->
      List.fold_left2 (fun acc (_, fty) fv -> leaves fty fv acc) acc fields vs
  | _ -> (ty, v) :: acc

(* A well-typed push of [v] into leaf [ty]; [pick] chooses between an
   immediate string and one in memory. *)
let good_push sim ~pick (ty : Asn1.ty) (v : Asn1.value) stub =
  match (ty, v) with
  | (Asn1.Int | Asn1.Uint), Asn1.VInt n -> Stub_ilp.push_int stub n
  | Asn1.Enum _, Asn1.VEnum i -> Stub_ilp.push_enum stub i
  | Asn1.Str, Asn1.VStr s when pick -> Stub_ilp.push_str stub s
  | (Asn1.Str, Asn1.VStr s | Asn1.Opaque, Asn1.VBytes s) ->
      Stub_ilp.push_memory stub ~addr:(install sim s) ~len:(String.length s)
  | _ -> Alcotest.fail "value does not inhabit its leaf"

(* A push that leaf [ty] must refuse. *)
let bad_push (ty : Asn1.ty) stub =
  match ty with
  | Asn1.Int -> Stub_ilp.push_int stub 0x8000_0000
  | Asn1.Uint -> Stub_ilp.push_int stub (-1)
  | Asn1.Enum names -> Stub_ilp.push_enum stub (Array.length names)
  | Asn1.Str | Asn1.Opaque -> Stub_ilp.push_int stub 0
  | Asn1.Seq _ -> Alcotest.fail "a sequence is not a leaf"

let prop_stub_ilp_cursor =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"cursor layout = plain marshal; ill-typed, missing or extra push is an Error"
    QCheck.(pair arbitrary_typed (pair small_nat int))
    (fun ((ty, v), (k, picks)) ->
      let sim = Ilp_memsim.Sim.create (Ilp_memsim.Config.custom ()) in
      let stub = Stub_ilp.compile ty in
      let ls = List.rev (leaves ty v []) in
      let n = List.length ls in
      let pushes =
        List.mapi (fun i (lt, lv) -> good_push sim ~pick:((picks lsr (i mod 60)) land 1 = 0) lt lv) ls
      in
      let k = k mod n in
      let is_error = function Error _ -> true | Ok () -> false in
      (match lay_out stub pushes with
      | Ok () ->
          let wire = Stub.marshal (Stub.compile ty) v in
          Stub_ilp.flatten sim.Ilp_memsim.Sim.mem stub = wire
          && Stub_ilp.total_len stub = String.length wire
      | Error _ -> false)
      && is_error (lay_out stub (List.filteri (fun i _ -> i < n - 1) pushes))
      && is_error (lay_out stub (pushes @ [ List.hd pushes ]))
      && is_error
           (lay_out stub
              (List.mapi (fun i p -> if i = k then bad_push (fst (List.nth ls i)) else p) pushes)))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "codec"
    [ ( "xdr",
        [ Alcotest.test_case "padding" `Quick test_padding;
          Alcotest.test_case "int encodings" `Quick test_xdr_int_encodings;
          Alcotest.test_case "opaque padding" `Quick test_xdr_opaque_padding;
          Alcotest.test_case "decode round trip" `Quick test_xdr_decode_roundtrip;
          Alcotest.test_case "decode in place" `Quick test_xdr_decode_in_place;
          Alcotest.test_case "decode errors" `Quick test_xdr_decode_errors;
          Alcotest.test_case "encode range checks" `Quick test_xdr_enc_range_checks ] );
      ( "asn1",
        [ Alcotest.test_case "well-typed" `Quick test_asn1_check_ok;
          Alcotest.test_case "ill-typed" `Quick test_asn1_check_failures ] );
      ( "stub",
        [ Alcotest.test_case "sample round trip" `Quick test_stub_roundtrip_sample;
          Alcotest.test_case "rejects ill-typed" `Quick test_stub_rejects_ill_typed;
          qc prop_stub_roundtrip;
          qc prop_stub_garbage_safe ] );
      ( "stub_ilp",
        [ Alcotest.test_case "matches plain marshal" `Quick
            test_stub_ilp_matches_plain_marshal;
          Alcotest.test_case "multiple memory fields" `Quick
            test_stub_ilp_multiple_memory_fields;
          Alcotest.test_case "errors" `Quick test_stub_ilp_errors;
          Alcotest.test_case "one encoder per layout" `Quick test_stub_ilp_one_encoder;
          qc prop_stub_ilp_equals_plain;
          qc prop_stub_ilp_cursor ] ) ]
