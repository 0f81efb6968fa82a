(* The ILP engine: unit arithmetic, word-filter sizing, message parts,
   the two pipeline drivers (whose outputs must be byte-identical), and
   the integrated engine round trip. *)

open Ilp_memsim
module Internet = Ilp_checksum.Internet
open Ilp_core
module Stub_ilp = Ilp_codec.Stub_ilp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* [prefix ^ payload] as one message — the shape of a marshalled RPC —
   and its whole-message fill: the one range [0, stream_len). *)
let prepare_msg eng ~prefix ~payload_addr ~payload_len =
  Engine.prepare_stream_segments eng
    [ Stub_ilp.Gen prefix; Stub_ilp.App { addr = payload_addr; len = payload_len } ]

let fill_all mem ps ~dst = ps.Engine.fill_range mem ~dst ~off:0 ~len:ps.Engine.stream_len

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_gcd_lcm () =
  check "gcd" 4 (Units.gcd 12 8);
  check "gcd zero" 5 (Units.gcd 0 5);
  check "lcm" 24 (Units.lcm 12 8);
  check "lcm one" 7 (Units.lcm 1 7)

let test_exchange_unit () =
  (* The paper's example: encryption in 8-byte units, checksum in 2-byte
     units, marshalling in 4-byte units -> Le = 8. *)
  check "paper stack" 8 (Units.exchange_unit [ 4; 8; 2 ]);
  check "with bus width" 16 (Units.exchange_unit ~bus_width:16 [ 4; 8; 2 ]);
  (match Units.exchange_unit [] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Units.exchange_unit [ 0 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_aligned () =
  check "already aligned" 16 (Units.aligned 16 ~unit_len:8);
  check "rounds up" 24 (Units.aligned 17 ~unit_len:8);
  check "zero" 0 (Units.aligned 0 ~unit_len:8)

let prop_lcm_divisibility =
  QCheck.Test.make ~count:200 ~name:"Le is divisible by every unit length"
    QCheck.(list_of_size Gen.(int_range 1 5) (int_range 1 16))
    (fun lens ->
      let le = Units.exchange_unit lens in
      List.for_all (fun l -> le mod l = 0) lens)

(* ------------------------------------------------------------------ *)
(* Parts *)

let test_parts_paper_layout () =
  (* A 20-byte marshalled body behind the 4-byte length field: 24 bytes
     total, no alignment needed. *)
  let p = Parts.plan ~block_len:8 ~body_len:20 in
  check "total" 24 p.Parts.total;
  check "alignment" 0 p.Parts.alignment;
  check "alpha" 4 p.Parts.alpha;
  check "beta" 8 p.Parts.beta;
  check "gamma" 16 p.Parts.gamma;
  checkb "A is the first block" true (Parts.part_a p = (0, 8));
  checkb "B is the middle" true (Parts.part_b p = (8, 8));
  checkb "C is the last block" true (Parts.part_c p = (16, 8));
  check "length field" 24 (Parts.length_field p)

let test_parts_tiny_message () =
  let p = Parts.plan ~block_len:8 ~body_len:2 in
  check "one block" 8 p.Parts.total;
  checkb "B empty" true (snd (Parts.part_b p) = 0);
  checkb "C empty" true (snd (Parts.part_c p) = 0);
  checkb "A covers all" true (Parts.part_a p = (0, 8))

let test_parts_order () =
  let p = Parts.plan ~block_len:8 ~body_len:100 in
  match Parts.in_processing_order p with
  | [ ("B", _); ("C", _); ("A", _) ] -> ()
  | _ -> Alcotest.fail "processing order must be B, C, A"

let prop_parts_partition =
  QCheck.Test.make ~count:300 ~name:"parts A, B, C tile the message exactly"
    QCheck.(int_range 0 4000)
    (fun body_len ->
      let p = Parts.plan ~block_len:8 ~body_len in
      let a_off, a_len = Parts.part_a p in
      let b_off, b_len = Parts.part_b p in
      let c_off, c_len = Parts.part_c p in
      p.Parts.total mod 8 = 0
      && p.Parts.total >= 4 + body_len
      && p.Parts.alignment < 8
      && a_off = 0
      && a_len = 8
      && b_off = 8
      && c_off = b_off + b_len
      && a_len + b_len + c_len = p.Parts.total)

(* ------------------------------------------------------------------ *)
(* Pipeline: the central equivalence *)

let make_sim () = Sim.create (Config.custom ())

let install sim s =
  let addr = Alloc.alloc sim.Sim.alloc ~align:8 (String.length s) in
  Mem.poke_string sim.Sim.mem ~pos:addr s;
  addr

let read_back sim addr len =
  Bytes.to_string (Mem.peek_bytes sim.Sim.mem ~pos:addr ~len)

let stack_of_cipher sim which =
  match which with
  | 0 -> [ Dmf.of_cipher_encrypt (Ilp_cipher.Simple_cipher.charged sim) ]
  | 1 ->
      [ Dmf.marshalling sim ();
        Dmf.of_cipher_encrypt
          (Ilp_cipher.Safer_simplified.charged sim ~key:"abcdefgh" ()) ]
  | _ ->
      [ Dmf.marshalling sim ();
        Dmf.of_cipher_encrypt (Ilp_cipher.Safer.charged sim ~key:"abcdefgh" ()) ]

let test_word_filter_lcm_exchange_unit () =
  (* Sizing a word filter by the pipeline's exchange unit (section 2.2):
     Le is the LCM of the stage units, so one Le block holds whole units
     of every stage and a downstream stage never sees a partial unit. *)
  let sim = make_sim () in
  let stages =
    [ Dmf.marshalling sim ();
      Dmf.of_cipher_encrypt
        (Ilp_cipher.Safer_simplified.charged sim ~key:"abcdefgh" ()) ]
  in
  let le = Pipeline.exchange_len (Pipeline.spec stages) in
  check "Le = LCM of the stage units" (Units.exchange_unit [ 4; 8 ]) le;
  List.iter
    (fun (d : Dmf.t) -> check ("whole " ^ d.name ^ " units") 0 (le mod d.unit_len))
    stages

let prop_fused_equals_separate =
  QCheck.Test.make ~count:100
    ~name:"run_fused output is byte-identical to sequential passes"
    QCheck.(triple (int_range 0 2) (int_range 1 24) (int_range 0 1000))
    (fun (which, blocks, seed) ->
      let len = blocks * 8 in
      let data =
        String.init len (fun i -> Char.chr ((i * 31 + seed) land 0xff))
      in
      (* Separate: one pass per stage through an intermediate buffer. *)
      let sim1 = make_sim () in
      let stages1 = stack_of_cipher sim1 which in
      let src1 = install sim1 data in
      let buf1 = Alloc.alloc sim1.Sim.alloc ~align:8 len in
      List.iteri
        (fun i stage ->
          let src = if i = 0 then src1 else buf1 in
          Pipeline.run_pass sim1 stage ~src ~dst:buf1 ~len ())
        stages1;
      let sep = read_back sim1 buf1 len in
      (* Fused: single loop. *)
      let sim2 = make_sim () in
      let stages2 = stack_of_cipher sim2 which in
      let src2 = install sim2 data in
      let buf2 = Alloc.alloc sim2.Sim.alloc ~align:8 len in
      let spec = Pipeline.spec stages2 in
      Pipeline.run_fused sim2 spec ~src:src2 ~dst:buf2 ~len;
      let fus = read_back sim2 buf2 len in
      String.equal sep fus)

let prop_tap_checksum_correct =
  QCheck.Test.make ~count:100
    ~name:"the fused checksum tap equals a separate checksum pass"
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (blocks, seed) ->
      let len = blocks * 8 in
      let data = String.init len (fun i -> Char.chr ((i * 7 + seed) land 0xff)) in
      let sim = make_sim () in
      let stages =
        [ Dmf.of_cipher_encrypt (Ilp_cipher.Safer_simplified.charged sim ~key:"01234567" ()) ]
      in
      let src = install sim data in
      let dst = Alloc.alloc sim.Sim.alloc ~align:8 len in
      let cell = ref Internet.empty in
      let tap block ~off ~len = cell := Internet.add_bytes !cell block ~off ~len in
      let spec = Pipeline.spec ~tap ~tap_position:Pipeline.Tap_output stages in
      Pipeline.run_fused sim spec ~src ~dst ~len;
      Internet.finish !cell = Internet.checksum_string (read_back sim dst len))

let prop_tap_input_position =
  QCheck.Test.make ~count:100 ~name:"an input tap sees the untransformed stream"
    QCheck.(int_range 1 20)
    (fun blocks ->
      let len = blocks * 8 in
      let data = String.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
      let sim = make_sim () in
      let stages = [ Dmf.of_cipher_encrypt (Ilp_cipher.Simple_cipher.charged sim) ] in
      let src = install sim data in
      let dst = Alloc.alloc sim.Sim.alloc ~align:8 len in
      let cell = ref Internet.empty in
      let tap block ~off ~len = cell := Internet.add_bytes !cell block ~off ~len in
      let spec = Pipeline.spec ~tap ~tap_position:Pipeline.Tap_input stages in
      Pipeline.run_fused sim spec ~src ~dst ~len;
      Internet.finish !cell = Internet.checksum_string data)

let prop_write_pattern_same_bytes =
  QCheck.Test.make ~count:100 ~name:"store schedule never changes the bytes"
    QCheck.(pair (int_range 1 16) (oneofl [ [ 1 ]; [ 2 ]; [ 4 ]; [ 8 ]; [ 4; 2; 1; 1 ] ]))
    (fun (blocks, pattern) ->
      let len = blocks * 8 in
      let data = String.init len (fun i -> Char.chr ((i * 3) land 0xff)) in
      let sim = make_sim () in
      let stages = [ Dmf.of_cipher_encrypt (Ilp_cipher.Simple_cipher.charged sim) ] in
      let src = install sim data in
      let dst = Alloc.alloc sim.Sim.alloc ~align:8 len in
      let spec = Pipeline.spec ~write_pattern:pattern stages in
      Pipeline.run_fused sim spec ~src ~dst ~len;
      read_back sim dst len = Ilp_cipher.Simple_cipher.encrypt_string data)

let test_pipeline_in_place_pass () =
  let sim = make_sim () in
  let data = "0123456789abcdef" in
  let addr = install sim data in
  let stage = Dmf.of_cipher_encrypt (Ilp_cipher.Simple_cipher.charged sim) in
  Pipeline.run_pass sim stage ~src:addr ~dst:addr ~len:16 ();
  check_s "in place" (Ilp_cipher.Simple_cipher.encrypt_string data) (read_back sim addr 16)

let test_pipeline_length_validation () =
  let sim = make_sim () in
  let stage = Dmf.of_cipher_encrypt (Ilp_cipher.Simple_cipher.charged sim) in
  match Pipeline.run_fused sim (Pipeline.spec [ stage ]) ~src:64 ~dst:128 ~len:12 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_linkage_costs_more () =
  let run linkage =
    let sim = make_sim () in
    let stages =
      [ Dmf.marshalling sim ();
        Dmf.of_cipher_encrypt (Ilp_cipher.Safer_simplified.charged sim ~key:"abcdefgh" ()) ]
    in
    let src = install sim (String.make 512 'x') in
    let dst = Alloc.alloc sim.Sim.alloc ~align:8 512 in
    Machine.reset_counters sim.Sim.machine;
    Pipeline.run_fused sim (Pipeline.spec ~linkage stages) ~src ~dst ~len:512;
    Machine.cycles sim.Sim.machine
  in
  checkb "function calls cost more than macros" true
    (run Linkage.function_calls > run Linkage.Macro)

let test_linkage_code_scale () =
  check "macro duplicates" 300 (Linkage.code_scale Linkage.Macro ~expansion_sites:3 100);
  check "calls share" 100
    (Linkage.code_scale Linkage.function_calls ~expansion_sites:3 100);
  check "call ops" 15 (Linkage.call_ops Linkage.function_calls);
  check "macro free" 0 (Linkage.call_ops Linkage.Macro)

(* ------------------------------------------------------------------ *)
(* Dmf *)

let test_dmf_apply_over () =
  let count = ref 0 in
  let d = Dmf.create ~name:"probe" ~unit_len:4 ~code:Code.none (fun _ _ -> incr count) in
  Dmf.apply_over d (Bytes.create 16) ~off:0 ~len:16;
  check "applied per unit" 4 !count;
  match Dmf.apply_over d (Bytes.create 10) ~off:0 ~len:10 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dmf_identity () =
  let d = Dmf.identity 8 in
  let b = Bytes.of_string "ABCDEFGH" in
  d.Dmf.transform b 0;
  check_s "unchanged" "ABCDEFGH" (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Engine round trips *)

let make_engine ?(mode = Engine.Ilp) ?(header_style = Engine.Leading)
    ?(coalesce_writes = false) ?(crc32 = false) ?cipher () =
  let sim = make_sim () in
  let cipher =
    match cipher with
    | Some c -> c sim
    | None -> Ilp_cipher.Safer_simplified.charged sim ~key:"engineKY" ()
  in
  (sim, Engine.create sim ~cipher ~mode ~coalesce_writes ~header_style ~crc32 ())

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

(* Read the TSDU, copy its body out and hand the pool buffer back. *)
let read_copy eng ~len =
  Result.map
    (fun (buf, off, n) ->
      let s = Bytes.sub_string buf off n in
      Engine.release_plaintext eng buf;
      s)
    (Engine.read_plaintext eng ~len)

let engine_roundtrip ~mode ~header_style ~prefix ~payload =
  let sim, eng = make_engine ~mode ~header_style () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix ~payload_addr ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  let acc_opt = fill_all sim.Sim.mem prepared ~dst:wire in
  (* Receive through the same engine (fresh buffers are enough: the
     engine's rx writes into its own area). *)
  (match mode with
  | Engine.Ilp ->
      let acc =
        ok_or_fail
          (Engine.rx_integrated eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len)
      in
      (* The send-side accumulator and receive-side accumulator both cover
         the same ciphertext. *)
      (match acc_opt with
      | Some send_acc ->
          check "send acc = recv acc" (Internet.finish send_acc) (Internet.finish acc)
      | None -> Alcotest.fail "ILP fill must return a checksum")
  | Engine.Separate ->
      checkb "separate fill returns no checksum" true (acc_opt = None);
      ok_or_fail (Engine.rx_separate eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
  let body = ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) in
  check_s "prefix ^ payload recovered" (prefix ^ payload) body

let test_engine_roundtrip_ilp () =
  engine_roundtrip ~mode:Engine.Ilp ~header_style:Engine.Leading
    ~prefix:"HDRWORDS12345678" ~payload:"the payload bytes!"

let test_engine_roundtrip_separate () =
  engine_roundtrip ~mode:Engine.Separate ~header_style:Engine.Leading
    ~prefix:"HDRWORDS12345678" ~payload:"the payload bytes!"

let test_engine_roundtrip_trailer () =
  engine_roundtrip ~mode:Engine.Ilp ~header_style:Engine.Trailer
    ~prefix:"HDRWORDS12345678" ~payload:"the payload bytes!"

let test_engine_modes_agree () =
  (* Both implementations must put the same ciphertext on the wire. *)
  let payload = String.init 333 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let prefix = "PFXWORDS" in
  let run mode =
    let sim, eng = make_engine ~mode () in
    let payload_addr = install sim payload in
    let prepared =
      prepare_msg eng ~prefix ~payload_addr ~payload_len:(String.length payload)
    in
    let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
    ignore (fill_all sim.Sim.mem prepared ~dst:wire);
    read_back sim wire prepared.Engine.stream_len
  in
  check_s "identical wire bytes" (run Engine.Separate) (run Engine.Ilp)

let test_engine_ilp_checksum_matches_wire () =
  (* The fused loop's checksum must equal a separate checksum of what it
     wrote — TCP relies on this. *)
  let payload = String.init 200 (fun i -> Char.chr ((i * 5) land 0xff)) in
  let sim, eng = make_engine ~mode:Engine.Ilp () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix:"ABCD" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  match fill_all sim.Sim.mem prepared ~dst:wire with
  | None -> Alcotest.fail "expected a checksum"
  | Some acc ->
      check "tap checksum = wire checksum"
        (Internet.checksum_string (read_back sim wire prepared.Engine.stream_len))
        (Internet.finish acc)

let prop_engine_roundtrip_sizes =
  QCheck.Test.make ~count:60 ~name:"engine round trip across payload sizes and modes"
    QCheck.(
      triple (int_range 0 900) (int_range 0 5) (oneofl Engine.[ Ilp; Separate ]))
    (fun (payload_len, prefix_words, mode) ->
      let payload = String.init payload_len (fun i -> Char.chr ((i * 97) land 0xff)) in
      let prefix = String.concat "" (List.init prefix_words (fun _ -> "WXYZ")) in
      let sim, eng = make_engine ~mode () in
      let payload_addr = if payload_len = 0 then 64 else install sim payload in
      let prepared =
        prepare_msg eng ~prefix ~payload_addr ~payload_len
      in
      let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
      let acc_opt = fill_all sim.Sim.mem prepared ~dst:wire in
      (match mode with
      | Engine.Ilp ->
          ignore
            (ok_or_fail
               (Engine.rx_integrated eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len))
      | Engine.Separate ->
          ok_or_fail
            (Engine.rx_separate eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
      ignore acc_opt;
      ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) = prefix ^ payload)

let test_engine_coalesce_same_bytes () =
  let payload = String.init 120 (fun i -> Char.chr (i * 2 land 0xff)) in
  let run coalesce =
    let sim, eng = make_engine ~mode:Engine.Ilp ~coalesce_writes:coalesce () in
    let payload_addr = install sim payload in
    let prepared =
      prepare_msg eng ~prefix:"PRFX" ~payload_addr
        ~payload_len:(String.length payload)
    in
    let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
    ignore (fill_all sim.Sim.mem prepared ~dst:wire);
    read_back sim wire prepared.Engine.stream_len
  in
  check_s "LCM stores produce the same ciphertext" (run false) (run true)

let test_engine_rx_late_roundtrip () =
  (* The Late placement (section 3.2.3): TCP checksums separately, the
     deferred fused pass still reconstructs the plaintext. *)
  let payload = String.init 250 (fun i -> Char.chr ((i * 3) land 0xff)) in
  let sim, eng = make_engine ~mode:Engine.Ilp () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix:"LATE" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  ignore (fill_all sim.Sim.mem prepared ~dst:wire);
  ok_or_fail (Engine.rx_late eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len);
  let body = ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) in
  check_s "body recovered via late placement" ("LATE" ^ payload) body

let test_engine_rx_style () =
  let style_of ~mode ~rx_placement =
    let sim = make_sim () in
    let cipher = Ilp_cipher.Simple_cipher.charged sim in
    Engine.rx_processing (Engine.create sim ~cipher ~mode ~rx_placement ())
  in
  (match style_of ~mode:Engine.Ilp ~rx_placement:Engine.Early with
  | Ilp_tcp.Socket.Rx_integrated _ -> ()
  | Ilp_tcp.Socket.Rx_separate _ -> Alcotest.fail "ILP/Early must integrate");
  (match style_of ~mode:Engine.Ilp ~rx_placement:Engine.Late with
  | Ilp_tcp.Socket.Rx_separate _ -> ()
  | Ilp_tcp.Socket.Rx_integrated _ -> Alcotest.fail "ILP/Late must defer");
  match style_of ~mode:Engine.Separate ~rx_placement:Engine.Early with
  | Ilp_tcp.Socket.Rx_separate _ -> ()
  | Ilp_tcp.Socket.Rx_integrated _ -> Alcotest.fail "Separate never integrates"

let test_engine_segments_multi_payload () =
  (* The generalized send path: a message whose body interleaves two
     memory-resident runs with generated words (what the ILP-extended stub
     compiler produces) round-trips through the fused loop. *)
  let sim, eng = make_engine ~mode:Engine.Ilp () in
  let a = install sim "alpha-region-data" and b = install sim "beta!!" in
  let body =
    [ Stub_ilp.Gen "HDR1";
      Stub_ilp.App { addr = a; len = 17 };
      Stub_ilp.Gen "\000\000\000MID0";
      Stub_ilp.App { addr = b; len = 6 };
      Stub_ilp.Gen "\000\000TL" ]
  in
  let prepared = Engine.prepare_stream_segments eng body in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  let acc = Option.get (fill_all sim.Sim.mem prepared ~dst:wire) in
  check "wire checksum matches the fused tap"
    (Internet.checksum_string (read_back sim wire prepared.Engine.stream_len))
    (Internet.finish acc);
  ignore
    (ok_or_fail
       (Engine.rx_integrated eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
  let body = ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) in
  check_s "body reconstructed" "HDR1alpha-region-data\000\000\000MID0beta!!\000\000TL"
    body

let test_engine_stream_ranges_match_whole () =
  (* prepare_stream_segments: filling aligned ranges — here deliberately
     back to front — must produce exactly the bytes of the whole-message
     fill, for both modes, both header styles and with the CRC trailer.
     This is what lets TCP cut a TSDU into MSS segments, each produced by
     an independent fused pass into the retransmission ring. *)
  let payload = String.init 480 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let tail = String.init 36 (fun i -> Char.chr ((i * 13 + 5) land 0xff)) in
  let mk_world ~mode ~header_style ~crc32 =
    let sim, eng = make_engine ~mode ~header_style ~crc32 () in
    let a = install sim payload and b = install sim tail in
    let body =
      [ Stub_ilp.Gen "STRMHDR0";
        Stub_ilp.App { addr = a; len = String.length payload };
        Stub_ilp.Gen "MID4";
        Stub_ilp.App { addr = b; len = String.length tail } ]
    in
    (sim, eng, body)
  in
  List.iter
    (fun (mode, header_style, crc32, name) ->
      let sim1, eng1, body1 = mk_world ~mode ~header_style ~crc32 in
      let prepared = Engine.prepare_stream_segments eng1 body1 in
      let w1 = Alloc.alloc sim1.Sim.alloc ~align:8 prepared.Engine.stream_len in
      ignore (fill_all sim1.Sim.mem prepared ~dst:w1);
      let whole = read_back sim1 w1 prepared.Engine.stream_len in
      let sim2, eng2, body2 = mk_world ~mode ~header_style ~crc32 in
      let ps = Engine.prepare_stream_segments eng2 body2 in
      check (name ^ ": wire length agrees") prepared.Engine.stream_len
        ps.Engine.stream_len;
      let unit = ps.Engine.seg_unit in
      check (name ^ ": message cuttable into aligned ranges") 0
        (ps.Engine.stream_len mod unit);
      let w2 = Alloc.alloc sim2.Sim.alloc ~align:8 ps.Engine.stream_len in
      (* Uneven unit-aligned cuts, filled in reverse order. *)
      let cuts = ref [] in
      let off = ref 0 in
      let k = ref 0 in
      while !off < ps.Engine.stream_len do
        let len = min (unit * (1 + (!k mod 3))) (ps.Engine.stream_len - !off) in
        cuts := (!off, len) :: !cuts;
        off := !off + len;
        incr k
      done;
      List.iter
        (fun (off, len) ->
          ignore (ps.Engine.fill_range sim2.Sim.mem ~dst:(w2 + off) ~off ~len))
        !cuts;
      check_s (name ^ ": range fills = whole-message fill") whole
        (read_back sim2 w2 ps.Engine.stream_len))
    [ (Engine.Ilp, Engine.Leading, false, "ilp/leading");
      (Engine.Separate, Engine.Leading, false, "separate/leading");
      (Engine.Ilp, Engine.Trailer, false, "ilp/trailer");
      (Engine.Ilp, Engine.Leading, true, "ilp/leading+crc") ]

let test_engine_stream_range_validation () =
  let sim, eng = make_engine ~mode:Engine.Ilp () in
  let a = install sim "0123456789abcdef" in
  let ps =
    Engine.prepare_stream_segments eng [ Stub_ilp.App { addr = a; len = 16 } ]
  in
  let u = ps.Engine.seg_unit in
  let bad ~off ~len =
    match ps.Engine.fill_range sim.Sim.mem ~dst:64 ~off ~len with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "misaligned offset rejected" true (bad ~off:1 ~len:u);
  checkb "misaligned length rejected" true (bad ~off:0 ~len:(u + 1));
  checkb "range past the end rejected" true
    (bad ~off:0 ~len:(ps.Engine.stream_len + u));
  checkb "empty range rejected" true (bad ~off:0 ~len:0)

(* A native fill builds nothing: [Wire] gathers each range straight from
   the engine's segment array, so a fill allocates at most the [Some] it
   returns (2 words under ILP, none under separate), for the whole
   message and for each 1448-byte range alike. *)
let test_engine_native_fill_allocates_nothing () =
  let key = "engineKY" in
  List.iter
    (fun (mode, name, words_allowed) ->
      let sim = make_sim () in
      let eng =
        Engine.create sim ~mode ~max_message:8192
          ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
          ~backend:
            (Engine.Native
               (Ilp_fastpath.Cipher.Safer_simplified
                  (Ilp_cipher.Safer_simplified.expand_key key)))
          ()
      in
      let payload = String.init 4000 (fun i -> Char.chr ((i * 31) land 0xff)) in
      let a = install sim payload in
      let ps =
        Engine.prepare_stream_segments eng
          [ Stub_ilp.Gen "HDRWORDS";
            Stub_ilp.App { addr = a; len = String.length payload };
            Stub_ilp.Gen "TAIL" ]
      in
      let total = ps.Engine.stream_len in
      let wire = Alloc.alloc sim.Sim.alloc ~align:8 total in
      let rec mss_ranges off =
        if off >= total then []
        else (off, Int.min 1448 (total - off)) :: mss_ranges (off + 1448)
      in
      List.iter
        (fun (off, len) ->
          let fill () =
            ignore
              (Sys.opaque_identity
                 (ps.Engine.fill_range sim.Sim.mem ~dst:(wire + off) ~off ~len))
          in
          fill ();
          let n = 200 in
          let w0 = Gc.minor_words () in
          for _ = 1 to n do fill () done;
          let words = (Gc.minor_words () -. w0) /. float_of_int n in
          checkb
            (Printf.sprintf "%s fill [%d, %d): %.2f words/call" name off (off + len)
               words)
            true
            (words <= words_allowed +. 0.01))
        ((0, total) :: mss_ranges 0);
      Engine.destroy eng)
    [ (Engine.Ilp, "ilp", 2.0); (Engine.Separate, "separate", 0.0) ]

let test_engine_validations () =
  let _, eng = make_engine () in
  match prepare_msg eng ~prefix:"" ~payload_addr:0 ~payload_len:100_000 with
  | _ -> Alcotest.fail "expected Invalid_argument (too big)"
  | exception Invalid_argument _ -> ()

let test_engine_rx_totality () =
  (* The receive path is total: implausible segment lengths come back as
     Error, never as an exception or an out-of-bounds access. *)
  let sim, eng = make_engine ~mode:Engine.Separate () in
  let bad l = Result.is_error (Engine.rx_separate eng sim.Sim.mem ~src:64 ~dst_off:0 ~len:l) in
  checkb "zero length rejected" true (bad 0);
  checkb "negative length rejected" true (bad (-8));
  checkb "non-block-multiple rejected" true (bad 13);
  checkb "oversize rejected" true (bad 1_000_000);
  let sim2, eng2 = make_engine ~mode:Engine.Ilp () in
  checkb "integrated path rejects too" true
    (Result.is_error (Engine.rx_integrated eng2 sim2.Sim.mem ~src:64 ~dst_off:0 ~len:(-8)));
  checkb "read_plaintext guards its length" true
    (Result.is_error (Engine.read_plaintext eng2 ~len:2)
    && Result.is_error (Engine.read_plaintext eng2 ~len:1_000_000))

let test_engine_rx_bad_length_field () =
  (* Deliver a legitimate ciphertext whose decrypted leading length field
     has been destroyed: rx must report a typed error. *)
  let payload = String.init 96 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let sim, eng = make_engine ~mode:Engine.Separate () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix:"" ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  ignore (fill_all sim.Sim.mem prepared ~dst:wire);
  (* Scramble the first cipher block, where the length word lives. *)
  for i = 0 to 7 do
    let v = Mem.peek_u8 sim.Sim.mem (wire + i) in
    Mem.poke_u8 sim.Sim.mem (wire + i) ((v lxor 0xa5) land 0xff)
  done;
  match Engine.rx_separate eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len with
  | Error _ -> ()
  | Ok () ->
      (* The mangled length may still decode plausibly; then the final read
         must be the guard that fails or succeed with garbage of the right
         shape — but it must not raise. *)
      (match read_copy eng ~len:prepared.Engine.stream_len with
      | Ok _ | Error _ -> ())

let prop_engine_all_flag_combinations =
  QCheck.Test.make ~count:120
    ~name:"engine round trip holds for every flag combination"
    QCheck.(
      pair
        (quad (oneofl Engine.[ Ilp; Separate ])
           (oneofl Engine.[ Leading; Trailer ])
           (oneofl Engine.[ Early; Late ])
           (pair bool bool))
        (int_range 0 700))
    (fun ((mode, header_style, rx_placement, (coalesce, uniform)), payload_len) ->
      let sim = make_sim () in
      let cipher = Ilp_cipher.Safer_simplified.charged sim ~key:"combokey" () in
      let eng =
        Engine.create sim ~cipher ~mode ~header_style ~rx_placement
          ~coalesce_writes:coalesce ~uniform_units:uniform ()
      in
      let payload = String.init payload_len (fun i -> Char.chr ((i * 41) land 0xff)) in
      let payload_addr = if payload_len = 0 then 64 else install sim payload in
      let prepared = prepare_msg eng ~prefix:"CMBO" ~payload_addr ~payload_len in
      let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
      let acc_opt = fill_all sim.Sim.mem prepared ~dst:wire in
      (* The checksum contract per mode. *)
      let checksum_ok =
        match (mode, acc_opt) with
        | Engine.Separate, None -> true
        | Engine.Ilp, Some acc ->
            Internet.finish acc
            = Internet.checksum_string (read_back sim wire prepared.Engine.stream_len)
        | _, _ -> false
      in
      (match Engine.rx_processing eng with
      | Ilp_tcp.Socket.Rx_integrated f ->
          ignore (ok_or_fail (f sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len))
      | Ilp_tcp.Socket.Rx_separate f ->
          ok_or_fail (f sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
      checksum_ok
      && ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) = "CMBO" ^ payload)

(* ------------------------------------------------------------------ *)
(* CRC32 end-to-end trailer *)

let crc_roundtrip ~mode ~header_style =
  let prefix = "HDRWORDS" in
  let payload = String.init 96 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let sim, eng = make_engine ~mode ~header_style ~crc32:true () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix ~payload_addr ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  ignore (fill_all sim.Sim.mem prepared ~dst:wire);
  (match Engine.rx_processing eng with
  | Ilp_tcp.Socket.Rx_integrated f ->
      ignore (ok_or_fail (f sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len))
  | Ilp_tcp.Socket.Rx_separate f ->
      ok_or_fail (f sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
  let body = ok_or_fail (read_copy eng ~len:prepared.Engine.stream_len) in
  check_s "prefix ^ payload recovered, trailer stripped" (prefix ^ payload) body

let test_engine_crc_roundtrips () =
  List.iter
    (fun (mode, style) -> crc_roundtrip ~mode ~header_style:style)
    Engine.
      [ (Ilp, Leading); (Ilp, Trailer); (Separate, Leading); (Separate, Trailer) ]

(* A corruption crafted to collide in the 16-bit Internet checksum:
   adding 1 to one 16-bit word and subtracting 1 from another preserves
   the one's-complement sum, so TCP's verdict cannot catch it.  Without
   the CRC trailer such a segment sails through to the application with
   scrambled plaintext (the DESIGN.md section 9 hole); with it,
   [read_plaintext] rejects. *)
let collide_wire sim wire len =
  let get16 off =
    (Mem.peek_u8 sim.Sim.mem (wire + off) lsl 8)
    lor Mem.peek_u8 sim.Sim.mem (wire + off + 1)
  in
  let put16 off v =
    Mem.poke_u8 sim.Sim.mem (wire + off) ((v lsr 8) land 0xff);
    Mem.poke_u8 sim.Sim.mem (wire + off + 1) (v land 0xff)
  in
  (* Search the third cipher block onward (the leading length field lives
     in block 0) for an incrementable and a decrementable word. *)
  let rec find p off =
    if off + 2 > len then Alcotest.fail "no collision site found"
    else if p (get16 off) then off
    else find p (off + 2)
  in
  let off_inc = find (fun w -> w < 0xffff) 16 in
  let off_dec = find (fun w -> w > 0 && (w < 0xffff || off_inc <> 16)) 18 in
  if off_inc = off_dec then Alcotest.fail "collision offsets clash";
  put16 off_inc (get16 off_inc + 1);
  put16 off_dec (get16 off_dec - 1)

let crc_collision ~crc32 =
  let prefix = "HDRWORDS" in
  let payload = String.init 96 (fun i -> Char.chr ((i * 29) land 0xff)) in
  let sim, eng = make_engine ~mode:Engine.Separate ~crc32 () in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix ~payload_addr ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  ignore (fill_all sim.Sim.mem prepared ~dst:wire);
  let before = read_back sim wire prepared.Engine.stream_len in
  collide_wire sim wire prepared.Engine.stream_len;
  let after = read_back sim wire prepared.Engine.stream_len in
  checkb "wire actually corrupted" false (before = after);
  check "Internet checksum collides"
    (Internet.checksum_string before)
    (Internet.checksum_string after);
  ok_or_fail (Engine.rx_separate eng sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len);
  read_copy eng ~len:prepared.Engine.stream_len

let test_engine_crc_catches_collision () =
  (* Without the trailer the colliding corruption reaches the application
     as scrambled-but-accepted plaintext (the length field lives in an
     untouched block, so the only guard left is the application's own).
     With it, the read is a typed rejection. *)
  (match crc_collision ~crc32:false with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "without crc the collision should be silent, got: %s" e);
  match crc_collision ~crc32:true with
  | Error e ->
      let contains hay needle =
        let h = String.length hay and n = String.length needle in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      checkb "crc mismatch reported" true
        (contains (String.lowercase_ascii e) "crc")
  | Ok _ -> Alcotest.fail "crc32 must reject the colliding corruption"

let test_engine_crc_wire_len () =
  (* The trailer adds exactly one word to the encrypted length. *)
  let _, plain = make_engine () in
  let _, with_crc = make_engine ~crc32:true () in
  check "one extra word, same alignment"
    (Engine.wire_len plain ~prefix_len:8 ~payload_len:100 + 8)
    (Engine.wire_len with_crc ~prefix_len:8 ~payload_len:104)

(* ------------------------------------------------------------------ *)
(* Data path: the one read call recovers the exact body in every engine
   variant, reports the exact decode errors, and leaks no pool buffer. *)

let dp_body = "HDRWORDS" ^ String.init 333 (fun i -> Char.chr ((i * 37 + 5) land 0xff))

(* One full transfer of [dp_body]; returns the engine (rx already run)
   and the wire length, leaving the plaintext readable. *)
let transfer_with ~mode ~header_style ~crc32 ?pool () =
  let sim = make_sim () in
  let cipher = Ilp_cipher.Safer_simplified.charged sim ~key:"engineKY" () in
  let eng = Engine.create sim ~cipher ~mode ~header_style ~crc32 ?pool () in
  let payload = String.sub dp_body 8 (String.length dp_body - 8) in
  let payload_addr = install sim payload in
  let prepared =
    prepare_msg eng ~prefix:(String.sub dp_body 0 8) ~payload_addr
      ~payload_len:(String.length payload)
  in
  let wire = Alloc.alloc sim.Sim.alloc ~align:8 prepared.Engine.stream_len in
  ignore (fill_all sim.Sim.mem prepared ~dst:wire);
  (match Engine.rx_processing eng with
  | Ilp_tcp.Socket.Rx_integrated rx ->
      ignore (ok_or_fail (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len))
  | Ilp_tcp.Socket.Rx_separate rx ->
      ok_or_fail (rx sim.Sim.mem ~src:wire ~dst_off:0 ~len:prepared.Engine.stream_len));
  (eng, prepared.Engine.stream_len)

(* The span handed over is exactly the marshalled body, whatever the
   layout around it. *)
let check_span what (buf, off, n) =
  check (what ^ ": span length") (String.length dp_body) n;
  check_s what dp_body (Bytes.sub_string buf off n)

let all_engine_variants =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun header_style ->
          List.map (fun crc32 -> (mode, header_style, crc32)) [ false; true ])
        [ Engine.Leading; Engine.Trailer ])
    [ Engine.Ilp; Engine.Separate ]

let test_data_path_plaintext_identical () =
  List.iter
    (fun (mode, header_style, crc32) ->
      let eng, len = transfer_with ~mode ~header_style ~crc32 () in
      let ((buf, _, _) as span) = ok_or_fail (Engine.read_plaintext eng ~len) in
      check_span "span = prefix ^ payload" span;
      Engine.release_plaintext eng buf;
      Engine.destroy eng;
      check "pool balanced after release + destroy" 0
        (Ilp_fastpath.Pool.outstanding (Engine.pool eng)))
    all_engine_variants

let test_data_path_errors_identical () =
  (* A corruption planted in the decoded plaintext must surface as the
     read's typed error, with its exact text. *)
  List.iter
    (fun (poke_off, what, expected) ->
      let eng, len =
        transfer_with ~mode:Engine.Ilp ~header_style:Engine.Leading ~crc32:true ()
      in
      let sim_mem_addr = Engine.app_rx_base eng + poke_off in
      let sim = Engine.sim eng in
      Mem.poke_u8 sim.Sim.mem sim_mem_addr
        (Mem.peek_u8 sim.Sim.mem sim_mem_addr lxor 0xff);
      (match Engine.read_plaintext eng ~len with
      | Ok (buf, _, _) ->
          Engine.release_plaintext eng buf;
          Alcotest.fail (what ^ ": the read must reject")
      | Error e -> check_s (what ^ ": error text") (expected eng) e);
      Engine.destroy eng;
      check "no pool leak on error path" 0
        (Ilp_fastpath.Pool.outstanding (Engine.pool eng)))
    [ ( 0,
        "length field corrupted",
        fun eng ->
          Printf.sprintf "Engine.read_plaintext: bad length field %d"
            (Mem.peek_u32 (Engine.sim eng).Sim.mem (Engine.app_rx_base eng)) );
      (40, "payload corrupted under crc", fun _ -> "Engine.read_plaintext: crc32 trailer mismatch") ]

let test_data_path_shared_pool_exhaustion () =
  (* A cap-0 shared pool forces the exhaustion fallback on every acquire;
     transfers must still succeed and stay leak-free. *)
  let pool = Ilp_fastpath.Pool.create ~class_cap:0 () in
  let eng, len =
    transfer_with ~mode:Engine.Separate ~header_style:Engine.Trailer ~crc32:false
      ~pool ()
  in
  let ((buf, _, _) as span) = ok_or_fail (Engine.read_plaintext eng ~len) in
  check_span "fallback decode recovers prefix ^ payload" span;
  Engine.release_plaintext eng buf;
  Engine.destroy eng;
  let s = Ilp_fastpath.Pool.stats pool in
  checkb "fallback allocated fresh" true (s.Ilp_fastpath.Pool.fresh_allocs > 0);
  check "shared pool balanced" 0 s.Ilp_fastpath.Pool.outstanding

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [ ( "units",
        [ Alcotest.test_case "gcd/lcm" `Quick test_units_gcd_lcm;
          Alcotest.test_case "exchange unit" `Quick test_exchange_unit;
          Alcotest.test_case "aligned" `Quick test_aligned;
          qc prop_lcm_divisibility ] );
      ( "word_filter",
        [ Alcotest.test_case "LCM exchange-unit sizing" `Quick
            test_word_filter_lcm_exchange_unit ] );
      ( "parts",
        [ Alcotest.test_case "paper layout" `Quick test_parts_paper_layout;
          Alcotest.test_case "tiny message" `Quick test_parts_tiny_message;
          Alcotest.test_case "B, C, A order" `Quick test_parts_order;
          qc prop_parts_partition ] );
      ( "dmf",
        [ Alcotest.test_case "apply_over" `Quick test_dmf_apply_over;
          Alcotest.test_case "identity" `Quick test_dmf_identity ] );
      ( "pipeline",
        [ Alcotest.test_case "in-place pass" `Quick test_pipeline_in_place_pass;
          Alcotest.test_case "length validation" `Quick test_pipeline_length_validation;
          Alcotest.test_case "linkage cost" `Quick test_linkage_costs_more;
          Alcotest.test_case "code scale" `Quick test_linkage_code_scale;
          qc prop_fused_equals_separate;
          qc prop_tap_checksum_correct;
          qc prop_tap_input_position;
          qc prop_write_pattern_same_bytes ] );
      ( "engine",
        [ Alcotest.test_case "round trip (ILP)" `Quick test_engine_roundtrip_ilp;
          Alcotest.test_case "round trip (separate)" `Quick
            test_engine_roundtrip_separate;
          Alcotest.test_case "round trip (trailer)" `Quick test_engine_roundtrip_trailer;
          Alcotest.test_case "modes produce identical wire bytes" `Quick
            test_engine_modes_agree;
          Alcotest.test_case "ILP checksum matches wire" `Quick
            test_engine_ilp_checksum_matches_wire;
          Alcotest.test_case "coalesced stores same bytes" `Quick
            test_engine_coalesce_same_bytes;
          Alcotest.test_case "late-placement round trip" `Quick
            test_engine_rx_late_roundtrip;
          Alcotest.test_case "rx style selection" `Quick test_engine_rx_style;
          Alcotest.test_case "multi-payload segments" `Quick
            test_engine_segments_multi_payload;
          Alcotest.test_case "stream ranges match whole fill" `Quick
            test_engine_stream_ranges_match_whole;
          Alcotest.test_case "stream range validation" `Quick
            test_engine_stream_range_validation;
          Alcotest.test_case "native fill allocates only its result" `Quick
            test_engine_native_fill_allocates_nothing;
          Alcotest.test_case "validations" `Quick test_engine_validations;
          Alcotest.test_case "rx totality" `Quick test_engine_rx_totality;
          Alcotest.test_case "rx bad length field" `Quick
            test_engine_rx_bad_length_field;
          qc prop_engine_roundtrip_sizes;
          qc prop_engine_all_flag_combinations ] );
      ( "crc32",
        [ Alcotest.test_case "round trips (all modes/styles)" `Quick
            test_engine_crc_roundtrips;
          Alcotest.test_case "catches checksum-colliding corruption" `Quick
            test_engine_crc_catches_collision;
          Alcotest.test_case "wire length adds one word" `Quick
            test_engine_crc_wire_len ] );
      ( "data path",
        [ Alcotest.test_case "plaintext identical across read paths" `Quick
            test_data_path_plaintext_identical;
          Alcotest.test_case "identical errors on corruption" `Quick
            test_data_path_errors_identical;
          Alcotest.test_case "shared-pool exhaustion fallback" `Quick
            test_data_path_shared_pool_exhaustion ] ) ]
