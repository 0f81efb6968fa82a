(* Tests for the Internet checksum and CRC-32. *)

open Ilp_checksum
module Sim = Ilp_memsim.Sim
module Mem = Ilp_memsim.Mem
module Alloc = Ilp_memsim.Alloc
module Config = Ilp_memsim.Config

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Independent one's-complement reference, written differently from the
   production code (full-width sum, single fold at the end). *)
let reference s =
  let sum = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Char.code s.[!i] lsl 8) + Char.code s.[!i + 1];
    i := !i + 2
  done;
  if n land 1 = 1 then sum := !sum + (Char.code s.[n - 1] lsl 8);
  while !sum > 0xffff do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let test_internet_rfc_example () =
  (* Worked example from RFC 1071 section 3: bytes 00 01 f2 03 f4 f5 f6 f7
     sum to ddf2 before complement. *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check "rfc1071" (lnot 0xddf2 land 0xffff) (Internet.checksum_string data)

let test_internet_empty_and_zero () =
  check "empty" 0xffff (Internet.checksum_string "");
  check "zeros" 0xffff (Internet.checksum_string (String.make 10 '\000'))

let test_internet_odd_length () =
  check "single byte" (reference "a") (Internet.checksum_string "a");
  check "three bytes" (reference "abc") (Internet.checksum_string "abc")

let test_internet_verify () =
  let data = "some packet data!" in
  let ck = Internet.checksum_string data in
  (* Appending the checksum makes the whole thing verify (even length). *)
  let padded = if String.length data land 1 = 1 then data ^ "\000" else data in
  let with_ck =
    padded ^ String.init 2 (fun i -> Char.chr ((ck lsr ((1 - i) * 8)) land 0xff))
  in
  checkb "verifies" true (Internet.verify_string with_ck);
  let corrupted = "Xome packet data!" in
  let bad =
    (if String.length corrupted land 1 = 1 then corrupted ^ "\000" else corrupted)
    ^ String.init 2 (fun i -> Char.chr ((ck lsr ((1 - i) * 8)) land 0xff))
  in
  checkb "detects corruption" false (Internet.verify_string bad)

let test_internet_add_u16 () =
  let acc = Internet.add_u16 Internet.empty 0x1234 in
  let acc = Internet.add_u16 acc 0x5678 in
  check "same as bytes" (Internet.checksum_string "\x12\x34\x56\x78")
    (Internet.finish acc)

let prop_matches_reference =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"checksum matches an independent reference"
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s -> Internet.checksum_string s = reference s)

let prop_split_combine =
  QCheck.Test.make ~count:300 ~name:"combine over any split equals the whole"
    QCheck.(pair (string_of_size Gen.(int_range 0 64)) small_nat)
    (fun (s, k) ->
      let n = String.length s in
      let cut = if n = 0 then 0 else k mod (n + 1) in
      let a = String.sub s 0 cut and b = String.sub s cut (n - cut) in
      let acc_a = Internet.add_string Internet.empty a in
      let acc_b = Internet.add_string Internet.empty b in
      let combined = Internet.combine acc_a acc_b ~len_b:(String.length b) in
      Internet.finish combined = Internet.checksum_string s)

let prop_incremental_equals_whole =
  QCheck.Test.make ~count:200 ~name:"folding chunk by chunk equals one shot"
    QCheck.(list_of_size Gen.(int_range 0 10) (string_of_size Gen.(int_range 0 17)))
    (fun chunks ->
      let whole = String.concat "" chunks in
      let acc =
        List.fold_left (fun acc c -> Internet.add_string acc c) Internet.empty chunks
      in
      Internet.finish acc = Internet.checksum_string whole)

(* The word-folded unsafe variant must agree with the byte-at-a-time
   reference at every offset/length, including when the accumulator
   resumes at odd parity. *)
let prop_unsafe_random_slices =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"add_bytes_unsafe matches reference on slices"
    QCheck.(triple (string_of_size Gen.(int_range 0 200)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let bytes = Bytes.of_string s in
      let acc = Internet.add_bytes_unsafe Internet.empty bytes ~off ~len in
      Internet.finish acc = reference (String.sub s off len))

let prop_unsafe_odd_parity_resume =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"add_bytes_unsafe resumes correctly from odd parity"
    QCheck.(pair (string_of_size Gen.(int_range 1 64))
              (string_of_size Gen.(int_range 0 100)))
    (fun (prefix, rest) ->
      (* Force an odd-parity accumulator by folding an odd-length prefix. *)
      let prefix =
        if String.length prefix land 1 = 0 then String.sub prefix 0 (String.length prefix - 1)
        else prefix
      in
      let acc = Internet.add_string Internet.empty prefix in
      let acc =
        Internet.add_bytes_unsafe acc (Bytes.of_string rest) ~off:0
          ~len:(String.length rest)
      in
      Internet.finish acc = reference (prefix ^ rest))

let prop_unsafe_long_runs =
  QCheck.Test.make ~count:50 ~long_factor:10 ~name:"add_bytes_unsafe on multi-word runs"
    QCheck.(pair (int_range 0 1024) (int_range 0 255))
    (fun (len, seedb) ->
      let bytes = Bytes.init len (fun i -> Char.chr ((seedb + (i * 131)) land 0xff)) in
      let whole = Internet.add_bytes_unsafe Internet.empty bytes ~off:0 ~len in
      Internet.finish whole = reference (Bytes.to_string bytes))

let prop_checksum_mem_matches =
  QCheck.Test.make ~count:100 ~name:"charged checksum_mem equals the pure checksum"
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      let sim = Sim.create (Config.custom ()) in
      Mem.poke_string sim.Sim.mem ~pos:128 s;
      let acc =
        Internet.checksum_mem sim.Sim.mem ~pos:128 ~len:(String.length s)
          ~acc:Internet.empty
      in
      Internet.finish acc = Internet.checksum_string s)

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc_standard_vector () =
  (* The universal CRC-32 check value. *)
  check "123456789" 0xCBF43926 (Crc32.string_crc "123456789")

let test_crc_empty () = check "empty" 0 (Crc32.string_crc "")

let charged_crc () =
  let sim = Sim.create (Config.custom ()) in
  (Crc32.create sim.Sim.mem sim.Sim.alloc, sim)

let test_crc_charged_matches () =
  let crc, sim = charged_crc () in
  let s = "the quick brown fox" in
  Mem.poke_string sim.Sim.mem ~pos:2048 s;
  let v = Crc32.update_mem crc ~crc:Crc32.init sim.Sim.mem ~pos:2048 ~len:(String.length s) in
  check "charged = pure" (Crc32.string_crc s) (Crc32.finish v);
  checkb "table reads charged" true
    (Ilp_memsim.Stats.accesses (Ilp_memsim.Machine.stats sim.Sim.machine)
       Ilp_memsim.Stats.Read
    > 0)

let prop_crc_block_incremental =
  QCheck.Test.make ~count:100 ~name:"CRC over split blocks equals whole (ordering)"
    QCheck.(pair (string_of_size Gen.(int_range 0 40)) small_nat)
    (fun (s, k) ->
      let crc, _sim = charged_crc () in
      let n = String.length s in
      let cut = if n = 0 then 0 else k mod (n + 1) in
      let b = Bytes.of_string s in
      let c1 = Crc32.update_block crc ~crc:Crc32.init b ~off:0 ~len:cut in
      let c2 = Crc32.update_block crc ~crc:c1 b ~off:cut ~len:(n - cut) in
      Crc32.finish c2 = Crc32.string_crc s)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "checksum"
    [ ( "internet",
        [ Alcotest.test_case "rfc example" `Quick test_internet_rfc_example;
          Alcotest.test_case "empty and zeros" `Quick test_internet_empty_and_zero;
          Alcotest.test_case "odd length" `Quick test_internet_odd_length;
          Alcotest.test_case "verify" `Quick test_internet_verify;
          Alcotest.test_case "add_u16" `Quick test_internet_add_u16;
          qc prop_matches_reference;
          qc prop_split_combine;
          qc prop_incremental_equals_whole;
          qc prop_unsafe_random_slices;
          qc prop_unsafe_odd_parity_resume;
          qc prop_unsafe_long_runs;
          qc prop_checksum_mem_matches ] );
      ( "crc32",
        [ Alcotest.test_case "standard vector" `Quick test_crc_standard_vector;
          Alcotest.test_case "empty" `Quick test_crc_empty;
          Alcotest.test_case "charged matches pure" `Quick test_crc_charged_matches;
          qc prop_crc_block_incremental ] ) ]
