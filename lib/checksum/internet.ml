(* The accumulator is packed into an immediate — partial sum in the high
   bits, byte-parity in bit 0 — so extending it (once per block in the
   fused ILP loop) allocates nothing; a record here costs a minor-heap
   block per update. *)
type acc = int

let pack sum odd = (sum lsl 1) lor (if odd then 1 else 0)
let acc_sum (a : acc) = a lsr 1
let acc_odd (a : acc) = a land 1 = 1

let empty = 0

let rec fold16 s = if s > 0xffff then fold16 ((s land 0xffff) + (s lsr 16)) else s

let add_byte acc b =
  if acc_odd acc then pack (acc_sum acc + b) false
  else pack (acc_sum acc + (b lsl 8)) true

let byteswap16 v = ((v land 0xff) lsl 8) lor (v lsr 8)

external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let add_bytes_unsafe acc b ~off ~len =
  let i = ref off in
  let stop = off + len in
  let sum = ref (acc_sum acc) in
  let odd = ref (acc_odd acc) in
  if !odd && !i < stop then begin
    (* A byte at odd parity lands in the low-order half of its word. *)
    sum := !sum + Char.code (Bytes.unsafe_get b !i);
    odd := false;
    incr i
  end;
  if stop - !i >= 8 then begin
    (* Word loop: four 16-bit lanes per load, accumulated in native byte
       order as two 32-bit halves of one register.  One's-complement
       addition commutes, so the lanes may be reordered freely and the
       folded result byte-swapped once at the end. *)
    let wsum = ref 0 in
    let words = ref 0 in
    while stop - !i >= 8 do
      let w = unsafe_get_64 b !i in
      let lo = Int64.to_int (Int64.logand w 0xFFFF_FFFFL) in
      let hi = Int64.to_int (Int64.shift_right_logical w 32) in
      wsum := !wsum + lo + hi;
      i := !i + 8;
      incr words;
      (* Each word adds < 2^33; an end-around carry every 2^16 words keeps
         the total below 2^50, inside the 63-bit int. *)
      if !words land 0xffff = 0 then
        wsum := (!wsum land 0xffff_ffff) + (!wsum lsr 32)
    done;
    let folded = fold16 ((!wsum land 0xffff_ffff) + (!wsum lsr 32)) in
    sum := !sum + (if Sys.big_endian then folded else byteswap16 folded)
  end;
  while stop - !i >= 2 do
    sum :=
      !sum
      + (Char.code (Bytes.unsafe_get b !i) lsl 8)
      + Char.code (Bytes.unsafe_get b (!i + 1));
    i := !i + 2
  done;
  (* Parity is even here: any leading odd byte was consumed above, and the
     2-byte loop preserves evenness. *)
  if !i < stop then begin
    sum := !sum + (Char.code (Bytes.unsafe_get b !i) lsl 8);
    odd := true
  end;
  pack (fold16 !sum) !odd

let add_bytes acc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Internet.add_bytes";
  add_bytes_unsafe acc b ~off ~len

let add_string acc s = add_bytes acc (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let add_u16 acc v =
  if acc_odd acc then invalid_arg "Internet.add_u16: unaligned accumulator";
  pack (fold16 (acc_sum acc + (v land 0xffff))) false

let combine a b ~len_b =
  let fb = fold16 (acc_sum b) in
  let fb = if acc_odd a then byteswap16 fb else fb in
  pack (fold16 (acc_sum a + fb)) (acc_odd a <> (len_b land 1 = 1))

let finish acc = lnot (fold16 (acc_sum acc)) land 0xffff

let checksum_string s = finish (add_string empty s)

let ops ~len = (len + 1) / 2 * 2

let checksum_mem mem ~pos ~len ~acc =
  let machine = Ilp_memsim.Mem.machine mem in
  let even = len / 2 * 2 in
  (* Per 16-bit word: add + carry fold + loop bookkeeping. *)
  Ilp_memsim.Machine.read_run machine ~addr:pos ~len:even ~unit:2 ~ops:3;
  let acc =
    if even > 0 then add_bytes acc (Ilp_memsim.Mem.raw mem) ~off:pos ~len:even
    else acc
  in
  if len > even then begin
    let v = Ilp_memsim.Mem.get_u8 mem (pos + even) in
    Ilp_memsim.Machine.compute machine 2;
    add_byte acc v
  end
  else acc

let verify_string s = fold16 (acc_sum (add_string empty s)) = 0xffff
