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

(* A lane sum holds 16-bit lanes in native byte order, two 32-bit halves
   per word.  One's-complement addition commutes, so the lanes may be
   reordered freely and the folded result byte-swapped once: a native
   lane pair is big-endian on a big-endian host or at odd parity, and
   little-endian otherwise.  Each word adds < 2^33, so 2^16 words stay
   below 2^50, inside the 63-bit int; the end-around carry keeps the sum
   congruent modulo 2^32 - 1, a multiple of 0xffff.  A loop carries
   inline, not through a call: a call in the loop would spill its
   cursors to the stack.  Here the two halves are let-bound, so they are
   tagged off the sum's dependency chain: 15-28% faster than the inline
   form on this loop, while in the fused cipher loops, short of
   registers, the inline form measured faster. *)
let add_lanes acc lanes =
  let folded = fold16 ((lanes land 0xffff_ffff) + (lanes lsr 32)) in
  let v = if Sys.big_endian <> acc_odd acc then folded else byteswap16 folded in
  pack (fold16 (acc_sum acc + v)) (acc_odd acc)

let add_bytes_unsafe acc b ~off ~len =
  let words = len lsr 3 and lanes = ref 0 in
  for k = 0 to words - 1 do
    let w = unsafe_get_64 b (off + (k lsl 3)) in
    let lo = Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    lanes := !lanes + lo + hi;
    (* The end-around carry, every 2^16 words. *)
    if k land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32)
  done;
  let acc = ref (add_lanes acc !lanes) in
  for i = off + (words lsl 3) to off + len - 1 do
    acc := add_byte !acc (Char.code (Bytes.unsafe_get b i))
  done;
  pack (fold16 (acc_sum !acc)) (acc_odd !acc)

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
