type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable flags : int;
  mutable window : int;
  mutable checksum : int;
  mutable urgent : int;
  mutable sack : (int * int) list;
}

let size = 20
let max_sack_blocks = 3

(* NOP NOP SACK(kind=5, len=2+8n) — the canonical padded layout, so the
   option area is always a whole number of 32-bit words and the data
   offset describes it exactly. *)
let sack_len = function [] -> 0 | blocks -> 4 + (8 * List.length blocks)
let options_len t = sack_len t.sack

let wire_size t = size + options_len t
let max_wire_size = size + 4 + (8 * max_sack_blocks)
let fin = 0x01
let syn = 0x02
let rst = 0x04
let psh = 0x08
let ack_flag = 0x10
let has t flag = t.flags land flag <> 0

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* The window field is 16 bits on the wire (no scaling option).  A
   configuration advertising more must saturate here: the raw set_u16
   would otherwise truncate modulo 2^16 — 65536 becomes 0 and the sender
   reads a closed window instead of a huge one. *)
let clamp_window window = Int.max 0 (Int.min window 0xffff)

(* At most 3 blocks fit the option budget this stack grants itself (RFC
   2018 allows 4 without timestamps; 3 keeps headroom and matches the
   common case).  A list that fits is kept as it is. *)
let clip_sack sack =
  if List.compare_length_with sack max_sack_blocks <= 0 then sack
  else take max_sack_blocks sack

let make ?(seq = 0) ?(ack = 0) ?(flags = 0) ?(window = 0) ?(checksum = 0)
    ?(urgent = 0) ?(sack = []) ~src_port ~dst_port () =
  { src_port; dst_port; seq; ack; flags; window = clamp_window window; checksum;
    urgent; sack = clip_sack sack }

(* Data offset in 32-bit words: 5 for the bare header, 6..11 with the
   canonical SACK option attached. *)
let off_flags_of ~flags ~sack = (((size + sack_len sack) lsr 2) lsl 12) lor (flags land 0xfff)

(* The canonical option's two leading 16-bit words for [n] blocks:
   NOP NOP, then SACK kind 5 with its length. *)
let nop_nop = 0x0101
let sack_kind_len n = (0x05 lsl 8) lor (2 + (8 * n))

(* The canonical option shape, for both parses: the SACK block count a
   data offset of [words] (more than 5) frames, or -1 when the header
   runs past the [avail] bytes available or the option area is not
   4 + 8n bytes for n in 1..max_sack_blocks. *)
let sack_blocks ~words ~avail =
  let hdr_len = words * 4 in
  let opt_len = hdr_len - size in
  if
    words < 5 || hdr_len > avail || opt_len < 12
    || opt_len > 4 + (8 * max_sack_blocks)
    || (opt_len - 4) mod 8 <> 0
  then -1
  else (opt_len - 4) / 8

let sack_lead_ok ~n kind_word len_word =
  kind_word = nop_nop && len_word = sack_kind_len n

(* The one layout of a header's bytes, written through [set16]/[set32]
   at [pos] of [dst] ([Mem]'s charged setters, or a byte buffer's own):
   the fixed 20 bytes, then the option area as 16-bit words —
   [0x0101; 0x05<<8 | len] and each block edge split high/low.  Returns
   the header's length. *)
let rec put_blocks set16 dst pos = function
  | [] -> ()
  | (l, r) :: rest ->
      set16 dst pos ((l lsr 16) land 0xffff);
      set16 dst (pos + 2) (l land 0xffff);
      set16 dst (pos + 4) ((r lsr 16) land 0xffff);
      set16 dst (pos + 6) (r land 0xffff);
      put_blocks set16 dst (pos + 8) rest

let put set16 set32 dst pos ~src_port ~dst_port ~seq ~ack ~flags ~window ~checksum
    ~urgent ~sack =
  set16 dst pos src_port;
  set16 dst (pos + 2) dst_port;
  set32 dst (pos + 4) seq;
  set32 dst (pos + 8) ack;
  set16 dst (pos + 12) (off_flags_of ~flags ~sack);
  set16 dst (pos + 14) window;
  set16 dst (pos + 16) checksum;
  set16 dst (pos + 18) urgent;
  (match sack with
  | [] -> ()
  | blocks ->
      set16 dst (pos + size) nop_nop;
      set16 dst (pos + size + 2) (sack_kind_len (List.length blocks));
      put_blocks set16 dst (pos + size + 4) blocks);
  size + sack_len sack

let bytes_set16 b pos v = Bytes.set_uint16_be b pos (v land 0xffff)
let bytes_set32 b pos v = Bytes.set_int32_be b pos (Int32.of_int (v land 0xffff_ffff))

let bad_options = -1

(* Blocks [i], [i - 1] .. [0] of the option area at [base], last block
   read first. *)
let rec read_blocks mem base i acc =
  if i < 0 then acc
  else
    let l = Ilp_memsim.Mem.get_u32 mem (base + (i * 8)) in
    let r = Ilp_memsim.Mem.get_u32 mem (base + (i * 8) + 4) in
    read_blocks mem base (i - 1) ((l, r) :: acc)

(* Charged parse of a header at [pos] into [h]: the base header, then
   the option area when the data offset claims one that [total] covers.
   Anything but the one canonical SACK layout is a structural error —
   the caller drops the segment (the paper's fixed-header precondition
   means this stack never has to walk an arbitrary option list). *)
let read_mem mem ~pos ~total h =
  let open Ilp_memsim in
  h.src_port <- Mem.get_u16 mem pos;
  h.dst_port <- Mem.get_u16 mem (pos + 2);
  h.seq <- Mem.get_u32 mem (pos + 4);
  h.ack <- Mem.get_u32 mem (pos + 8);
  let off_flags = Mem.get_u16 mem (pos + 12) in
  h.flags <- off_flags land 0xfff;
  h.window <- Mem.get_u16 mem (pos + 14);
  h.checksum <- Mem.get_u16 mem (pos + 16);
  h.urgent <- Mem.get_u16 mem (pos + 18);
  h.sack <- [];
  Machine.compute (Mem.machine mem) 16;
  let words = (off_flags lsr 12) land 0xf in
  if words = 5 then size
  else
    let n = sack_blocks ~words ~avail:total in
    if n < 0 then bad_options
    else begin
      let kind_word = Mem.get_u16 mem (pos + size) in
      let len_word = Mem.get_u16 mem (pos + size + 2) in
      Machine.compute (Mem.machine mem) ((words * 4) - size);
      if not (sack_lead_ok ~n kind_word len_word) then bad_options
      else begin
        h.sack <- read_blocks mem (pos + size + 4) (n - 1) [];
        words * 4
      end
    end

let to_string t =
  let b = Bytes.create (wire_size t) in
  ignore
    (put bytes_set16 bytes_set32 b 0 ~src_port:t.src_port ~dst_port:t.dst_port
       ~seq:t.seq ~ack:t.ack ~flags:t.flags ~window:t.window ~checksum:t.checksum
       ~urgent:t.urgent ~sack:t.sack);
  Bytes.unsafe_to_string b

let decode s ~pos =
  let b = Bytes.unsafe_of_string s in
  let u16 off = Bytes.get_uint16_be b (pos + off) in
  let u32 off = Int32.to_int (Bytes.get_int32_be b (pos + off)) land 0xffff_ffff in
  { src_port = u16 0;
    dst_port = u16 2;
    seq = u32 4;
    ack = u32 8;
    flags = u16 12 land 0xfff;
    window = u16 14;
    checksum = u16 16;
    urgent = u16 18;
    sack = [] }

let of_string s ~pos =
  if pos < 0 || pos + size > String.length s then
    Error
      (Printf.sprintf "Tcp_header.of_string: truncated (%d bytes at %d, need %d)"
         (String.length s) pos size)
  else
    let base = decode s ~pos in
    let b = Bytes.unsafe_of_string s in
    let words = (Bytes.get_uint16_be b (pos + 12)) lsr 12 land 0xf in
    if words = 5 then Ok base
    else
      let n = sack_blocks ~words ~avail:(String.length s - pos) in
      if n < 0 then Error "Tcp_header.of_string: malformed options"
      else if
        not
          (sack_lead_ok ~n
             (Bytes.get_uint16_be b (pos + size))
             (Bytes.get_uint16_be b (pos + size + 2)))
      then Error "Tcp_header.of_string: non-canonical options"
      else begin
        let u32 off =
          Int32.to_int (Bytes.get_int32_be b (pos + off)) land 0xffff_ffff
        in
        let blocks = ref [] in
        for i = n - 1 downto 0 do
          let l = u32 (size + 4 + (i * 8)) in
          let r = u32 (size + 4 + (i * 8) + 4) in
          blocks := (l, r) :: !blocks
        done;
        Ok { base with sack = !blocks }
      end

let of_string_exn s ~pos =
  match of_string s ~pos with Ok t -> t | Error msg -> invalid_arg msg

(* The pseudo header over a segment of [len] bytes (header with its
   options, plus payload). *)
let pseudo_sum ~src_port ~dst_port ~len =
  let open Ilp_checksum in
  let acc = Internet.add_u16 Internet.empty src_port in
  let acc = Internet.add_u16 acc dst_port in
  let acc = Internet.add_u16 acc 6 (* protocol *) in
  Internet.add_u16 acc len

let pseudo_acc t ~payload_len =
  pseudo_sum ~src_port:t.src_port ~dst_port:t.dst_port ~len:(wire_size t + payload_len)

(* The option area's 16-bit words into a checksum: the layout [put]
   writes. *)
let rec add_blocks acc = function
  | [] -> acc
  | (l, r) :: rest ->
      let open Ilp_checksum in
      let acc = Internet.add_u16 acc ((l lsr 16) land 0xffff) in
      let acc = Internet.add_u16 acc (l land 0xffff) in
      let acc = Internet.add_u16 acc ((r lsr 16) land 0xffff) in
      add_blocks (Internet.add_u16 acc (r land 0xffff)) rest

let add_options acc = function
  | [] -> acc
  | blocks ->
      let open Ilp_checksum in
      let acc = Internet.add_u16 acc nop_nop in
      add_blocks (Internet.add_u16 acc (sack_kind_len (List.length blocks))) blocks

(* The checksum field of a header given field by field, so that a
   sender's header is written once, checksum included. *)
let checksum_of ~src_port ~dst_port ~seq ~ack ~flags ~window ~urgent ~sack ~payload_acc
    ~payload_len =
  let open Ilp_checksum in
  let acc = pseudo_sum ~src_port ~dst_port ~len:(size + sack_len sack + payload_len) in
  let acc = Internet.add_u16 acc src_port in
  let acc = Internet.add_u16 acc dst_port in
  let acc = Internet.add_u16 acc (seq lsr 16) in
  let acc = Internet.add_u16 acc (seq land 0xffff) in
  let acc = Internet.add_u16 acc (ack lsr 16) in
  let acc = Internet.add_u16 acc (ack land 0xffff) in
  let acc = Internet.add_u16 acc (off_flags_of ~flags ~sack) in
  let acc = Internet.add_u16 acc window in
  (* Checksum field counts as zero while checksumming. *)
  let acc = Internet.add_u16 acc urgent in
  let acc = add_options acc sack in
  Internet.finish (Internet.combine acc payload_acc ~len_b:payload_len)

let checksum t ~payload_acc ~payload_len =
  checksum_of ~src_port:t.src_port ~dst_port:t.dst_port ~seq:t.seq ~ack:t.ack
    ~flags:t.flags ~window:t.window ~urgent:t.urgent ~sack:t.sack ~payload_acc
    ~payload_len

(* The one writer of an outgoing header: [make]'s normalisation (the
   window saturated at 16 bits, at most three SACK blocks kept), the
   urgent pointer 0 and the checksum folded from the fields, laid out
   by [put]. *)
let seal set16 set32 dst pos ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port
    ~payload_acc ~payload_len =
  let window = clamp_window window and sack = clip_sack sack in
  let checksum =
    checksum_of ~src_port ~dst_port ~seq ~ack ~flags ~window ~urgent:0 ~sack ~payload_acc
      ~payload_len
  in
  put set16 set32 dst pos ~src_port ~dst_port ~seq ~ack ~flags ~window ~checksum
    ~urgent:0 ~sack

let seal_mem mem ~pos ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port ~payload_acc
    ~payload_len =
  let open Ilp_memsim in
  let len =
    seal Mem.set_u16 Mem.set_u32 mem pos ~seq ~ack ~flags ~window ~sack ~src_port
      ~dst_port ~payload_acc ~payload_len
  in
  Machine.compute (Mem.machine mem) (16 + (len - size));
  len

let seal_bytes b ~off ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port ~payload_acc
    ~payload_len =
  seal bytes_set16 bytes_set32 b off ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port
    ~payload_acc ~payload_len
