type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : int;
  window : int;
  checksum : int;
  urgent : int;
  sack : (int * int) list;
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
let off_flags t = off_flags_of ~flags:t.flags ~sack:t.sack

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

(* The option bytes as 16-bit words, for checksumming and charged I/O:
   [0x0101; 0x05<<8 | len] then each block edge split high/low. *)
let fold_option_u16 sack ~init ~f =
  match sack with
  | [] -> init
  | blocks ->
      let acc = f init nop_nop in
      let acc = f acc (sack_kind_len (List.length blocks)) in
      List.fold_left
        (fun acc (l, r) ->
          let acc = f acc ((l lsr 16) land 0xffff) in
          let acc = f acc (l land 0xffff) in
          let acc = f acc ((r lsr 16) land 0xffff) in
          f acc (r land 0xffff))
        acc blocks

let write_mem mem ~pos t =
  let open Ilp_memsim in
  Mem.set_u16 mem pos t.src_port;
  Mem.set_u16 mem (pos + 2) t.dst_port;
  Mem.set_u32 mem (pos + 4) t.seq;
  Mem.set_u32 mem (pos + 8) t.ack;
  Mem.set_u16 mem (pos + 12) (off_flags t);
  Mem.set_u16 mem (pos + 14) t.window;
  Mem.set_u16 mem (pos + 16) t.checksum;
  Mem.set_u16 mem (pos + 18) t.urgent;
  (match t.sack with
  | [] -> ()
  | sack ->
      let off = ref (pos + size) in
      ignore
        (fold_option_u16 sack ~init:() ~f:(fun () w ->
             Mem.set_u16 mem !off w;
             off := !off + 2)));
  Machine.compute (Mem.machine mem) (16 + (options_len t))

(* Charged parse of the option area at [pos + 20].  Anything but the one
   canonical SACK layout is a structural error — the caller drops the
   segment (the paper's fixed-header precondition means this stack never
   has to walk an arbitrary option list). *)
type parsed = { hdr : t; hdr_len : int; options_ok : bool }

let read_mem_v mem ~pos ~total =
  let open Ilp_memsim in
  let src_port = Mem.get_u16 mem pos in
  let dst_port = Mem.get_u16 mem (pos + 2) in
  let seq = Mem.get_u32 mem (pos + 4) in
  let ack = Mem.get_u32 mem (pos + 8) in
  let off_flags = Mem.get_u16 mem (pos + 12) in
  let window = Mem.get_u16 mem (pos + 14) in
  let checksum = Mem.get_u16 mem (pos + 16) in
  let urgent = Mem.get_u16 mem (pos + 18) in
  Machine.compute (Mem.machine mem) 16;
  let base =
    { src_port; dst_port; seq; ack; flags = off_flags land 0xfff; window;
      checksum; urgent; sack = [] }
  in
  let words = (off_flags lsr 12) land 0xf in
  if words = 5 then { hdr = base; hdr_len = size; options_ok = true }
  else
    let hdr_len = words * 4 in
    let n = sack_blocks ~words ~avail:total in
    if n < 0 then { hdr = base; hdr_len = Int.min hdr_len total; options_ok = false }
    else begin
      let kind_word = Mem.get_u16 mem (pos + size) in
      let len_word = Mem.get_u16 mem (pos + size + 2) in
      Machine.compute (Mem.machine mem) (hdr_len - size);
      if not (sack_lead_ok ~n kind_word len_word) then
        { hdr = base; hdr_len; options_ok = false }
      else begin
        let blocks = ref [] in
        for i = n - 1 downto 0 do
          let l = Mem.get_u32 mem (pos + size + 4 + (i * 8)) in
          let r = Mem.get_u32 mem (pos + size + 4 + (i * 8) + 4) in
          blocks := (l, r) :: !blocks
        done;
        { hdr = { base with sack = !blocks }; hdr_len; options_ok = true }
      end
    end

let read_mem mem ~pos = (read_mem_v mem ~pos ~total:size).hdr

let to_string t =
  let n = wire_size t in
  let b = Bytes.create n in
  Bytes.set_uint16_be b 0 t.src_port;
  Bytes.set_uint16_be b 2 t.dst_port;
  Bytes.set_int32_be b 4 (Int32.of_int (t.seq land 0xffff_ffff));
  Bytes.set_int32_be b 8 (Int32.of_int (t.ack land 0xffff_ffff));
  Bytes.set_uint16_be b 12 (off_flags t);
  Bytes.set_uint16_be b 14 t.window;
  Bytes.set_uint16_be b 16 t.checksum;
  Bytes.set_uint16_be b 18 t.urgent;
  let off = ref size in
  ignore
    (fold_option_u16 t.sack ~init:() ~f:(fun () w ->
         Bytes.set_uint16_be b !off w;
         off := !off + 2));
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

(* The checksum field of a header given field by field, so that
   [sealed] builds its record once, checksum included. *)
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
  let acc = fold_option_u16 sack ~init:acc ~f:Internet.add_u16 in
  Internet.finish (Internet.combine acc payload_acc ~len_b:payload_len)

let checksum t ~payload_acc ~payload_len =
  checksum_of ~src_port:t.src_port ~dst_port:t.dst_port ~seq:t.seq ~ack:t.ack
    ~flags:t.flags ~window:t.window ~urgent:t.urgent ~sack:t.sack ~payload_acc
    ~payload_len

let sealed ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port ~payload_acc ~payload_len =
  let window = clamp_window window and sack = clip_sack sack in
  let checksum =
    checksum_of ~src_port ~dst_port ~seq ~ack ~flags ~window ~urgent:0 ~sack ~payload_acc
      ~payload_len
  in
  { src_port; dst_port; seq; ack; flags; window; checksum; urgent = 0; sack }
