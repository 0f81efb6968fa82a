type t = {
  tos : int;
  total_len : int;
  ident : int;
  ttl : int;
  protocol : int;
  src : int;
  dst : int;
}

let header_len = 20
let protocol_tcp = 6
let loopback = 0x7f_00_00_01

let default_ttl = 64

let make ?(ident = 0) ?(protocol = protocol_tcp) ~src ~dst ~payload_len () =
  { tos = 0; total_len = header_len + payload_len; ident; ttl = default_ttl; protocol;
    src; dst }

(* One's-complement sum of the header's ten 16-bit big-endian words,
   read where they are (bytes 0-19 of [b]). *)
let sum16 b =
  let s = ref 0 in
  for i = 0 to (header_len / 2) - 1 do
    s := !s + Bytes.get_uint16_be b (2 * i);
    if !s > 0xffff then s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let write_fields b ~tos ~total_len ~ident ~ttl ~protocol ~src ~dst =
  Bytes.set_uint8 b 0 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 b 1 tos;
  Bytes.set_uint16_be b 2 total_len;
  Bytes.set_uint16_be b 4 ident;
  Bytes.set_uint16_be b 6 0x4000 (* DF: this stack never fragments *);
  Bytes.set_uint8 b 8 ttl;
  Bytes.set_uint8 b 9 protocol;
  Bytes.set_uint16_be b 10 0;
  Bytes.set_int32_be b 12 (Int32.of_int (src land 0xffff_ffff));
  Bytes.set_int32_be b 16 (Int32.of_int (dst land 0xffff_ffff));
  Bytes.set_uint16_be b 10 (lnot (sum16 b) land 0xffff)

let write_header b ~ident ~src ~dst ~payload_len =
  write_fields b ~tos:0 ~total_len:(header_len + payload_len) ~ident ~ttl:default_ttl
    ~protocol:protocol_tcp ~src ~dst

let encapsulate t payload =
  let n = String.length payload in
  if t.total_len <> header_len + n then
    invalid_arg "Ipv4.encapsulate: total_len disagrees with payload";
  let b = Bytes.create t.total_len in
  write_fields b ~tos:t.tos ~total_len:t.total_len ~ident:t.ident ~ttl:t.ttl
    ~protocol:t.protocol ~src:t.src ~dst:t.dst;
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* Why [wire] is not a datagram, or [None] when it is one: the checks of
   [decapsulate], made where the header lies. *)
let fault wire =
  let n = String.length wire in
  if n < header_len then Some "short IP datagram"
  else
    let b = Bytes.unsafe_of_string wire in
    let vihl = Bytes.get_uint8 b 0 in
    if vihl <> 0x45 then Some (Printf.sprintf "unsupported version/IHL 0x%02x" vihl)
    else
      let total_len = Bytes.get_uint16_be b 2 in
      if total_len <> n then
        Some (Printf.sprintf "total length %d but datagram has %d bytes" total_len n)
      else if sum16 b <> 0xffff then Some "bad IP header checksum"
      else None

let protocol wire = match fault wire with None -> String.get_uint8 wire 9 | Some _ -> -1

let decapsulate wire =
  match fault wire with
  | Some e -> Error e
  | None ->
      let b = Bytes.unsafe_of_string wire in
      Ok
        { tos = Bytes.get_uint8 b 1;
          total_len = Bytes.get_uint16_be b 2;
          ident = Bytes.get_uint16_be b 4;
          ttl = Bytes.get_uint8 b 8;
          protocol = Bytes.get_uint8 b 9;
          src = Int32.to_int (Bytes.get_int32_be b 12) land 0xffff_ffff;
          dst = Int32.to_int (Bytes.get_int32_be b 16) land 0xffff_ffff }
