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

let make ?(ident = 0) ?(protocol = protocol_tcp) ~src ~dst ~payload_len () =
  { tos = 0; total_len = header_len + payload_len; ident; ttl = 64; protocol;
    src; dst }

(* One's-complement sum of 16-bit big-endian words (the header is always
   an even number of bytes). *)
let sum16 b ~len =
  let s = ref 0 in
  for i = 0 to (len / 2) - 1 do
    s := !s + Bytes.get_uint16_be b (2 * i);
    if !s > 0xffff then s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let encode t =
  let b = Bytes.create header_len in
  Bytes.set_uint8 b 0 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 b 1 t.tos;
  Bytes.set_uint16_be b 2 t.total_len;
  Bytes.set_uint16_be b 4 t.ident;
  Bytes.set_uint16_be b 6 0x4000 (* DF: this stack never fragments *);
  Bytes.set_uint8 b 8 t.ttl;
  Bytes.set_uint8 b 9 t.protocol;
  Bytes.set_uint16_be b 10 0;
  Bytes.set_int32_be b 12 (Int32.of_int (t.src land 0xffff_ffff));
  Bytes.set_int32_be b 16 (Int32.of_int (t.dst land 0xffff_ffff));
  let ck = lnot (sum16 b ~len:header_len) land 0xffff in
  Bytes.set_uint16_be b 10 ck;
  Bytes.unsafe_to_string b

let encapsulate t payload =
  if t.total_len <> header_len + String.length payload then
    invalid_arg "Ipv4.encapsulate: total_len disagrees with payload";
  encode t ^ payload

let decapsulate wire =
  let n = String.length wire in
  if n < header_len then Error "short IP datagram"
  else
    let b = Bytes.unsafe_of_string wire in
    let vihl = Bytes.get_uint8 b 0 in
    if vihl <> 0x45 then Error (Printf.sprintf "unsupported version/IHL 0x%02x" vihl)
    else
      let total_len = Bytes.get_uint16_be b 2 in
      if total_len <> n then
        Error (Printf.sprintf "total length %d but datagram has %d bytes" total_len n)
      else if sum16 (Bytes.sub b 0 header_len) ~len:header_len <> 0xffff then
        Error "bad IP header checksum"
      else
        Ok
          ( { tos = Bytes.get_uint8 b 1;
              total_len;
              ident = Bytes.get_uint16_be b 4;
              ttl = Bytes.get_uint8 b 8;
              protocol = Bytes.get_uint8 b 9;
              src = Int32.to_int (Bytes.get_int32_be b 12) land 0xffff_ffff;
              dst = Int32.to_int (Bytes.get_int32_be b 16) land 0xffff_ffff },
            String.sub wire header_len (n - header_len) )
