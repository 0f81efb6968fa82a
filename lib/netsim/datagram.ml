type t = { src_port : int; dst_port : int; payload : string }

let create ~src_port ~dst_port ~payload =
  if src_port < 0 || src_port > 0xffff || dst_port < 0 || dst_port > 0xffff then
    invalid_arg "Datagram.create: port out of range";
  { src_port; dst_port; payload }

let length t = String.length t.payload
