(* Keyed by [int], not by the polymorphic [Hashtbl]: every datagram looks
   its port up, and the generic table compares keys through a C call. *)
module Ports = Hashtbl.Make (Int)

type t = {
  handlers : (Datagram.t -> unit) Ports.t;
  mutable next_ephemeral : int;
  mutable unroutable : int;
}

let create () = { handlers = Ports.create 16; next_ephemeral = 32768; unroutable = 0 }

let bind t ~port handler =
  if Ports.mem t.handlers port then
    invalid_arg (Printf.sprintf "Demux.bind: port %d already bound" port);
  Ports.replace t.handlers port handler

let unbind t ~port = Ports.remove t.handlers port

let deliver t (dgram : Datagram.t) =
  match Ports.find_opt t.handlers dgram.Datagram.dst_port with
  | Some handler -> handler dgram
  | None -> t.unroutable <- t.unroutable + 1

let alloc_port t =
  let rec go () =
    let p = t.next_ephemeral in
    t.next_ephemeral <- (if p >= 65535 then 32768 else p + 1);
    if Ports.mem t.handlers p then go () else p
  in
  go ()

let unroutable t = t.unroutable
