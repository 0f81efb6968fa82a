module Link = Ilp_netsim.Link
module Pool = Ilp_fastpath.Pool
module Socket = Ilp_tcp.Socket
module Rpc_client = Ilp_rpc.Client

type t = {
  sim : Ilp_memsim.Sim.t;
  clock : Ilp_netsim.Simclock.t;
  demux : Ilp_netsim.Demux.t;
  link : Link.t;
  wire_out : Ilp_netsim.Datagram.t -> unit;
  pool : Pool.t;
  mutable engines : Ilp_core.Engine.t list;  (* newest first *)
}

let create ?mem_size ?pool ?(tap = ignore) machine ~link =
  let sim = Ilp_memsim.Sim.create ?mem_size machine in
  let clock = Ilp_netsim.Simclock.create () in
  let demux = Ilp_netsim.Demux.create () in
  let link = link clock ~deliver:(Ilp_netsim.Demux.deliver demux) in
  let wire_out d =
    tap d;
    Link.send link d
  in
  let pool = match pool with Some p -> p | None -> Pool.create () in
  { sim; clock; demux; link; wire_out; pool; engines = [] }

let sim w = w.sim
let clock w = w.clock
let link w = w.link
let wire_out w = w.wire_out

let engine w make =
  let e = make w.sim ~pool:w.pool in
  w.engines <- e :: w.engines;
  e

let pool_leaks w =
  List.iter Ilp_core.Engine.destroy (List.rev w.engines);
  Pool.outstanding w.pool

let socket w ?(rx = Socket.handle_datagram) cfg ~port =
  let s = Socket.create w.sim w.clock cfg ~local_port:port ~wire_out:w.wire_out in
  Ilp_netsim.Demux.bind w.demux ~port (rx s);
  s

type role = Srv_ctrl | Cli_ctrl | Srv_data | Cli_data

type conn = {
  srv_ctrl : Socket.t;
  cli_ctrl : Socket.t;
  srv_data : Socket.t;
  cli_data : Socket.t;
}

let connect w server ?data ?(rx = fun _ -> Socket.handle_datagram) cfg ~base =
  let data = Option.value data ~default:cfg in
  let srv_ctrl = socket w ~rx:(rx Srv_ctrl) cfg ~port:base in
  let cli_ctrl = socket w ~rx:(rx Cli_ctrl) cfg ~port:(base + 1) in
  let srv_data = socket w ~rx:(rx Srv_data) data ~port:(base + 2) in
  let cli_data = socket w ~rx:(rx Cli_data) data ~port:(base + 3) in
  ignore (Ilp_rpc.Server.attach server ~ctrl:srv_ctrl ~data:srv_data);
  (* Each connection is opened by the side that sends on it. *)
  Socket.listen srv_ctrl;
  Socket.listen cli_data;
  Socket.connect cli_ctrl ~remote_port:base;
  Socket.connect srv_data ~remote_port:(base + 3);
  { srv_ctrl; cli_ctrl; srv_data; cli_data }

type verdict = Complete | Typed of string | Silent

let verdict ?(refused = false) ?conn client =
  let errors = Rpc_client.errors client in
  if Rpc_client.transfer_complete client && errors = [] then Complete
  else
    match Rpc_client.failure client with
    | Some f -> Typed ("typed: " ^ Rpc_client.failure_to_string f)
    | None when Rpc_client.rejected client -> Typed "typed: rejected"
    | None when refused -> Typed "typed: local refusal"
    | None when errors <> [] -> Typed ("typed: " ^ String.concat "; " errors)
    | None -> (
        let server =
          match conn with Some c -> [ c.srv_data; c.srv_ctrl ] | None -> []
        in
        match List.find_map Socket.failure server with
        | Some r -> Typed ("typed (server side): " ^ Socket.abort_reason_to_string r)
        | None -> Silent)

let verdict_to_string = function
  | Complete -> "complete"
  | Typed t -> t
  | Silent -> "silent: neither complete nor typed"
