(** The simulated system's wiring, written once.

    A world is a workstation ({!Ilp_memsim.Sim}), a virtual clock, a
    kernel demultiplexer and one link, plus the engines and sockets the
    caller asks for.  Like a nesC configuration it holds no protocol
    logic; it only connects components, so every measured transfer, soak
    and test world shares one connection plan, one engine-pool audit and
    one end-of-transfer verdict ({!verdict}, which also judges every
    soak client).

    Simulated buffers come from a bump allocator, and their layout
    decides the simulated digits: {!create} allocates [Sim], [Simclock],
    [Demux], then the link; the rest follows the caller's order of
    {!engine}, {!socket} and {!connect} calls. *)

type t

(** [create ?mem_size ?pool ?tap machine ~link] builds the workstation
    ([mem_size] bytes of simulated memory), the clock, the demultiplexer
    and [link clock ~deliver], which must hand arrivals to [deliver].
    Sockets send through [tap] (an observer) and then the link.  Every
    {!engine} shares [pool] (default: a fresh one). *)
val create :
  ?mem_size:int ->
  ?pool:Ilp_fastpath.Pool.t ->
  ?tap:(Ilp_netsim.Datagram.t -> unit) ->
  Ilp_memsim.Config.t ->
  link:
    (Ilp_netsim.Simclock.t ->
    deliver:(Ilp_netsim.Datagram.t -> unit) ->
    Ilp_netsim.Link.t) ->
  t

val sim : t -> Ilp_memsim.Sim.t
val clock : t -> Ilp_netsim.Simclock.t
val link : t -> Ilp_netsim.Link.t

(** [tap], then [Link.send]: the sockets' path to the wire. *)
val wire_out : t -> Ilp_netsim.Datagram.t -> unit

(** [engine w make] is [make sim ~pool], remembered for {!pool_leaks}. *)
val engine :
  t ->
  (Ilp_memsim.Sim.t -> pool:Ilp_fastpath.Pool.t -> Ilp_core.Engine.t) ->
  Ilp_core.Engine.t

(** The teardown audit: destroy every {!engine}, then count the buffers
    still outstanding from the pool (0 unless one leaked, or the caller
    shared a [pool] it still holds buffers from). *)
val pool_leaks : t -> int

(** [socket w ?rx cfg ~port] creates a socket on [port] and binds the
    port to [rx sock] (default [Socket.handle_datagram sock]), a wrapper
    such as a measurement probe or a crash guard. *)
val socket :
  t ->
  ?rx:(Ilp_tcp.Socket.t -> Ilp_netsim.Datagram.t -> unit) ->
  Ilp_tcp.Socket.config ->
  port:int ->
  Ilp_tcp.Socket.t

(** One client's endpoints, in port order from [base]. *)
type role = Srv_ctrl | Cli_ctrl | Srv_data | Cli_data

type conn = {
  srv_ctrl : Ilp_tcp.Socket.t;
  cli_ctrl : Ilp_tcp.Socket.t;
  srv_data : Ilp_tcp.Socket.t;
  cli_data : Ilp_tcp.Socket.t;
}

(** [connect w server ?data ?rx cfg ~base] is the paper's connection plan
    (section 4): requests travel client → server on a control
    connection, replies server → client on a data connection, each
    uni-directional and opened by its sender.  It creates the four
    sockets on [base .. base + 3] in {!role} order ([data], default
    [cfg], for the data pair; [rx role] as in {!socket}), attaches the
    server pair to [server], and listens on [srv_ctrl] and [cli_data]
    while [cli_ctrl] and [srv_data] connect; the handshakes run as the
    clock advances. *)
val connect :
  t ->
  Ilp_rpc.Server.t ->
  ?data:Ilp_tcp.Socket.config ->
  ?rx:(role -> Ilp_tcp.Socket.t -> Ilp_netsim.Datagram.t -> unit) ->
  Ilp_tcp.Socket.config ->
  base:int ->
  conn

type verdict = Complete | Typed of string | Silent

(** [verdict ?refused ?conn client]: byte-exact, typed, or the silent
    end every soak hunts, and the one rule every transfer and soak client
    is judged by.  The client's own outcome ranks first — its failure
    (["typed: <failure>"]), a rejection (["typed: rejected"]), [refused],
    a request that never left (["typed: local refusal"]), its errors
    (["typed: <e1>; <e2>"]) — then an abort of [conn]'s server data
    socket, then of its server control socket (["typed (server side):
    <reason>"]).  Anything else that is not complete is [Silent]: a stall
    no endpoint reported. *)
val verdict : ?refused:bool -> ?conn:conn -> Ilp_rpc.Client.t -> verdict

(** ["complete"], the typed line, or ["silent: ..."]. *)
val verdict_to_string : verdict -> string
