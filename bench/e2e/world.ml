(* One simulated world: a link, a demux, one RPC server and [clients]
   closed-loop RPC clients, each with the four sockets of
   [Ilp_app.File_transfer], all built from the library's public
   constructors.  Every call the bench makes into a layer goes through a
   wrapper that opens an [Attr] span while the world is traced. *)

module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
module Demux = Ilp_netsim.Demux
module Datagram = Ilp_netsim.Datagram
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module Pool = Ilp_fastpath.Pool
module Memtraffic = Ilp_fastpath.Memtraffic
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client
module Machine = Ilp_memsim.Machine
module Stats = Ilp_memsim.Stats
module Sim = Ilp_memsim.Sim

exception Gate of string

let gate fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt

type workload = {
  name : string;
  clients : int;
  file_len : int;
  max_reply : int;
  mss : int option;  (* [None]: one TSDU per TPDU *)
  framed : bool;
  rtt_us : float;
  loss : float;
  think_us : float;  (* mean of the exponential think time *)
  sample_rpcs : int;  (* about 25 ms of ILP host time *)
  warmup_rpcs : int;
  round_s : float;
      (* nominal wall time of one untraced round (an ILP and a separate
         sample) on the reference host; [--seconds] / [round_s] fixes
         the run's work *)
}

(* The paper's configuration. *)
let rpc_1k =
  { name = "rpc-1k";
    clients = 1; file_len = 15 * 1024; max_reply = 1024; mss = None;
    framed = false; rtt_us = 100.0; loss = 0.0; think_us = 100.0;
    sample_rpcs = 16; warmup_rpcs = 40; round_s = 0.075 }

(* Per-byte data manipulation and the stream pump dominate. *)
let bulk_32k =
  { name = "bulk-32k";
    clients = 1; file_len = 64 * 1024; max_reply = 32 * 1024; mss = Some 1448;
    framed = true; rtt_us = 2_000.0; loss = 0.0; think_us = 100.0;
    sample_rpcs = 4; warmup_rpcs = 16; round_s = 0.075 }

(* The same layers under loss: SACK scoreboard, out-of-order final
   placement, RTO timers. *)
let lossy_32k =
  { bulk_32k with
    name = "lossy-32k";
    rtt_us = 10_000.0; loss = 0.05; round_s = 0.07 }

(* Tiny replies and 32 think timers load the clock, demux and
   per-connection drains; the engine does almost nothing. *)
let fanin_32 =
  { name = "fanin-32";
    clients = 32; file_len = 2048; max_reply = 256; mss = None; framed = false;
    rtt_us = 100.0; loss = 0.0; think_us = 2_000.0;
    sample_rpcs = 64; warmup_rpcs = 128; round_s = 0.065 }

let workloads = [ rpc_1k; bulk_32k; lossy_32k; fanin_32 ]

(* Virtual step the bench advances the clock by; completions are polled
   and requests issued only at step boundaries. *)
let step_us = 200.0

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"
let file_name = "e2e.dat"

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Host time: the process's CPU time.  The bench is one thread that never
   blocks, so this is its wall time without the stretches a shared host
   spent running something else; the traced spans stay on [now_ns]. *)
external cpu_ns : unit -> (float[@unboxed]) = "e2e_cpu_ns_byte" "e2e_cpu_ns" [@@noalloc]

type client = {
  rpc : Rpc_client.t;
  engine : Engine.t;
  sockets : Socket.t list;
  rng : Random.State.t;
  mutable think_timer : Simclock.timer option;
  mutable ready : bool;  (* think time over, waiting for a step boundary *)
  mutable busy : bool;
  mutable due : float;  (* virtual time the next request became due *)
  mutable rpc_id : int;
  mutable issued_ns : float;
  mutable issued_sim : float;
}

type t = {
  wl : workload;
  sim : Sim.t;
  clock : Simclock.t;
  link : Link.t;
  pool : Pool.t;
  server : Rpc_server.t;
  srv_engine : Engine.t;
  clients : client array;
  expected : string;
  attr : Attr.t;
  digest : int ref;
  mutable next_rpc : int;
  mutable failure : string option;
  (* the running sample *)
  mutable sample_start_sim : float;
  mutable done_rpcs : int;
  mutable last_done_sim : float;
  mutable host_us : float list;
  mutable sim_us : float list;
  pending_peak : int ref;  (* deepest event queue seen by a traced delivery *)
}

(* FNV-style fold over every datagram offered to the wire (ports, then
   the payload a 64-bit word at a time).  Two worlds whose wires are
   byte-identical end with equal digests. *)
let fold_digest h (d : Datagram.t) =
  let mix h w = (h lxor w) * 0x100000001b3 in
  let p = d.Datagram.payload in
  let n = String.length p in
  let h = mix (mix h d.Datagram.src_port) d.Datagram.dst_port in
  let rec words h i =
    if i + 8 <= n then words (mix h (Int64.to_int (String.get_int64_le p i))) (i + 8)
    else tail h i
  and tail h i = if i < n then tail (mix h (Char.code (String.unsafe_get p i))) (i + 1) else h in
  words h 0

(* Closed loop with think time: once a request is verified the client
   thinks for a seeded exponential time on the simulated clock, then
   waits for the next step boundary to issue. *)
let think clock c mean =
  let after = -.mean *. log (1.0 -. Random.State.float c.rng 1.0) in
  c.due <- Simclock.now clock +. after;
  c.think_timer <- Some (Simclock.schedule clock ~after (fun () -> c.ready <- true))

(* Port plan: client [i] owns [base i .. base i + 3] = server ctrl,
   client ctrl, server data, client data. *)
let base i = 1000 + (4 * i)

let mem_size (wl : workload) = (2048 + (256 * wl.clients)) * 1024

let socket_config (wl : workload) ~max_message =
  let d = Socket.default_config in
  match wl.mss with
  | None -> { d with Socket.mss = max_message }
  | Some mss ->
      { d with
        Socket.mss;
        send_buffer = 128 * 1024;
        recv_window = 65528;
        (* As in Streambench: on a long constant-delay path the RTO floor
           must sit well above the RTT or every ack races the timer. *)
        rto_initial_us = Float.max d.Socket.rto_initial_us (3.0 *. wl.rtt_us);
        rto_min_us = Float.max d.Socket.rto_min_us (1.5 *. wl.rtt_us) }

let complete w c =
  let now = Simclock.now w.clock in
  c.busy <- false;
  w.done_rpcs <- w.done_rpcs + 1;
  w.last_done_sim <- now;
  w.host_us <- ((cpu_ns () -. c.issued_ns) /. 1000.0) :: w.host_us;
  w.sim_us <- (now -. c.issued_sim) :: w.sim_us;
  think w.clock c w.wl.think_us

(* The client data socket's handler: after the socket (and the client's
   verify upcall inside it) ran, notice a verified completion. *)
let after_data w c =
  if c.busy then
    if Rpc_client.transfer_complete c.rpc then
      if w.attr.Attr.on then begin
        Attr.enter w.attr Attr.Bench;
        complete w c;
        Attr.exit w.attr Attr.Bench
      end
      else complete w c
    else
      match Rpc_client.failure c.rpc with
      | Some f when w.failure = None ->
          w.failure <- Some (Rpc_client.failure_to_string f)
      | _ -> ()

let create (wl : workload) ~mode ~seed =
  let sim = Sim.create ~mem_size:(mem_size wl) Ilp_memsim.Config.ss10_30 in
  let clock = Simclock.create () in
  let demux = Demux.create () in
  let attr = Attr.create () in
  (* [Simclock.pending] walks the whole queue, so the depth is sampled on
     every 8th traced delivery only. *)
  let pending_peak = ref 0 and deliveries = ref 0 in
  let deliver d =
    if attr.Attr.on then begin
      incr deliveries;
      if !deliveries land 7 = 0 then begin
        Attr.enter attr Attr.Bench;
        pending_peak := max !pending_peak (Simclock.pending clock);
        Attr.exit attr Attr.Bench
      end;
      Attr.enter attr Attr.Link;
      Demux.deliver demux d;
      Attr.exit attr Attr.Link
    end
    else Demux.deliver demux d
  in
  let link =
    Link.create clock ~delay_us:(wl.rtt_us /. 2.0) ~loss_rate:wl.loss ~seed ~deliver ()
  in
  let digest = ref 0x1505 in
  let wire_out d =
    if attr.Attr.on then begin
      (* A server data socket's datagrams may leave inside a reply span;
         anything else closes a back-pressured reply's orphan. *)
      let in_reply = (d.Datagram.src_port - 1000) mod 4 = 2 in
      Attr.enter attr Attr.Bench ~in_reply;
      digest := fold_digest !digest d;
      Attr.exit attr Attr.Bench;
      Attr.enter attr Attr.Link ~in_reply;
      Link.send link d;
      Attr.exit attr Attr.Link
    end
    else begin
      digest := fold_digest !digest d;
      Link.send link d
    end
  in
  let pool = Pool.create () in
  let max_message = max 2048 (wl.max_reply + 256) in
  let engine () =
    Engine.create sim
      ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
      ~mode
      ~backend:
        (Engine.Native
           (Ilp_fastpath.Cipher.Safer_simplified
              (Ilp_cipher.Safer_simplified.expand_key key)))
      ~max_message ~data_path:Engine.Pooled ~pool ()
  in
  let srv_engine = engine () in
  let server = Rpc_server.create ~clock ~engine:srv_engine () in
  let expected = Ilp_app.Workload.generate ~len:wl.file_len ~seed in
  Rpc_server.add_file server ~name:file_name
    ~addr:(Ilp_app.Workload.install sim expected)
    ~len:wl.file_len;
  Rpc_server.set_reply_probe server
    ~before:(fun () -> if attr.Attr.on then Attr.enter attr Attr.Reply)
    ~after:(fun ~wire_len:_ ~elapsed_us:_ ~syscopy_us:_ ->
      if attr.Attr.on then Attr.exit attr Attr.Reply);
  let scfg = socket_config wl ~max_message in
  (* The handlers need the finished world (completion bookkeeping). *)
  let world = ref None in
  let clients =
    Array.init wl.clients (fun i ->
        let b = base i in
        let mk port kind =
          let s = Socket.create sim clock scfg ~local_port:port ~wire_out in
          let handle d =
            Socket.handle_datagram s d;
            if kind = Attr.Data_rx then
              let w = Option.get !world in
              after_data w w.clients.(i)
          in
          Demux.bind demux ~port (fun d ->
              if attr.Attr.on then begin
                let c = (Option.get !world).clients.(i) in
                Attr.enter attr kind ~rpc:(if c.busy then c.rpc_id else 0);
                handle d;
                Attr.exit attr kind
              end
              else handle d);
          s
        in
        let srv_ctrl = mk b Attr.Ctrl_rx and cli_ctrl = mk (b + 1) Attr.Ctrl_rx in
        let srv_data = mk (b + 2) Attr.Ack_rx and cli_data = mk (b + 3) Attr.Data_rx in
        ignore (Rpc_server.attach server ~ctrl:srv_ctrl ~data:srv_data);
        Socket.listen srv_ctrl;
        Socket.listen cli_data;
        Socket.connect cli_ctrl ~remote_port:b;
        Socket.connect srv_data ~remote_port:(b + 3);
        let engine = engine () in
        let rpc =
          Rpc_client.create ~clock ~seed:(i + 1) ~framed:wl.framed ~engine
            ~ctrl:cli_ctrl ~data:cli_data ()
        in
        let c =
          { rpc; engine; sockets = [ srv_ctrl; cli_ctrl; srv_data; cli_data ];
            rng = Random.State.make [| seed; i |];
            think_timer = None; ready = false; busy = false;
            due = 0.0; rpc_id = 0; issued_ns = 0.0; issued_sim = 0.0 }
        in
        think clock c wl.think_us;
        c)
  in
  let t =
    { wl; sim; clock; link; pool; server; srv_engine; clients; expected; attr;
      digest; next_rpc = 1; failure = None; sample_start_sim = 0.0;
      done_rpcs = 0; last_done_sim = 0.0; host_us = []; sim_us = [];
      pending_peak }
  in
  world := Some t;
  Simclock.run_until_idle clock;
  Array.iteri
    (fun i c ->
      List.iter
        (fun s ->
          if Socket.state s <> Socket.Established then
            gate "%s: client %d: connection setup failed on port %d" wl.name i
              (Socket.local_port s))
        c.sockets)
    clients;
  t

let issue w c =
  c.ready <- false;
  c.busy <- true;
  c.rpc_id <- w.next_rpc;
  w.next_rpc <- w.next_rpc + 1;
  c.issued_sim <- Float.max c.due w.sample_start_sim;
  c.issued_ns <- cpu_ns ();
  let request () =
    Rpc_client.request_file c.rpc ~name:file_name ~copies:1 ~max_reply:w.wl.max_reply
      ~expected:w.expected
  in
  let r =
    if w.attr.Attr.on then begin
      Attr.enter w.attr Attr.Request ~rpc:c.rpc_id;
      let r = request () in
      Attr.exit w.attr Attr.Request;
      r
    end
    else request ()
  in
  match r with
  | Ok () -> ()
  | Error _ -> if w.failure = None then w.failure <- Some "request refused by TCP"

(* Run one sample: exactly [rpcs] requests issued and verified, closed
   loop, with the clock advanced in [step_us] steps.  Returns the wall
   and the host (CPU) time in ns; latencies and completions are left in
   the record. *)
let run_sample w ~rpcs ~traced =
  w.sample_start_sim <- Simclock.now w.clock;
  w.done_rpcs <- 0;
  w.host_us <- [];
  w.sim_us <- [];
  let issued = ref 0 in
  (* A request may legitimately wait out RTO backoff, never this long. *)
  let deadline = w.sample_start_sim +. (float_of_int rpcs *. 30_000_000.0) in
  if traced then Attr.begin_sample w.attr;
  let c0 = cpu_ns () in
  let t0 = now_ns () in
  while w.done_rpcs < rpcs && w.failure = None do
    Array.iter
      (fun c ->
        if c.ready && !issued < rpcs then begin
          incr issued;
          issue w c
        end)
      w.clients;
    if traced then begin
      Attr.enter w.attr Attr.Clock;
      Simclock.advance w.clock step_us;
      Attr.exit w.attr Attr.Clock
    end
    else Simclock.advance w.clock step_us;
    if Simclock.now w.clock > deadline then
      w.failure <- Some (Printf.sprintf "%s: sample stalled" w.wl.name)
  done;
  let wall = now_ns () -. t0 in
  let cpu = cpu_ns () -. c0 in
  if traced then Attr.end_sample w.attr;
  (match w.failure with Some f -> gate "%s: %s" w.wl.name f | None -> ());
  (wall, cpu)

(* Layer counters of one world, read from the components' own ledgers
   (plus the process-wide copy ledger, which is why worlds run their
   samples one at a time). *)
let counter_names =
  [| "link.sent"; "link.dropped"; "tcp.segments_sent"; "tcp.retransmissions";
     "tcp.rto_fallbacks"; "tcp.out_of_order"; "tcp.ooo_placed"; "rpc.client.retries";
     "rpc.replies_sent"; "memsim.us"; "memsim.accesses"; "fastpath.copied";
     "pool.fresh_allocs" |]

let counters w =
  let sockets = Array.to_list w.clients |> List.concat_map (fun c -> c.sockets) in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f (Socket.stats s)) 0 sockets) in
  let link = Link.stats w.link in
  let m = w.sim.Sim.machine in
  [| float_of_int link.Link.sent;
     float_of_int link.Link.dropped;
     sum (fun s -> s.Socket.segments_sent);
     sum (fun s -> s.Socket.retransmissions);
     sum (fun s -> s.Socket.rto_fallbacks);
     sum (fun s -> s.Socket.out_of_order);
     sum (fun s -> s.Socket.ooo_placed);
     float_of_int (Array.fold_left (fun a c -> a + Rpc_client.retries c.rpc) 0 w.clients);
     float_of_int (Rpc_server.replies_sent w.server);
     Machine.micros m;
     float_of_int (Stats.accesses (Machine.stats m) Stats.Read
                   + Stats.accesses (Machine.stats m) Stats.Write);
     float_of_int (Memtraffic.copied_total (Memtraffic.snapshot ()));
     float_of_int (Pool.stats w.pool).Pool.fresh_allocs |]

let counter ~name a =
  let rec find i = if counter_names.(i) = name then a.(i) else find (i + 1) in
  find 0

(* Tear the world down and check that nothing leaked: every pooled
   buffer back after the engines are destroyed, no timer left behind by
   any socket, the server or a client. *)
let teardown w =
  let sockets = Array.to_list w.clients |> List.concat_map (fun c -> c.sockets) in
  List.iter Socket.destroy sockets;
  Array.iter (fun c -> Option.iter Simclock.cancel c.think_timer) w.clients;
  Rpc_server.shutdown w.server;
  Engine.destroy w.srv_engine;
  Array.iter (fun c -> Engine.destroy c.engine) w.clients;
  let leaks = Pool.outstanding w.pool in
  if leaks <> 0 then gate "%s: %d pooled buffers outstanding after teardown" w.wl.name leaks;
  let owners =
    Rpc_server.timer_owner w.server
    :: List.map Socket.timer_owner sockets
    @ Array.to_list (Array.map (fun c -> Rpc_client.timer_owner c.rpc) w.clients)
  in
  List.iter
    (fun owner ->
      let n = Simclock.pending_count w.clock ~owner in
      if n <> 0 then gate "%s: %d timers left for owner %d after teardown" w.wl.name n owner)
    owners
