open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
module Demux = Ilp_netsim.Demux
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client

type cipher_choice =
  | Safer_simplified
  | Simple_encryption
  | Safer_full of int
  | Des

type setup = {
  machine : Config.t;
  cipher : cipher_choice;
  mode : Engine.mode;
  linkage : Ilp_core.Linkage.t;
  coalesce_writes : bool;
  header_style : Engine.header_style;
  rx_placement : Engine.rx_placement;
  uniform_units : bool;
  native : bool;
  crc : bool;
  pool : Ilp_fastpath.Pool.t option;
  framing : bool;
      (* negotiate the v2 ("Reverso") framed receive on the data
         connection; off (the default) keeps every wire byte identical
         to the unframed protocol *)
  file_len : int;
  copies : int;
  max_reply : int;
  mss : int option;
      (* [None]: one TSDU per TPDU (mss = max_message, the paper's ALF
         shape).  [Some m]: segment streaming — replies wider than [m]
         wire bytes travel as pipelined MSS-sized segments. *)
  loss_rate : float;
  seed : int;
  impairments : Link.impairments option;
  deadline_us : float;
}

let default_setup ~machine ~mode =
  { machine;
    cipher = Safer_simplified;
    mode;
    linkage = Ilp_core.Linkage.Macro;
    coalesce_writes = false;
    header_style = Engine.Leading;
    rx_placement = Engine.Early;
    uniform_units = false;
    native = false;
    crc = false;
    pool = None;
    framing = false;
    file_len = Workload.paper_file_len;
    copies = 8;
    max_reply = 1024;
    mss = None;
    loss_rate = 0.0;
    seed = 1;
    impairments = None;
    deadline_us = 2_000_000_000.0 }

type result = {
  ok : bool;
  error : string option;
  n_replies : int;
  payload_bytes : int;
  wire_bytes : int;
  send_us : float array;
  send_syscopy_us : float array;
  recv_us : float array;
  send_stall_us : float;
  recv_stall_us : float;
  ifetch_stall_us : float;
  total_machine_us : float;
  send_stats : Stats.t;
  recv_stats : Stats.t;
  total_stats : Stats.t;
  retransmissions : int;
  checksum_failures : int;
  client_failure : string option;
  drops : (Socket.drop_reason * int) list;
  replies_abandoned : int;
  link_stats : Link.stats;
  pool_leaks : int;
}

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

let make_cipher sim = function
  | Safer_simplified -> Ilp_cipher.Safer_simplified.charged sim ~key ()
  | Simple_encryption -> Ilp_cipher.Simple_cipher.charged sim
  | Safer_full rounds -> Ilp_cipher.Safer.charged sim ~rounds ~key ()
  | Des -> Ilp_cipher.Des.charged sim ~key ()

(* The native twin of [make_cipher]: same algorithm, same key, expanded
   into ordinary OCaml data for the un-simulated fast path. *)
let make_fastpath_cipher = function
  | Safer_simplified ->
      Ilp_fastpath.Cipher.Safer_simplified (Ilp_cipher.Safer_simplified.expand_key key)
  | Simple_encryption -> Ilp_fastpath.Cipher.Simple
  | Safer_full rounds ->
      Ilp_fastpath.Cipher.Safer (Ilp_cipher.Safer.expand_key ~rounds key)
  | Des -> Ilp_fastpath.Cipher.Des (Ilp_cipher.Des.expand_key key)

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Ports of the four endpoints. *)
let srv_ctrl_port = 5000
let cli_ctrl_port = 5001
let srv_data_port = 5002
let cli_data_port = 5003

let run setup =
  let sim = Sim.create setup.machine in
  let machine = sim.Sim.machine in
  let clock = Simclock.create () in
  let demux = Demux.create () in
  let link = ref None in
  let wire_out d = Link.send (Option.get !link) d in
  link :=
    Some
      (Link.create clock ~delay_us:50.0 ~loss_rate:setup.loss_rate
         ~seed:setup.seed ?impairments:setup.impairments
         ~deliver:(Demux.deliver demux) ());
  (* Shared machine, one engine (and one cipher instance) per process. *)
  let srv_cipher = make_cipher sim setup.cipher in
  let cli_cipher = make_cipher sim setup.cipher in
  let max_message = 2048 in
  let backend () =
    if setup.native then Engine.Native (make_fastpath_cipher setup.cipher)
    else Engine.Simulated
  in
  (* One buffer pool shared by both endpoints of the run: staging buffers
     and TSDU buffers recirculate instead of being allocated per message,
     and a single outstanding-count audits the whole process. *)
  let pool =
    match setup.pool with Some p -> p | None -> Ilp_fastpath.Pool.create ()
  in
  let srv_engine =
    Engine.create sim ~cipher:srv_cipher ~mode:setup.mode ~backend:(backend ())
      ~linkage:setup.linkage
      ~max_message ~coalesce_writes:setup.coalesce_writes
      ~header_style:setup.header_style ~rx_placement:setup.rx_placement
      ~uniform_units:setup.uniform_units ~crc32:setup.crc ~pool ()
  in
  let cli_engine =
    Engine.create sim ~cipher:cli_cipher ~mode:setup.mode ~backend:(backend ())
      ~linkage:setup.linkage
      ~max_message ~coalesce_writes:setup.coalesce_writes
      ~header_style:setup.header_style ~rx_placement:setup.rx_placement
      ~uniform_units:setup.uniform_units ~crc32:setup.crc ~pool ()
  in
  (* Teardown: return staging buffers, then audit pool balance.  With a
     caller-shared pool the count includes the caller's own outstanding
     buffers, so pass [pool = None] (the default) for a self-contained
     audit. *)
  let pool_leaks () =
    Engine.destroy srv_engine;
    Engine.destroy cli_engine;
    Ilp_fastpath.Pool.outstanding pool
  in
  let mss =
    match setup.mss with None -> max_message | Some m -> min m max_message
  in
  let scfg = { Socket.default_config with mss } in
  let srv_ctrl = Socket.create sim clock scfg ~local_port:srv_ctrl_port ~wire_out in
  let cli_ctrl = Socket.create sim clock scfg ~local_port:cli_ctrl_port ~wire_out in
  let srv_data = Socket.create sim clock scfg ~local_port:srv_data_port ~wire_out in
  let cli_data = Socket.create sim clock scfg ~local_port:cli_data_port ~wire_out in
  let server = Rpc_server.create ~clock ~engine:srv_engine () in
  ignore (Rpc_server.attach server ~ctrl:srv_ctrl ~data:srv_data);
  let client =
    Rpc_client.create ~clock ~engine:cli_engine ~framed:setup.framing
      ~ctrl:cli_ctrl ~data:cli_data ()
  in
  (* Measurement buckets. *)
  let send_us = ref [] and send_syscopy_us = ref [] and recv_us = ref [] in
  let send_stall = ref 0.0 and recv_stall = ref 0.0 in
  let stall_mark = ref 0.0 in
  let wire_bytes = ref 0 in
  let send_stats = Stats.create () and recv_stats = Stats.create () in
  (* Every instrumented site snapshots the global ledger before its own
     work and accumulates the difference into its bucket; un-instrumented
     work (control connections, handshakes) stays out of both buckets. *)
  let snapshot = ref (Stats.copy (Machine.stats machine)) in
  let mark () =
    snapshot := Stats.copy (Machine.stats machine);
    stall_mark := Machine.stall_micros machine
  in
  let settle bucket =
    Stats.accumulate ~into:bucket
      (Stats.diff (Machine.stats machine) !snapshot)
  in
  let settle_stall cell = cell := !cell +. (Machine.stall_micros machine -. !stall_mark) in
  Rpc_server.set_reply_probe server ~before:mark
    ~after:(fun ~wire_len ~elapsed_us ~syscopy_us ->
      settle send_stats;
      settle_stall send_stall;
      wire_bytes := !wire_bytes + wire_len;
      send_us := elapsed_us :: !send_us;
      send_syscopy_us := syscopy_us :: !send_syscopy_us);
  (* Demux wiring; the client data port is wrapped to time the receive
     path of each delivered reply, the server data port (acks) accounts to
     the send side. *)
  Demux.bind demux ~port:srv_ctrl_port (Socket.handle_datagram srv_ctrl);
  Demux.bind demux ~port:cli_ctrl_port (Socket.handle_datagram cli_ctrl);
  Demux.bind demux ~port:srv_data_port (fun d ->
      mark ();
      Socket.handle_datagram srv_data d;
      settle send_stats;
      settle_stall send_stall);
  Demux.bind demux ~port:cli_data_port (fun d ->
      let delivered = (Socket.stats cli_data).Socket.bytes_delivered in
      let before = Machine.micros machine in
      mark ();
      Socket.handle_datagram cli_data d;
      settle recv_stats;
      settle_stall recv_stall;
      if (Socket.stats cli_data).Socket.bytes_delivered > delivered then
        recv_us := (Machine.micros machine -. before) :: !recv_us);
  let file_contents = Workload.generate ~len:setup.file_len ~seed:setup.seed in
  let file_addr = Workload.install sim file_contents in
  Rpc_server.add_file server ~name:"paper.dat" ~addr:file_addr ~len:setup.file_len;
  (* Connection setup (not measured). *)
  Socket.listen srv_ctrl;
  Socket.listen cli_data;
  Socket.connect cli_ctrl ~remote_port:srv_ctrl_port;
  Socket.connect srv_data ~remote_port:cli_data_port;
  Simclock.run_until_idle clock;
  let all_sockets = [ srv_ctrl; cli_ctrl; srv_data; cli_data ] in
  let drops () =
    List.map
      (fun r ->
        (r, List.fold_left (fun acc s -> acc + Socket.drop_count s r) 0 all_sockets))
      Socket.drop_reasons
  in
  let client_failure () =
    Option.map Rpc_client.failure_to_string (Rpc_client.failure client)
  in
  let socket_failures () =
    List.filter_map
      (fun (name, s) ->
        Option.map
          (fun r -> name ^ " " ^ Socket.abort_reason_to_string r)
          (Socket.failure s))
      [ ("srv_ctrl", srv_ctrl); ("cli_ctrl", cli_ctrl); ("srv_data", srv_data);
        ("cli_data", cli_data) ]
  in
  let early_failure error =
    { ok = false;
      error = Some error;
      n_replies = 0;
      payload_bytes = 0;
      wire_bytes = 0;
      send_us = [||];
      send_syscopy_us = [||];
      recv_us = [||];
      send_stall_us = 0.0;
      recv_stall_us = 0.0;
      ifetch_stall_us = 0.0;
      total_machine_us = 0.0;
      send_stats;
      recv_stats;
      total_stats = Stats.copy (Machine.stats machine);
      retransmissions = 0;
      checksum_failures = 0;
      client_failure = client_failure ();
      drops = drops ();
      replies_abandoned = Rpc_server.replies_abandoned server;
      link_stats = Link.stats (Option.get !link);
      pool_leaks = pool_leaks () }
  in
  let established s = Socket.state s = Socket.Established in
  if
    not
      (established srv_ctrl && established cli_ctrl && established srv_data
      && established cli_data)
  then
    early_failure
      (match socket_failures () with
      | [] -> "connection setup failed"
      | fs -> "connection setup failed: " ^ String.concat "; " fs)
  else begin
    (* Exclude setup from the measurement; keep the caches warm as in the
       repeated transfers of the paper. *)
    Machine.reset_counters machine;
    mark ();
    match
      Rpc_client.request_file client ~name:"paper.dat" ~copies:setup.copies
        ~max_reply:setup.max_reply ~expected:file_contents
    with
    | Error _ -> early_failure "request refused by TCP"
    | Ok () ->
    (* Drive the world until the transfer completes or stalls. *)
    let deadline = setup.deadline_us in
    let rec pump guard =
      if guard = 0 then ()
      else if Rpc_client.transfer_complete client then ()
      else if Simclock.now clock > deadline then ()
      else begin
        Simclock.advance clock 5_000.0;
        if Simclock.pending clock = 0 && not (Rpc_client.transfer_complete client)
        then ()
        else pump (guard - 1)
      end
    in
    pump 2_000_000;
    let total_machine_us = Machine.micros machine in
    let total_stats = Stats.copy (Machine.stats machine) in
    let srv_stats = Socket.stats srv_data in
    let cli_stats = Socket.stats cli_data in
    let ok = Rpc_client.transfer_complete client in
    let error =
      if ok then None
      else
        match client_failure () with
        | Some f -> Some f
        | None ->
            Some
              (Printf.sprintf "incomplete transfer: %d / %d bytes"
                 (Rpc_client.bytes_received client)
                 (setup.file_len * setup.copies))
    in
    { ok;
      error;
      n_replies = Rpc_client.replies_received client;
      payload_bytes = Rpc_client.bytes_received client;
      wire_bytes = !wire_bytes;
      send_us = Array.of_list (List.rev !send_us);
      send_syscopy_us = Array.of_list (List.rev !send_syscopy_us);
      recv_us = Array.of_list (List.rev !recv_us);
      send_stall_us = !send_stall;
      recv_stall_us = !recv_stall;
      ifetch_stall_us =
        Machine.ifetch_stall_cycles machine /. setup.machine.Config.clock_mhz;
      total_machine_us;
      send_stats;
      recv_stats;
      total_stats;
      retransmissions = srv_stats.Socket.retransmissions;
      checksum_failures = cli_stats.Socket.checksum_failures;
      client_failure = client_failure ();
      drops = drops ();
      replies_abandoned = Rpc_server.replies_abandoned server;
      link_stats = Link.stats (Option.get !link);
      pool_leaks = pool_leaks () }
  end
