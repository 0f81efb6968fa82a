open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Link = Ilp_netsim.Link
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
  verdict : World.verdict;
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
  pool_leaks : int;
}

let key = "\x3a\x91\x5c\x07\xee\x42\xb8\x1d"

let cipher_name = function
  | Safer_simplified -> "safer-simplified"
  | Simple_encryption -> "simple"
  | Safer_full _ -> "safer-k64"
  | Des -> "des"

let ciphers = [ Safer_simplified; Simple_encryption; Safer_full 6; Des ]

let cipher_of_name = function
  | "simplified" -> Ok Safer_simplified
  | "safer" -> Ok (Safer_full 6)
  | name -> (
      match List.find_opt (fun c -> cipher_name c = name) ciphers with
      | Some c -> Ok c
      | None ->
          Error
            (Printf.sprintf "unknown cipher %S (try: %s)" name
               (String.concat ", " (List.map cipher_name ciphers))))

let make_cipher sim = function
  | Safer_simplified -> Ilp_cipher.Safer_simplified.charged sim ~key ()
  | Simple_encryption -> Ilp_cipher.Simple_cipher.charged sim
  | Safer_full rounds -> Ilp_cipher.Safer.charged sim ~rounds ~key ()
  | Des -> Ilp_cipher.Des.charged sim ~key ()

(* The native twin of [make_cipher]: same algorithm, same key, expanded
   into ordinary OCaml data for the un-simulated fast path. *)
let fastpath_cipher = function
  | Safer_simplified ->
      Ilp_fastpath.Cipher.Safer_simplified (Ilp_cipher.Safer_simplified.expand_key key)
  | Simple_encryption -> Ilp_fastpath.Cipher.Simple
  | Safer_full rounds ->
      Ilp_fastpath.Cipher.Safer (Ilp_cipher.Safer.expand_key ~rounds key)
  | Des -> Ilp_fastpath.Cipher.Des (Ilp_cipher.Des.expand_key key)

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let run setup =
  let w =
    World.create ?pool:setup.pool setup.machine ~link:(fun clock ~deliver ->
        Link.create clock ~delay_us:50.0 ~loss_rate:setup.loss_rate
          ~seed:setup.seed ?impairments:setup.impairments ~deliver ())
  in
  let sim = World.sim w and clock = World.clock w in
  let machine = sim.Sim.machine in
  (* Shared machine, one engine (and one cipher instance) per process,
     one buffer pool whose outstanding count audits the whole run. *)
  let srv_cipher = make_cipher sim setup.cipher in
  let cli_cipher = make_cipher sim setup.cipher in
  let max_message = 2048 in
  let engine cipher =
    World.engine w (fun sim ~pool ->
        let backend =
          if setup.native then Engine.Native (fastpath_cipher setup.cipher)
          else Engine.Simulated
        in
        Engine.create sim ~cipher ~mode:setup.mode ~backend ~linkage:setup.linkage
          ~max_message ~coalesce_writes:setup.coalesce_writes
          ~header_style:setup.header_style ~rx_placement:setup.rx_placement
          ~uniform_units:setup.uniform_units ~crc32:setup.crc ~pool ())
  in
  let srv_engine = engine srv_cipher in
  let cli_engine = engine cli_cipher in
  let mss =
    match setup.mss with None -> max_message | Some m -> min m max_message
  in
  let scfg = { Socket.default_config with mss } in
  let server = Rpc_server.create ~clock ~engine:srv_engine () in
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
  (* Port probes: the client data port is wrapped to time the receive
     path of each delivered reply, the server data port (acks) accounts
     to the send side. *)
  let rx role s d =
    match role with
    | World.Srv_data ->
        mark ();
        Socket.handle_datagram s d;
        settle send_stats;
        settle_stall send_stall
    | World.Cli_data ->
        let delivered = (Socket.stats s).Socket.bytes_delivered in
        let before = Machine.micros machine in
        mark ();
        Socket.handle_datagram s d;
        settle recv_stats;
        settle_stall recv_stall;
        if (Socket.stats s).Socket.bytes_delivered > delivered then
          recv_us := (Machine.micros machine -. before) :: !recv_us
    | World.Srv_ctrl | World.Cli_ctrl -> Socket.handle_datagram s d
  in
  (* Connection setup (not measured), on ports 5000..5003. *)
  let c = World.connect w server ~rx scfg ~base:5000 in
  let client =
    Rpc_client.create ~clock ~engine:cli_engine ~framed:setup.framing
      ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data ()
  in
  let file_contents = Workload.generate ~len:setup.file_len ~seed:setup.seed in
  let file_addr = Workload.install sim file_contents in
  Rpc_server.add_file server ~name:"paper.dat" ~addr:file_addr ~len:setup.file_len;
  Simclock.run_until_idle clock;
  let refused = ref false in
  (if
     List.for_all
       (fun s -> Socket.state s = Socket.Established)
       [ c.World.srv_ctrl; c.World.cli_ctrl; c.World.srv_data; c.World.cli_data ]
   then begin
     (* Exclude setup from the measurement; keep the caches warm as in the
        repeated transfers of the paper. *)
     Machine.reset_counters machine;
     mark ();
     match
       Rpc_client.request_file client ~name:"paper.dat" ~copies:setup.copies
         ~max_reply:setup.max_reply ~expected:file_contents
     with
     | Error _ -> refused := true
     | Ok () ->
         (* Drive the world until the transfer completes or stalls. *)
         let rec pump guard =
           if guard = 0 then ()
           else if Rpc_client.transfer_complete client then ()
           else if Simclock.now clock > setup.deadline_us then ()
           else begin
             Simclock.advance clock 5_000.0;
             if Simclock.pending clock = 0 then () else pump (guard - 1)
           end
         in
         pump 2_000_000
   end);
  (* A setup that failed skips the transfer; its verdict names the
     endpoint that aborted. *)
  { verdict = World.verdict ~refused:!refused ~conn:c client;
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
    total_machine_us = Machine.micros machine;
    send_stats;
    recv_stats;
    total_stats = Stats.copy (Machine.stats machine);
    retransmissions = (Socket.stats c.World.srv_data).Socket.retransmissions;
    checksum_failures = (Socket.stats c.World.cli_data).Socket.checksum_failures;
    pool_leaks = World.pool_leaks w }
