module Link = Ilp_netsim.Link
module Simclock = Ilp_netsim.Simclock
module Demux = Ilp_netsim.Demux
module Crashplan = Ilp_netsim.Crashplan
module Datagram = Ilp_netsim.Datagram
module Ipv4 = Ilp_netsim.Ipv4
module Socket = Ilp_tcp.Socket
module Tcp_header = Ilp_tcp.Tcp_header
module Engine = Ilp_core.Engine
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client
module Sim = Ilp_memsim.Sim
module Ft = File_transfer

(* A private xorshift64 so soak schedules are reproducible without
   touching the link's own stream. *)
let prng_create seed = ref ((seed * 0x9e3779b1) lor 1)

let prng_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  st := if x = 0 then 1 else x;
  !st

let prng_float st = float_of_int (prng_next st land 0xffffff) /. 16777216.0
let prng_int st bound = prng_next st mod bound

type config = {
  seed : int;
  iterations : int;
  file_len : int;
  copies : int;
  max_reply : int;
  machine : Ilp_memsim.Config.t;
  intensity : float;
  deadline_us : float;
}

let default_config =
  { seed = 1;
    iterations = 512;
    file_len = 512;
    copies = 1;
    max_reply = 256;
    machine = Ilp_memsim.Config.ss10_30;
    intensity = 1.0;
    deadline_us = 120_000_000.0 }

type outcome = {
  iterations : int;
  completed : int;
  failed : int;  (** transfers that ended with a typed error (expected under impairment) *)
  escaped_exceptions : int;  (** invariant violation: an exception crossed the stack *)
  silent_corruptions : int;
      (** invariant violation: reported success without byte-exact delivery,
          or failure with no typed error *)
  retransmissions : int;
  checksum_drops : int;
  replies_abandoned : int;
  drops : (Socket.drop_reason * int) list;
  link : Link.stats;
  pool_leaks : int;
      (** invariant violation: buffers still outstanding from any
          iteration's pool after engine teardown *)
}

let invariants_hold o =
  o.escaped_exceptions = 0 && o.silent_corruptions = 0 && o.pool_leaks = 0

let ciphers = [| Ft.Safer_simplified; Ft.Simple_encryption; Ft.Safer_full 6; Ft.Des |]

let cipher_name = function
  | Ft.Safer_simplified -> "safer-simplified"
  | Ft.Simple_encryption -> "simple"
  | Ft.Safer_full _ -> "safer-k64"
  | Ft.Des -> "des"

(* Draw one randomized impairment configuration.  Rates are scaled by
   [intensity]; every draw comes from the soak's own seeded stream, so a
   soak run is exactly reproducible from its seed. *)
let draw_impairments st ~intensity =
  (* Clamped so any intensity in Soak.run's accepted range still yields a
     valid probability. *)
  let r scale = min 1.0 (scale *. prng_float st *. intensity) in
  let gilbert =
    if prng_float st < 0.35 then
      Some
        { Link.p_enter_bad = min 1.0 (0.02 +. r 0.05);
          p_exit_bad = 0.25;
          loss_in_bad = min 1.0 (0.4 +. r 0.4) }
    else None
  in
  { Link.delay_us = 20.0 +. (80.0 *. prng_float st);
    jitter_us = (if prng_float st < 0.5 then 0.0 else 200.0 *. prng_float st);
    loss_rate = r 0.15;
    dup_rate = r 0.1;
    corrupt_rate = r 0.2;
    corrupt_bits = 1 + prng_int st 4;
    truncate_rate = r 0.06;
    pad_rate = r 0.06;
    pad_max = 12;
    delay_spike_rate = r 0.04;
    delay_spike_us = 2_000.0;
    gilbert }

(* One transfer under one impairment draw.  The soak invariant: the file
   arrives byte-exact, or the run reports a typed error — never silent
   corruption, never an escaped exception. *)
let run ?(log = fun _ -> ()) (cfg : config) =
  if cfg.iterations < 0 then invalid_arg "Soak.run: iterations must be >= 0";
  if cfg.intensity < 0.0 || cfg.intensity > 10.0 then
    invalid_arg "Soak.run: intensity must be in [0, 10]";
  if cfg.file_len <= 0 || cfg.copies <= 0 || cfg.max_reply <= 0 then
    invalid_arg "Soak.run: file_len, copies and max_reply must be positive";
  if cfg.deadline_us <= 0.0 then invalid_arg "Soak.run: deadline_us must be positive";
  let st = prng_create cfg.seed in
  let completed = ref 0
  and failed = ref 0
  and escaped = ref 0
  and silent = ref 0
  and retransmissions = ref 0
  and checksum_drops = ref 0
  and abandoned = ref 0
  and pool_leaks = ref 0 in
  let drop_totals = Array.make (List.length Socket.drop_reasons) 0 in
  let link_total = ref Link.zero_stats in
  for i = 0 to cfg.iterations - 1 do
    let mode = if i land 1 = 0 then Engine.Separate else Engine.Ilp in
    let native = (i lsr 1) land 1 = 1 in
    let cipher = ciphers.((i lsr 2) land 3) in
    let header_style = if (i lsr 4) land 1 = 0 then Engine.Leading else Engine.Trailer in
    let crc = (i lsr 5) land 1 = 1 in
    (* Bit 6 is unused: moving framing down would reshuffle every seeded
       summary. *)
    let framing = (i lsr 7) land 1 = 1 in
    let imp = draw_impairments st ~intensity:cfg.intensity in
    let setup =
      { (Ft.default_setup ~machine:cfg.machine ~mode) with
        Ft.cipher;
        native;
        header_style;
        crc;
        framing;
        file_len = cfg.file_len;
        copies = cfg.copies;
        max_reply = cfg.max_reply;
        seed = (cfg.seed * 7919) + i;
        impairments = Some imp;
        deadline_us = cfg.deadline_us }
    in
    let tag verdict =
      Printf.sprintf "iter %4d  %-8s %-7s %-16s %-6s %-6s %s" i
        (match mode with Engine.Ilp -> "ilp" | Engine.Separate -> "separate")
        (if native then "native" else "sim")
        (cipher_name cipher)
        (if crc then "crc32" else "-")
        (if framing then "framed" else "-")
        verdict
    in
    (match Ft.run setup with
    | r ->
        retransmissions := !retransmissions + r.Ft.retransmissions;
        checksum_drops := !checksum_drops + r.Ft.checksum_failures;
        abandoned := !abandoned + r.Ft.replies_abandoned;
        List.iteri
          (fun j (_, n) -> drop_totals.(j) <- drop_totals.(j) + n)
          r.Ft.drops;
        link_total := Link.add_stats !link_total r.Ft.link_stats;
        if r.Ft.pool_leaks <> 0 then begin
          pool_leaks := !pool_leaks + r.Ft.pool_leaks;
          log (tag (Printf.sprintf "POOL LEAK: %d buffers outstanding" r.Ft.pool_leaks))
        end;
        if r.Ft.ok then begin
          if r.Ft.payload_bytes <> cfg.file_len * cfg.copies then begin
            incr silent;
            log (tag "SILENT CORRUPTION: success without byte-exact delivery")
          end
          else incr completed
        end
        else begin
          match r.Ft.error with
          | Some e ->
              incr failed;
              log (tag ("failed (typed): " ^ e))
          | None ->
              incr silent;
              log (tag "SILENT FAILURE: no typed error reported")
        end
    | exception e ->
        incr escaped;
        log (tag ("ESCAPED EXCEPTION: " ^ Printexc.to_string e)))
  done;
  { iterations = cfg.iterations;
    completed = !completed;
    failed = !failed;
    escaped_exceptions = !escaped;
    silent_corruptions = !silent;
    retransmissions = !retransmissions;
    checksum_drops = !checksum_drops;
    replies_abandoned = !abandoned;
    drops =
      List.mapi (fun j r -> (r, drop_totals.(j))) Socket.drop_reasons;
    link = !link_total;
    pool_leaks = !pool_leaks }

(* ------------------------------------------------------------------ *)
(* Overload soak: many concurrent clients against one shared server *)

type persona =
  | Honest
  | Slow_reader
  | Dead_reader
  | Oversized
  | Streaming
  | Shrinking_window
  | Lying_receiver

let persona_name = function
  | Honest -> "honest"
  | Slow_reader -> "slow-reader"
  | Dead_reader -> "dead-reader"
  | Oversized -> "oversized"
  | Streaming -> "streaming"
  | Shrinking_window -> "shrink-window"
  | Lying_receiver -> "lying-recv"

(* Honest clients must complete; slow readers misbehave transiently and
   must still complete (the persist machinery recovers them); dead
   readers and oversized requesters are shed with typed outcomes.
   Streaming clients use a data connection whose MSS is smaller than one
   reply, so every reply travels as pipelined segments — and must still
   arrive byte-exact.  Shrinking-window clients yank their advertised
   window below the sender's bytes in flight mid-transfer and reopen it
   later; the clamped send window must recover them.  Lying receivers
   read honestly but their NIC forges the feedback channel (SACK blocks
   for data never sent, duplicated acks); the server must reject every
   forged block and still deliver byte-exact. *)
let persona_must_complete = function
  | Honest | Slow_reader | Streaming | Shrinking_window | Lying_receiver ->
      true
  | Dead_reader | Oversized -> false

let persona_pattern =
  [| Honest; Slow_reader; Streaming; Dead_reader; Lying_receiver; Oversized;
     Shrinking_window; Slow_reader |]

type overload_config = {
  seed : int;
  clients : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
  deadline_us : float;
}

let default_overload_config =
  { seed = 1;
    clients = 8;
    file_len = 2048;
    machine = Ilp_memsim.Config.ss10_30;
    deadline_us = 30_000_000.0 }

type overload_outcome = {
  clients : int;
  completed : int;
  typed_failures : int;
  escaped_exceptions : int;
  silent_outcomes : int;
      (** invariant violation: a client ended neither complete nor with a
          typed client- or server-side outcome *)
  honest_incomplete : int;
      (** invariant violation: an honest or slow-reader client did not
          finish byte-exact *)
  budget_violations : int;
      (** invariant violation: peak queued bytes exceeded the global cap *)
  ledger_mismatch : bool;
      (** invariant violation: sheds in the server ledger do not equal the
          typed shed outcomes the clients observed *)
  peak_queued_bytes : int;
  queue_cap : int;
  busy_replies : int;
  client_retries : int;
  persist_probes : int;
  peer_stalled_aborts : int;
  replies_abandoned : int;
  forged_acks : int;
  forged_rejections : int;
  forgery_unpunished : bool;
      (** invariant violation: a lying receiver's NIC forged feedback but
          the server neither rejected a block nor aborted the peer *)
  sheds : (Rpc_server.shed_reason * int) list;
  pool_leaks : int;
      (** invariant violation: buffers outstanding from the run's shared
          pool after every engine was destroyed *)
}

let overload_invariants_hold o =
  o.escaped_exceptions = 0 && o.silent_outcomes = 0 && o.honest_incomplete = 0
  && o.budget_violations = 0
  && (not o.ledger_mismatch)
  && (not o.forgery_unpunished)
  && o.pool_leaks = 0

type overload_client = {
  idx : int;
  persona : persona;
  client : Rpc_client.t;
  cli_data : Socket.t;
  srv_data : Socket.t;
  mutable local_refused : bool;
}

let run_overload ?(log = fun _ -> ()) ?on_clock (cfg : overload_config) =
  if cfg.clients < 1 then invalid_arg "Soak.run_overload: clients must be >= 1";
  if cfg.file_len < 64 then invalid_arg "Soak.run_overload: file_len must be >= 64";
  if cfg.deadline_us <= 0.0 then
    invalid_arg "Soak.run_overload: deadline_us must be positive";
  let max_reply = max 64 (cfg.file_len / 8) in
  let limits =
    { Rpc_server.max_connections = cfg.clients + 2;
      max_conn_queue_bytes = 2 * cfg.file_len;
      (* Tight enough that concurrent honest requests contend and the
         Busy/retry path actually runs. *)
      max_total_queue_bytes = cfg.file_len * ((cfg.clients / 4) + 1);
      max_request_age_us = 60_000_000.0 }
  in
  let empty_outcome =
    { clients = cfg.clients;
      completed = 0;
      typed_failures = 0;
      escaped_exceptions = 1;
      silent_outcomes = 0;
      honest_incomplete = 0;
      budget_violations = 0;
      ledger_mismatch = false;
      peak_queued_bytes = 0;
      queue_cap = limits.Rpc_server.max_total_queue_bytes;
      busy_replies = 0;
      client_retries = 0;
      persist_probes = 0;
      peer_stalled_aborts = 0;
      replies_abandoned = 0;
      forged_acks = 0;
      forged_rejections = 0;
      forgery_unpunished = false;
      sheds = [];
      pool_leaks = 0 }
  in
  match
    let sim = Sim.create cfg.machine in
    let clock = Simclock.create () in
    let demux = Demux.create () in
    let link = ref None in
    let wire_out d = Link.send (Option.get !link) d in
    (* The lying receivers' data ports (their acks travel cli_data ->
       srv_data); the port plan below assigns 4 consecutive ports per
       client starting at 1000, cli_data being the fourth. *)
    let liar_ports = Hashtbl.create 4 in
    for i = 0 to cfg.clients - 1 do
      if persona_pattern.(i mod Array.length persona_pattern) = Lying_receiver
      then Hashtbl.replace liar_ports (1000 + (4 * i) + 3) ()
    done;
    (* A lying receiver's NIC: every pure ack it emits gains a SACK block
       claiming data the server never sent, and goes out twice (dupack
       forgery).  Runs before the wire, so the forged bytes carry a valid
       TCP checksum — the server must reject them on semantics (block
       beyond [snd_nxt]), not syntax. *)
    let forge_ack dgram =
      if not (Hashtbl.mem liar_ports dgram.Datagram.src_port) then [ dgram ]
      else
        match Ipv4.decapsulate dgram.Datagram.payload with
        | Error _ -> [ dgram ]
        | Ok (ip, seg) -> (
            match Tcp_header.of_string seg ~pos:0 with
            | Error _ -> [ dgram ]
            | Ok h ->
                let pure_ack =
                  Tcp_header.has h Tcp_header.ack_flag
                  && (not (Tcp_header.has h Tcp_header.syn))
                  && (not (Tcp_header.has h Tcp_header.fin))
                  && (not (Tcp_header.has h Tcp_header.rst))
                  && String.length seg = Tcp_header.wire_size h
                in
                if not pure_ack then [ dgram ]
                else begin
                  let lie = h.Tcp_header.ack + 1_000_000 in
                  let h' =
                    { h with Tcp_header.sack = [ (lie, lie + 1448) ] }
                  in
                  let h' =
                    { h' with
                      Tcp_header.checksum =
                        Tcp_header.checksum h'
                          ~payload_acc:Ilp_checksum.Internet.empty
                          ~payload_len:0 }
                  in
                  let seg' = Tcp_header.to_string h' in
                  let ip' =
                    Ipv4.make ~ident:ip.Ipv4.ident ~protocol:ip.Ipv4.protocol
                      ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst
                      ~payload_len:(String.length seg') ()
                  in
                  let forged =
                    Datagram.create ~src_port:dgram.Datagram.src_port
                      ~dst_port:dgram.Datagram.dst_port
                      ~payload:(Ipv4.encapsulate ip' seg')
                  in
                  [ forged; forged ]
                end)
    in
    link :=
      Some
        (Link.create clock ~delay_us:30.0 ~seed:cfg.seed ~tamper:forge_ack
           ~deliver:(Demux.deliver demux) ());
    let key = "soakOVRL" in
    (* One pool shared by the server and every client engine, and a list
       of all engines so teardown can audit pool balance for the run. *)
    let pool = Ilp_fastpath.Pool.create () in
    let engines = ref [] in
    let engine () =
      let e =
        Engine.create sim
          ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
          ~mode:Engine.Ilp ~crc32:true ~pool ()
      in
      engines := e :: !engines;
      e
    in
    (* Small buffers so the reply queue holds real bytes (the budgets
       bind); a stall deadline short enough to detect dead readers within
       the run yet past the persist-backoff probe at ~635 ms of virtual
       time, so the latest slow-reader reopening is still discovered. *)
    let cfg_sock =
      { Socket.default_config with
        mss = max_reply + 256;
        send_buffer = max 1024 (cfg.file_len / 2);
        recv_window = max 1024 (cfg.file_len / 2);
        stall_deadline_us = 1_500_000.0 }
    in
    let server = Rpc_server.create ~clock ~engine:(engine ()) ~limits () in
    let file = Workload.generate ~len:cfg.file_len ~seed:3 in
    let addr = Workload.install sim file in
    Rpc_server.add_file server ~name:"soak.bin" ~addr ~len:cfg.file_len;
    (* Generous retry coverage (~1.2 s of cumulative backoff): a shed
       honest client must outlast both queue contention and the slowest
       slow-reader discovery before giving up. *)
    let retry =
      { Rpc_client.max_attempts = 40;
        base_backoff_us = 500.0;
        max_backoff_us = 30_000.0;
        deadline_us = 5_000_000.0 }
    in
    let mk ?(sock = cfg_sock) port =
      let s = Socket.create sim clock sock ~local_port:port ~wire_out in
      Demux.bind demux ~port (Socket.handle_datagram s);
      s
    in
    let world =
      List.init cfg.clients (fun i ->
          let base = 1000 + (4 * i) in
          let persona = persona_pattern.(i mod Array.length persona_pattern) in
          (* Streaming clients force segment streaming: the data MSS is
             well below one reply's wire length, so the server's replies
             go out through [Socket.send_stream] as pipelined TPDUs. *)
          let data_sock =
            match persona with
            | Streaming -> { cfg_sock with Socket.mss = 96 }
            | Honest | Slow_reader | Dead_reader | Oversized
            | Shrinking_window | Lying_receiver ->
                cfg_sock
          in
          let srv_ctrl = mk base and cli_ctrl = mk (base + 1) in
          let srv_data = mk ~sock:data_sock (base + 2)
          and cli_data = mk ~sock:data_sock (base + 3) in
          ignore (Rpc_server.attach server ~ctrl:srv_ctrl ~data:srv_data);
          (* Slow and dead readers advertise a zero receive window from
             the start; slow ones reopen later, dead ones never do. *)
          (match persona with
          | Slow_reader | Dead_reader -> Socket.set_advertised_window cli_data 0
          | Honest | Oversized | Streaming | Shrinking_window
          | Lying_receiver ->
              ());
          Socket.listen srv_ctrl;
          Socket.listen cli_data;
          Socket.connect cli_ctrl ~remote_port:base;
          Socket.connect srv_data ~remote_port:(base + 3);
          (* Streaming personas also negotiate the v2 framed receive, so
             the overload soak drives final-placement reassembly through
             small-MSS pipelining, forged feedback and window games. *)
          let client =
            Rpc_client.create ~clock ~retry ~seed:(cfg.seed + i)
              ~framed:(persona = Streaming)
              ~engine:(engine ()) ~ctrl:cli_ctrl ~data:cli_data ()
          in
          { idx = i; persona; client; cli_data; srv_data; local_refused = false })
    in
    Simclock.run_until_idle clock;
    (* The telemetry hook attaches here — after handshakes have drained
       (so a periodic sampler is not burned before the workload exists)
       and before the requests are scheduled. *)
    Option.iter (fun f -> f clock) on_clock;
    (* Stagger the requests slightly, reopen the slow readers mid-run. *)
    List.iter
      (fun c ->
        let copies = match c.persona with Oversized -> 3 | _ -> 1 in
        ignore
          (Simclock.schedule clock
             ~after:(200.0 *. float_of_int c.idx)
             (fun () ->
               match
                 Rpc_client.request_file c.client ~name:"soak.bin" ~copies
                   ~max_reply ~expected:file
               with
               | Ok () -> ()
               | Error _ -> c.local_refused <- true));
        match c.persona with
        | Slow_reader ->
            ignore
              (Simclock.schedule clock
                 ~after:(100_000.0 +. (37_000.0 *. float_of_int c.idx))
                 (fun () ->
                   Socket.set_advertised_window c.cli_data
                     cfg_sock.Socket.recv_window))
        | Shrinking_window ->
            (* Shrink below the sender's likely bytes in flight while the
               transfer is in full swing, then reopen.  The clamped
               send-window arithmetic must park the sender (no crash, no
               byte past the shrunken edge) and resume it on reopen. *)
            ignore
              (Simclock.schedule clock
                 ~after:(30_000.0 +. (11_000.0 *. float_of_int c.idx))
                 (fun () -> Socket.set_advertised_window c.cli_data 64));
            ignore
              (Simclock.schedule clock
                 ~after:(400_000.0 +. (29_000.0 *. float_of_int c.idx))
                 (fun () ->
                   Socket.set_advertised_window c.cli_data
                     cfg_sock.Socket.recv_window))
        | Honest | Dead_reader | Oversized | Streaming | Lying_receiver -> ())
      world;
    let settled c =
      c.local_refused
      || Rpc_client.transfer_complete c.client
      || Rpc_client.rejected c.client
      || Rpc_client.failure c.client <> None
      || Rpc_client.errors c.client <> []
      || Socket.failure c.srv_data <> None
    in
    let guard = ref 400_000 in
    while
      (not (List.for_all settled world))
      && Simclock.now clock < cfg.deadline_us
      && !guard > 0
    do
      decr guard;
      Simclock.advance clock 1_000.0
    done;
    Simclock.run_until_idle clock;
    let completed = ref 0
    and typed = ref 0
    and silent = ref 0
    and honest_incomplete = ref 0 in
    List.iter
      (fun c ->
        let complete =
          Rpc_client.transfer_complete c.client
          && Rpc_client.errors c.client = []
        in
        let client_typed =
          c.local_refused
          || Rpc_client.rejected c.client
          || Rpc_client.failure c.client <> None
          || Rpc_client.errors c.client <> []
        in
        let server_typed = Socket.failure c.srv_data <> None in
        let verdict =
          if complete then begin
            incr completed;
            "completed byte-exact"
          end
          else if client_typed || server_typed then begin
            incr typed;
            if client_typed then
              match Rpc_client.failure c.client with
              | Some f -> "typed: " ^ Rpc_client.failure_to_string f
              | None ->
                  if Rpc_client.rejected c.client then "typed: rejected"
                  else if c.local_refused then "typed: local refusal"
                  else "typed: " ^ String.concat "; " (Rpc_client.errors c.client)
            else
              "typed (server side): "
              ^ Socket.abort_reason_to_string
                  (Option.get (Socket.failure c.srv_data))
          end
          else begin
            incr silent;
            "SILENT: neither complete nor typed"
          end
        in
        if persona_must_complete c.persona && not complete then
          incr honest_incomplete;
        log
          (Printf.sprintf "client %2d  %-11s %s  (busy %d, retries %d)" c.idx
             (persona_name c.persona) verdict
             (Rpc_client.busy_replies c.client)
             (Rpc_client.retries c.client)))
      world;
    let busy =
      List.fold_left (fun a c -> a + Rpc_client.busy_replies c.client) 0 world
    in
    let refused =
      List.fold_left
        (fun a c -> a + if Rpc_client.rejected c.client then 1 else 0)
        0 world
    in
    let retries =
      List.fold_left (fun a c -> a + Rpc_client.retries c.client) 0 world
    in
    let probes =
      List.fold_left
        (fun a c -> a + (Socket.stats c.srv_data).Socket.persist_probes)
        0 world
    in
    let stalled =
      List.fold_left
        (fun a c ->
          a
          + if Socket.failure c.srv_data = Some Socket.Peer_stalled then 1 else 0)
        0 world
    in
    let forged_acks = (Link.stats (Option.get !link)).Link.tampered in
    (* Forged feedback must leave a trace: SACK blocks rejected by the
       server's validator, or (for optimistic-ack forgeries) a typed
       [Misbehaving_peer] abort.  Silent acceptance is the violation. *)
    let forged_rejections =
      List.fold_left
        (fun a c ->
          let s = Socket.stats c.srv_data in
          a + s.Socket.sack_invalid
          + if Socket.failure c.srv_data = Some Socket.Misbehaving_peer then 1
            else 0)
        0 world
    in
    let peak = Rpc_server.peak_queued_bytes server in
    List.iter Engine.destroy !engines;
    let pool_leaks = Ilp_fastpath.Pool.outstanding pool in
    { clients = cfg.clients;
      completed = !completed;
      typed_failures = !typed;
      escaped_exceptions = 0;
      silent_outcomes = !silent;
      honest_incomplete = !honest_incomplete;
      budget_violations =
        (if peak > limits.Rpc_server.max_total_queue_bytes then 1 else 0);
      (* Every shed must be accounted for: seen by a client as Busy or a
         refusal, or attributably lost because the shed connection itself
         died before the status could be delivered. *)
      ledger_mismatch =
        Rpc_server.sheds_total server
        <> busy + refused + Rpc_server.statuses_abandoned server;
      peak_queued_bytes = peak;
      queue_cap = limits.Rpc_server.max_total_queue_bytes;
      busy_replies = busy;
      client_retries = retries;
      persist_probes = probes;
      peer_stalled_aborts = stalled;
      replies_abandoned = Rpc_server.replies_abandoned server;
      forged_acks;
      forged_rejections;
      forgery_unpunished = forged_acks > 0 && forged_rejections = 0;
      sheds = Rpc_server.sheds server;
      pool_leaks }
  with
  | o -> o
  | exception (Invalid_argument _ as e) -> raise e
  | exception e ->
      log ("ESCAPED EXCEPTION: " ^ Printexc.to_string e);
      empty_outcome

let overload_summary_lines o =
  [ Printf.sprintf "clients               %d" o.clients;
    Printf.sprintf "byte-exact transfers  %d" o.completed;
    Printf.sprintf "typed outcomes        %d" o.typed_failures;
    Printf.sprintf "escaped exceptions    %d" o.escaped_exceptions;
    Printf.sprintf "silent outcomes       %d" o.silent_outcomes;
    Printf.sprintf "honest incomplete     %d" o.honest_incomplete;
    Printf.sprintf "queued bytes          peak %d of cap %d%s" o.peak_queued_bytes
      o.queue_cap
      (if o.budget_violations > 0 then "  VIOLATED" else "");
    Printf.sprintf "shedding              %d busy replies, %d client retries%s"
      o.busy_replies o.client_retries
      (if o.ledger_mismatch then "  LEDGER MISMATCH" else "");
    "shed ledger:          "
    ^ String.concat ", "
        (List.map
           (fun (r, n) ->
             Printf.sprintf "%s %d" (Rpc_server.shed_reason_to_string r) n)
           o.sheds);
    Printf.sprintf "zero-window           %d persist probes, %d peer-stalled aborts"
      o.persist_probes o.peer_stalled_aborts;
    Printf.sprintf "lying receivers       %d forged acks, %d rejections%s"
      o.forged_acks o.forged_rejections
      (if o.forgery_unpunished then "  UNPUNISHED" else "");
    Printf.sprintf "server                %d replies abandoned" o.replies_abandoned;
    Printf.sprintf "buffer pool           %d leaks%s" o.pool_leaks
      (if o.pool_leaks > 0 then "  VIOLATED" else "") ]

(* ------------------------------------------------------------------ *)
(* Crash soak: seeded node crash/restart faults against one transfer *)

type crash_config = {
  seed : int;
  transfers : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
  deadline_us : float;
}

let default_crash_config =
  { seed = 1;
    transfers = 64;
    file_len = 2048;
    machine = Ilp_memsim.Config.ss10_30;
    deadline_us = 30_000_000.0 }

type crash_outcome = {
  transfers : int;
  completed : int;
  resumed_completed : int;
  typed_failures : int;
  escaped_exceptions : int;
  silent_outcomes : int;
  restarts_from_zero : int;
  stale_timers : int;
  dedup_violations : int;
  crashes : int;
  resets_while_down : int;
  swallowed : int;
  keepalive_probes : int;
  reset_aborts : int;
  reconnects : int;
  resumes : int;
  dedup_hits : int;
  executions : int;
  crc_probes : int;
  pool_leaks : int;
}

let crash_invariants_hold o =
  o.escaped_exceptions = 0 && o.silent_outcomes = 0
  && o.restarts_from_zero = 0 && o.stale_timers = 0
  && o.dedup_violations = 0 && o.pool_leaks = 0

(* One transfer against a server that dies and comes back on a seeded
   schedule.  The fault-model invariant, per seed: the file arrives
   byte-exact (possibly resumed across restarts) or the client holds a
   typed failure — a crash never ends in a silent hang; a resume never
   restarts from byte zero when a verified prefix exists; the dedup
   ledger and the buffer pool balance; every crash teardown leaves zero
   owned timers on the clock. *)
let run_crash ?(log = fun _ -> ()) (cfg : crash_config) =
  if cfg.transfers < 0 then
    invalid_arg "Soak.run_crash: transfers must be >= 0";
  if cfg.file_len < 64 then
    invalid_arg "Soak.run_crash: file_len must be >= 64";
  if cfg.deadline_us <= 0.0 then
    invalid_arg "Soak.run_crash: deadline_us must be positive";
  let st = prng_create cfg.seed in
  let completed = ref 0
  and resumed_completed = ref 0
  and typed = ref 0
  and escaped = ref 0
  and silent = ref 0
  and restarts_zero = ref 0
  and stale = ref 0
  and dedup_viol = ref 0
  and crashes = ref 0
  and resets = ref 0
  and swallowed = ref 0
  and ka_probes = ref 0
  and reset_aborts = ref 0
  and reconnects = ref 0
  and resumes = ref 0
  and dedup_hits = ref 0
  and executions = ref 0
  and crc_probes = ref 0
  and pool_leaks = ref 0 in
  for i = 0 to cfg.transfers - 1 do
    let mode = if i land 1 = 0 then Engine.Ilp else Engine.Separate in
    (* Bit 1 is unused: shifting the bits above it down would reshuffle
       every seeded summary. *)
    let crc = (i lsr 2) land 1 = 0 in
    let copies = if (i lsr 3) land 1 = 0 then 1 else 2 in
    let framing = (i lsr 4) land 1 = 1 in
    (* The seeded fault draw: trigger (wall-clock offsets or the Nth
       packet the server receives), downtime, crash count, and whether
       the dead address answers RST or black-holes. *)
    let on_packet = prng_float st < 0.7 in
    let trigger_n = 5 + prng_int st 10 in
    let down_us = 4_000.0 +. (26_000.0 *. prng_float st) in
    let max_crashes = 1 + prng_int st 2 in
    let rst_while_down = prng_float st < 0.5 in
    let crash_times =
      Crashplan.seeded_times
        ~seed:((cfg.seed * 8191) + i)
        ~crashes:max_crashes ~horizon_us:6_000.0
    in
    let tag verdict =
      Printf.sprintf "xfer %3d  %-8s %-6s copies %d  %-9s %-9s  %s" i
        (match mode with Engine.Ilp -> "ilp" | Engine.Separate -> "separate")
        (if framing then "framed" else "-")
        copies
        (if on_packet then Printf.sprintf "pkt %d" trigger_n else "timed")
        (if rst_while_down then "rst" else "blackhole")
        verdict
    in
    match
      let sim = Sim.create cfg.machine in
      let clock = Simclock.create () in
      let demux = Demux.create () in
      let link = ref None in
      let wire_out d = Link.send (Option.get !link) d in
      link :=
        Some
          (Link.create clock ~delay_us:40.0 ~seed:(cfg.seed + i)
             ~deliver:(Demux.deliver demux) ());
      let pool = Ilp_fastpath.Pool.create () in
      let engines = ref [] in
      let engine () =
        let e =
          Engine.create sim
            ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key:"soakCRSH" ())
            ~mode ~crc32:crc ~pool ()
        in
        engines := e :: !engines;
        e
      in
      let max_reply = 256 in
      let cfg_sock =
        { Socket.default_config with
          mss = max_reply + 256;
          stall_deadline_us = 2_000_000.0 }
      in
      let file = Workload.generate ~len:cfg.file_len ~seed:(5 + i) in
      let addr = Workload.install sim file in
      (* The crash-surviving state: files and the dedup cache outlive
         every server instance. *)
      let store = Rpc_server.create_store () in
      let server = ref None in
      let srv_socks = ref [] in
      let probes_total = ref 0 in
      let stale_here = ref 0 in
      let kill () =
        (match !server with
        | Some s ->
            probes_total := !probes_total + Rpc_server.probes_received s;
            Rpc_server.shutdown s;
            if
              Simclock.pending_count clock ~owner:(Rpc_server.timer_owner s)
              <> 0
            then incr stale_here;
            server := None
        | None -> ());
        List.iter
          (fun s ->
            Socket.destroy s;
            if Simclock.pending_count clock ~owner:(Socket.timer_owner s) <> 0
            then incr stale_here)
          !srv_socks;
        srv_socks := []
      in
      let revive () =
        server := Some (Rpc_server.create ~clock ~engine:(engine ()) ~store ())
      in
      revive ();
      Rpc_server.add_file (Option.get !server) ~name:"crash.bin" ~addr
        ~len:cfg.file_len;
      let plan =
        Crashplan.create clock ~max_crashes
          ~schedule:
            (if on_packet then Crashplan.On_packet trigger_n
             else Crashplan.At_times crash_times)
          ~down_us
          ~behaviour:
            (if rst_while_down then
               Crashplan.Respond { reply = Socket.reset_for; send = wire_out }
             else Crashplan.Blackhole)
          ~kill ~revive ()
      in
      let all_socks = ref [] in
      let gen = ref 0 in
      (* Stand up one connection generation: fresh ports both sides, the
         server's two guarded by the crash plan, the pair attached to the
         current server instance. *)
      let establish () =
        let base = 1000 + (4 * !gen) in
        incr gen;
        let mk port = Socket.create sim clock cfg_sock ~local_port:port ~wire_out in
        let srv_ctrl = mk base and cli_ctrl = mk (base + 1) in
        let srv_data = mk (base + 2) and cli_data = mk (base + 3) in
        Demux.bind demux ~port:base
          (Crashplan.guard plan ~deliver:(Socket.handle_datagram srv_ctrl));
        Demux.bind demux ~port:(base + 2)
          (Crashplan.guard plan ~deliver:(Socket.handle_datagram srv_data));
        Demux.bind demux ~port:(base + 1) (Socket.handle_datagram cli_ctrl);
        Demux.bind demux ~port:(base + 3) (Socket.handle_datagram cli_data);
        ignore
          (Rpc_server.attach (Option.get !server) ~ctrl:srv_ctrl ~data:srv_data);
        srv_socks := [ srv_ctrl; srv_data ];
        all_socks := srv_ctrl :: cli_ctrl :: srv_data :: cli_data :: !all_socks;
        Socket.listen srv_ctrl;
        Socket.listen cli_data;
        Socket.connect cli_ctrl ~remote_port:base;
        Socket.connect srv_data ~remote_port:(base + 3);
        (cli_ctrl, cli_data)
      in
      let watch_data d =
        (* Half-open detection: a crashed-and-restarted (or still dead)
           server answers the probe with RST or stays silent; either way
           the client gets a typed abort instead of a silent hang. *)
        Socket.start_keepalive d ~interval_us:15_000.0 ~probes:3
          ~on_result:(fun _ -> ())
          ()
      in
      let c0, d0 = establish () in
      let cur = ref (c0, d0) in
      (* Framed transfers must survive crashes too: the reconnect probe
         carries the framing flag, so a restarted server frames its very
         first reply on the new connection. *)
      let client =
        Rpc_client.create ~clock ~seed:(cfg.seed + (2 * i) + 1) ~idempotent:true
          ~framed:framing ~engine:(engine ()) ~ctrl:c0 ~data:d0 ()
      in
      let hs = ref 2_000 in
      while
        (Socket.state c0 <> Socket.Established
        || Socket.state d0 <> Socket.Established)
        && Socket.failure c0 = None
        && Socket.failure d0 = None
        && !hs > 0
      do
        decr hs;
        Simclock.advance clock 100.0
      done;
      let local_refused = ref false in
      (match
         Rpc_client.request_file client ~name:"crash.bin" ~copies ~max_reply
           ~expected:file
       with
      | Ok () -> watch_data d0
      | Error _ -> local_refused := true);
      (* The recovery supervisor, run between clock steps: when the
         client holds a typed failure and the server host is back up,
         stand up a new generation and resume via Rpc_client.reconnect.
         A generation that cannot establish (the host crashed again
         mid-handshake) is torn down and retried. *)
      let max_generations = max_crashes + 4 in
      let pending = ref None in
      let retire (c, d) =
        if not (Socket.destroyed c) then Socket.destroy c;
        if not (Socket.destroyed d) then Socket.destroy d
      in
      let terminal () =
        !local_refused
        || Rpc_client.transfer_complete client
        || Rpc_client.rejected client
        || Rpc_client.errors client <> []
        || (Rpc_client.failure client <> None
           && !pending = None
           && !gen >= max_generations)
      in
      let guard_steps = ref 200_000 in
      while
        (not (terminal ()))
        && Simclock.now clock < cfg.deadline_us
        && !guard_steps > 0
      do
        decr guard_steps;
        Simclock.advance clock 500.0;
        match !pending with
        | Some ((c, d), since) ->
            if
              Socket.state c = Socket.Established
              && Socket.state d = Socket.Established
            then begin
              (match Rpc_client.reconnect client ~ctrl:c ~data:d with
              | Ok s ->
                  (match s.Rpc_client.resumed_from with
                  | Some (0, 0) when s.Rpc_client.bytes_verified > 0 ->
                      incr restarts_zero
                  | None
                    when s.Rpc_client.bytes_verified > 0
                         && not (Rpc_client.transfer_complete client) ->
                      incr restarts_zero
                  | _ -> ());
                  retire !cur;
                  cur := (c, d);
                  watch_data d
              | Error _ -> retire (c, d));
              pending := None
            end
            else if
              Socket.failure c <> None
              || Socket.failure d <> None
              || Simclock.now clock > since +. 3_000_000.0
            then begin
              retire (c, d);
              pending := None
            end
        | None ->
            if
              (not (Rpc_client.transfer_complete client))
              && Rpc_client.failure client <> None
              && Crashplan.is_up plan
              && !server <> None
              && !gen < max_generations
            then pending := Some (establish (), Simclock.now clock)
      done;
      (* Teardown: cancel the plan, flatten every endpoint, drain the
         wire, then audit the clock, the dedup ledger and the pool. *)
      Crashplan.stop plan;
      if Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan) <> 0
      then incr stale_here;
      (match !server with
      | Some s ->
          probes_total := !probes_total + Rpc_server.probes_received s;
          Rpc_server.shutdown s
      | None -> ());
      List.iter
        (fun s -> if not (Socket.destroyed s) then Socket.destroy s)
        !all_socks;
      Simclock.run_until_idle clock;
      let complete =
        Rpc_client.transfer_complete client && Rpc_client.errors client = []
      in
      let client_typed =
        !local_refused
        || Rpc_client.rejected client
        || Rpc_client.failure client <> None
        || Rpc_client.errors client <> []
      in
      let verdict =
        if complete then begin
          if Rpc_client.bytes_received client <> copies * cfg.file_len then begin
            incr silent;
            "SILENT CORRUPTION: complete without byte-exact delivery"
          end
          else begin
            incr completed;
            if Rpc_client.reconnects client > 0 then begin
              incr resumed_completed;
              "completed byte-exact (resumed)"
            end
            else "completed byte-exact"
          end
        end
        else if client_typed then begin
          incr typed;
          match Rpc_client.failure client with
          | Some f -> "typed: " ^ Rpc_client.failure_to_string f
          | None ->
              if Rpc_client.rejected client then "typed: rejected"
              else if !local_refused then "typed: local refusal"
              else "typed: " ^ String.concat "; " (Rpc_client.errors client)
        end
        else begin
          incr silent;
          "SILENT: neither complete nor typed past the deadline"
        end
      in
      if
        Rpc_server.executions store + Rpc_server.dedup_hits store
        + Rpc_server.dedup_sheds store
        <> Rpc_server.id_requests_seen store
      then begin
        incr dedup_viol;
        log (tag "DEDUP LEDGER MISMATCH")
      end;
      if !stale_here > 0 then begin
        stale := !stale + !stale_here;
        log (tag (Printf.sprintf "STALE TIMERS: %d owners" !stale_here))
      end;
      crashes := !crashes + Crashplan.crashes plan;
      resets := !resets + Crashplan.resets plan;
      swallowed := !swallowed + Crashplan.swallowed plan;
      reconnects := !reconnects + Rpc_client.reconnects client;
      resumes := !resumes + Rpc_client.resumes client;
      dedup_hits := !dedup_hits + Rpc_server.dedup_hits store;
      executions := !executions + Rpc_server.executions store;
      crc_probes := !crc_probes + !probes_total;
      List.iter
        (fun s ->
          ka_probes := !ka_probes + (Socket.stats s).Socket.keepalive_probes;
          if Socket.failure s = Some Socket.Connection_reset then
            incr reset_aborts)
        !all_socks;
      List.iter Engine.destroy !engines;
      let leaked = Ilp_fastpath.Pool.outstanding pool in
      if leaked <> 0 then begin
        pool_leaks := !pool_leaks + leaked;
        log (tag (Printf.sprintf "POOL LEAK: %d buffers outstanding" leaked))
      end;
      log (tag verdict)
    with
    | () -> ()
    | exception (Invalid_argument _ as e) -> raise e
    | exception e ->
        incr escaped;
        log (tag ("ESCAPED EXCEPTION: " ^ Printexc.to_string e))
  done;
  { transfers = cfg.transfers;
    completed = !completed;
    resumed_completed = !resumed_completed;
    typed_failures = !typed;
    escaped_exceptions = !escaped;
    silent_outcomes = !silent;
    restarts_from_zero = !restarts_zero;
    stale_timers = !stale;
    dedup_violations = !dedup_viol;
    crashes = !crashes;
    resets_while_down = !resets;
    swallowed = !swallowed;
    keepalive_probes = !ka_probes;
    reset_aborts = !reset_aborts;
    reconnects = !reconnects;
    resumes = !resumes;
    dedup_hits = !dedup_hits;
    executions = !executions;
    crc_probes = !crc_probes;
    pool_leaks = !pool_leaks }

let crash_summary_lines o =
  [ Printf.sprintf "transfers             %d" o.transfers;
    Printf.sprintf "byte-exact transfers  %d (%d resumed across a restart)"
      o.completed o.resumed_completed;
    Printf.sprintf "typed outcomes        %d" o.typed_failures;
    Printf.sprintf "escaped exceptions    %d" o.escaped_exceptions;
    Printf.sprintf "silent outcomes       %d%s" o.silent_outcomes
      (if o.silent_outcomes > 0 then "  VIOLATED" else "");
    Printf.sprintf "restarts from zero    %d%s" o.restarts_from_zero
      (if o.restarts_from_zero > 0 then "  VIOLATED" else "");
    Printf.sprintf "stale timers          %d%s" o.stale_timers
      (if o.stale_timers > 0 then "  VIOLATED" else "");
    Printf.sprintf "dedup ledger          %d hits, %d executions, %d violations%s"
      o.dedup_hits o.executions o.dedup_violations
      (if o.dedup_violations > 0 then "  VIOLATED" else "");
    Printf.sprintf "crashes               %d (%d RSTs while down, %d swallowed)"
      o.crashes o.resets_while_down o.swallowed;
    Printf.sprintf "recovery              %d reconnects, %d resumes, %d CRC probes"
      o.reconnects o.resumes o.crc_probes;
    Printf.sprintf "half-open detection   %d keepalive probes, %d reset aborts"
      o.keepalive_probes o.reset_aborts;
    Printf.sprintf "buffer pool           %d leaks%s" o.pool_leaks
      (if o.pool_leaks > 0 then "  VIOLATED" else "") ]

let summary_lines o =
  let l = o.link in
  [ Printf.sprintf "iterations            %d" o.iterations;
    Printf.sprintf "byte-exact transfers  %d" o.completed;
    Printf.sprintf "typed failures        %d" o.failed;
    Printf.sprintf "escaped exceptions    %d" o.escaped_exceptions;
    Printf.sprintf "silent corruptions    %d" o.silent_corruptions;
    Printf.sprintf "wire: %d sent, %d delivered, %d lost (%d burst), %d duplicated"
      l.Link.sent l.Link.delivered l.Link.dropped l.Link.burst_dropped
      l.Link.duplicated;
    Printf.sprintf "wire: %d corrupted, %d truncated, %d padded, %d delay spikes"
      l.Link.corrupted l.Link.truncated l.Link.padded l.Link.delay_spikes;
    Printf.sprintf "tcp:  %d retransmissions, %d replies abandoned"
      o.retransmissions o.replies_abandoned;
    Printf.sprintf "pool: %d leaks%s" o.pool_leaks
      (if o.pool_leaks > 0 then "  VIOLATED" else "");
    "tcp drops: "
    ^ String.concat ", "
        (List.map
           (fun (r, n) -> Printf.sprintf "%s %d" (Socket.drop_reason_to_string r) n)
           o.drops) ]
