module Link = Ilp_netsim.Link
module Simclock = Ilp_netsim.Simclock
module Crashplan = Ilp_netsim.Crashplan
module Xorshift = Ilp_netsim.Xorshift
module Datagram = Ilp_netsim.Datagram
module Ipv4 = Ilp_netsim.Ipv4
module Socket = Ilp_tcp.Socket
module Tcp_header = Ilp_tcp.Tcp_header
module Engine = Ilp_core.Engine
module Rpc_server = Ilp_rpc.Server
module Rpc_client = Ilp_rpc.Client
module Ft = File_transfer
module M = Ilp_obs.Metrics

(* Soak schedules draw from their own seeded stream, never the link's. *)
let prng_create seed = Xorshift.create (seed * 0x9e3779b1)

type config = {
  seed : int;
  iterations : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
  intensity : float;
}

let default_config =
  { seed = 1;
    iterations = 512;
    file_len = 512;
    machine = Ilp_memsim.Config.ss10_30;
    intensity = 1.0 }

type tally = {
  runs : int;
  byte_exact : int;
  typed : int;
  silent : int;
  escaped : int;
  pool_leaks : int;
  delta : M.snapshot;
}

let counter t name =
  match M.find t.delta name with Some (M.Counter n) -> n | _ -> 0

let invariants_hold t = t.escaped = 0 && t.silent = 0 && t.pool_leaks = 0

(* How one transfer or client ended. *)
type ending = Exact | Typed | Silent | Escaped

(* [runs] endings and the counters the registry gained since [before]. *)
let tally ~runs ~before endings ~pool_leaks =
  let n e = List.length (List.filter (( = ) e) endings) in
  { runs;
    byte_exact = n Exact;
    typed = n Typed;
    silent = n Silent;
    escaped = n Escaped;
    pool_leaks;
    delta =
      List.filter
        (function _, M.Counter _ -> true | _ -> false)
        (M.diff (M.snapshot M.default) before) }

(* The ending a {!World.verdict} counts as, and the line that names it;
   [exact] is the soak's own byte count of a [Complete]. *)
let judge ~exact = function
  | World.Complete when exact -> (Exact, "completed byte-exact")
  | World.Complete ->
      (Silent, "SILENT CORRUPTION: complete without byte-exact delivery")
  | World.Typed t -> (Typed, t)
  | World.Silent -> (Silent, "SILENT: neither complete nor typed")

let ciphers = Array.of_list Ft.ciphers

(* Draw one randomized impairment configuration.  Rates are scaled by
   [intensity]; every draw comes from the soak's own seeded stream, so a
   soak run is exactly reproducible from its seed. *)
let draw_impairments st ~intensity =
  (* Clamped so any intensity in Soak.run's accepted range still yields a
     valid probability. *)
  let r scale = min 1.0 (scale *. Xorshift.float st *. intensity) in
  let gilbert =
    if Xorshift.float st < 0.35 then
      Some
        { Link.p_enter_bad = min 1.0 (0.02 +. r 0.05);
          p_exit_bad = 0.25;
          loss_in_bad = min 1.0 (0.4 +. r 0.4) }
    else None
  in
  { Link.delay_us = 20.0 +. (80.0 *. Xorshift.float st);
    jitter_us =
      (if Xorshift.float st < 0.5 then 0.0 else 200.0 *. Xorshift.float st);
    loss_rate = r 0.15;
    dup_rate = r 0.1;
    corrupt_rate = r 0.2;
    corrupt_bits = 1 + Xorshift.int st 4;
    truncate_rate = r 0.06;
    pad_rate = r 0.06;
    pad_max = 12;
    delay_spike_rate = r 0.04;
    delay_spike_us = 2_000.0;
    gilbert }

(* One transfer under one impairment draw, judged by its
   [World.verdict].  The soak invariant: the file arrives byte-exact, or
   the run reports a typed error — never silent corruption, never an
   escaped exception. *)
let run ?(log = fun ~violation:_ _ -> ()) (cfg : config) =
  if cfg.iterations < 0 then invalid_arg "Soak.run: iterations must be >= 0";
  if cfg.intensity < 0.0 || cfg.intensity > 10.0 then
    invalid_arg "Soak.run: intensity must be in [0, 10]";
  if cfg.file_len <= 0 then invalid_arg "Soak.run: file_len must be positive";
  let st = prng_create cfg.seed in
  let before = M.snapshot M.default in
  let endings = ref [] and pool_leaks = ref 0 in
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
        copies = 1;
        max_reply = 256;
        seed = (cfg.seed * 7919) + i;
        impairments = Some imp;
        deadline_us = 120_000_000.0 }
    in
    let tag verdict =
      Printf.sprintf "iter %4d  %-8s %-7s %-16s %-6s %-6s %s" i
        (match mode with Engine.Ilp -> "ilp" | Engine.Separate -> "separate")
        (if native then "native" else "sim")
        (Ft.cipher_name cipher)
        (if crc then "crc32" else "-")
        (if framing then "framed" else "-")
        verdict
    in
    let ending =
      match Ft.run setup with
      | r ->
          if r.Ft.pool_leaks <> 0 then begin
            pool_leaks := !pool_leaks + r.Ft.pool_leaks;
            log ~violation:true
              (tag (Printf.sprintf "POOL LEAK: %d buffers outstanding" r.Ft.pool_leaks))
          end;
          let ending, line =
            judge ~exact:(r.Ft.payload_bytes = cfg.file_len) r.Ft.verdict
          in
          if ending <> Exact then log ~violation:(ending = Silent) (tag line);
          ending
      | exception e ->
          log ~violation:true (tag ("ESCAPED EXCEPTION: " ^ Printexc.to_string e));
          Escaped
    in
    endings := ending :: !endings
  done;
  tally ~runs:cfg.iterations ~before !endings ~pool_leaks:!pool_leaks

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
}

let default_overload_config =
  { seed = 1; clients = 8; file_len = 2048; machine = Ilp_memsim.Config.ss10_30 }

type overload_outcome = {
  tally : tally;
  honest_incomplete : int;
  budget_violations : int;
  ledger_mismatch : bool;
  peak_queued_bytes : int;
  queue_cap : int;
  forgery_unpunished : bool;
}

let overload_invariants_hold o =
  invariants_hold o.tally && o.honest_incomplete = 0
  && o.budget_violations = 0
  && (not o.ledger_mismatch)
  && not o.forgery_unpunished

(* Forged feedback must leave a trace: SACK blocks rejected by the
   server's validator, or (for optimistic-ack forgeries) a typed
   [Misbehaving_peer] abort.  Only the lying receivers' NICs tamper. *)
let forged_acks t = counter t "link.tampered"

let forged_rejections t =
  counter t "tcp.sack_invalid" + counter t "tcp.abort.misbehaving_peer"

let sheds t =
  List.map
    (fun r -> (r, counter t ("rpc.shed." ^ Rpc_server.shed_reason_to_string r)))
    Rpc_server.shed_reasons

type overload_client = {
  idx : int;
  persona : persona;
  client : Rpc_client.t;
  conn : World.conn;
  mutable local_refused : bool;
}

let run_overload ?(log = fun ~violation:_ _ -> ()) ?on_clock (cfg : overload_config) =
  if cfg.clients < 1 then invalid_arg "Soak.run_overload: clients must be >= 1";
  if cfg.file_len < 64 then invalid_arg "Soak.run_overload: file_len must be >= 64";
  let max_reply = max 64 (cfg.file_len / 8) in
  let limits =
    { Rpc_server.max_connections = cfg.clients + 2;
      max_conn_queue_bytes = 2 * cfg.file_len;
      (* Tight enough that concurrent honest requests contend and the
         Busy/retry path actually runs. *)
      max_total_queue_bytes = cfg.file_len * ((cfg.clients / 4) + 1);
      max_request_age_us = 60_000_000.0 }
  in
  let queue_cap = limits.Rpc_server.max_total_queue_bytes in
  let before = M.snapshot M.default in
  match
    (* The lying receivers' data ports (their acks travel cli_data ->
       srv_data), filled in as each client is connected: no cli_data
       socket sends before the clock runs. *)
    let liar_ports = Hashtbl.create 4 in
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
    let w =
      World.create cfg.machine ~link:(fun clock ~deliver ->
          Link.create clock ~delay_us:30.0 ~seed:cfg.seed ~tamper:forge_ack
            ~deliver ())
    in
    let sim = World.sim w and clock = World.clock w in
    let key = "soakOVRL" in
    (* The server and every client engine share the world's pool. *)
    let engine () =
      World.engine w (fun sim ~pool ->
          Engine.create sim
            ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
            ~mode:Engine.Ilp ~crc32:true ~pool ())
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
    let clients =
      List.init cfg.clients (fun i ->
          let persona = persona_pattern.(i mod Array.length persona_pattern) in
          (* Streaming clients force segment streaming: the data MSS is
             well below one reply's wire length, so the server's replies
             go out through [Socket.send_stream] as pipelined TPDUs. *)
          let data =
            match persona with
            | Streaming -> Some { cfg_sock with Socket.mss = 96 }
            | Honest | Slow_reader | Dead_reader | Oversized
            | Shrinking_window | Lying_receiver ->
                None
          in
          let c = World.connect w server ?data cfg_sock ~base:(1000 + (4 * i)) in
          if persona = Lying_receiver then
            Hashtbl.replace liar_ports (Socket.local_port c.World.cli_data) ();
          (* Slow and dead readers advertise a zero receive window from
             the start; slow ones reopen later, dead ones never do. *)
          (match persona with
          | Slow_reader | Dead_reader ->
              Socket.set_advertised_window c.World.cli_data 0
          | Honest | Oversized | Streaming | Shrinking_window
          | Lying_receiver ->
              ());
          (* Streaming personas also negotiate the v2 framed receive, so
             the overload soak drives final-placement reassembly through
             small-MSS pipelining, forged feedback and window games. *)
          let client =
            Rpc_client.create ~clock ~retry ~seed:(cfg.seed + i)
              ~framed:(persona = Streaming)
              ~engine:(engine ()) ~ctrl:c.World.cli_ctrl ~data:c.World.cli_data ()
          in
          { idx = i; persona; client; conn = c; local_refused = false })
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
                   Socket.set_advertised_window c.conn.World.cli_data
                     cfg_sock.Socket.recv_window))
        | Shrinking_window ->
            (* Shrink below the sender's likely bytes in flight while the
               transfer is in full swing, then reopen.  The clamped
               send-window arithmetic must park the sender (no crash, no
               byte past the shrunken edge) and resume it on reopen. *)
            ignore
              (Simclock.schedule clock
                 ~after:(30_000.0 +. (11_000.0 *. float_of_int c.idx))
                 (fun () -> Socket.set_advertised_window c.conn.World.cli_data 64));
            ignore
              (Simclock.schedule clock
                 ~after:(400_000.0 +. (29_000.0 *. float_of_int c.idx))
                 (fun () ->
                   Socket.set_advertised_window c.conn.World.cli_data
                     cfg_sock.Socket.recv_window))
        | Honest | Dead_reader | Oversized | Streaming | Lying_receiver -> ())
      clients;
    let verdict c = World.verdict ~refused:c.local_refused ~conn:c.conn c.client in
    let guard = ref 400_000 in
    while
      List.exists (fun c -> verdict c = World.Silent) clients
      && Simclock.now clock < 30_000_000.0
      && !guard > 0
    do
      decr guard;
      Simclock.advance clock 1_000.0
    done;
    Simclock.run_until_idle clock;
    let judged =
      List.map
        (fun c ->
          let ending, line = judge ~exact:true (verdict c) in
          let incomplete = persona_must_complete c.persona && ending <> Exact in
          log
            ~violation:(incomplete || ending = Silent)
            (Printf.sprintf "client %2d  %-11s %s  (busy %d, retries %d)" c.idx
               (persona_name c.persona) line
               (Rpc_client.busy_replies c.client)
               (Rpc_client.retries c.client));
          (ending, incomplete))
        clients
    in
    let refused =
      List.length (List.filter (fun c -> Rpc_client.rejected c.client) clients)
    in
    let peak = Rpc_server.peak_queued_bytes server in
    let t =
      tally ~runs:cfg.clients ~before (List.map fst judged)
        ~pool_leaks:(World.pool_leaks w)
    in
    { tally = t;
      honest_incomplete = List.length (List.filter snd judged);
      budget_violations = (if peak > queue_cap then 1 else 0);
      (* Every shed must be accounted for: seen by a client as Busy or a
         refusal, or attributably lost because the shed connection itself
         died before the status could be delivered. *)
      ledger_mismatch =
        List.fold_left (fun a (_, n) -> a + n) 0 (sheds t)
        <> counter t "rpc.client.busy_replies" + refused
           + counter t "rpc.statuses_abandoned";
      peak_queued_bytes = peak;
      queue_cap;
      forgery_unpunished = forged_acks t > 0 && forged_rejections t = 0 }
  with
  | o -> o
  | exception (Invalid_argument _ as e) -> raise e
  | exception e ->
      log ~violation:true ("ESCAPED EXCEPTION: " ^ Printexc.to_string e);
      { tally = tally ~runs:cfg.clients ~before [ Escaped ] ~pool_leaks:0;
        honest_incomplete = 0;
        budget_violations = 0;
        ledger_mismatch = false;
        peak_queued_bytes = 0;
        queue_cap;
        forgery_unpunished = false }

let overload_summary_lines o =
  let t = o.tally in
  [ Printf.sprintf "clients               %d" t.runs;
    Printf.sprintf "byte-exact transfers  %d" t.byte_exact;
    Printf.sprintf "typed outcomes        %d" t.typed;
    Printf.sprintf "escaped exceptions    %d" t.escaped;
    Printf.sprintf "silent outcomes       %d" t.silent;
    Printf.sprintf "honest incomplete     %d" o.honest_incomplete;
    Printf.sprintf "queued bytes          peak %d of cap %d%s" o.peak_queued_bytes
      o.queue_cap
      (if o.budget_violations > 0 then "  VIOLATED" else "");
    Printf.sprintf "shedding              %d busy replies, %d client retries%s"
      (counter t "rpc.client.busy_replies")
      (counter t "rpc.client.retries")
      (if o.ledger_mismatch then "  LEDGER MISMATCH" else "");
    "shed ledger:          "
    ^ String.concat ", "
        (List.map
           (fun (r, n) ->
             Printf.sprintf "%s %d" (Rpc_server.shed_reason_to_string r) n)
           (sheds t));
    Printf.sprintf "zero-window           %d persist probes, %d peer-stalled aborts"
      (counter t "tcp.persist_probes")
      (counter t "tcp.abort.peer_stalled");
    Printf.sprintf "lying receivers       %d forged acks, %d rejections%s"
      (forged_acks t) (forged_rejections t)
      (if o.forgery_unpunished then "  UNPUNISHED" else "");
    Printf.sprintf "server                %d replies abandoned"
      (counter t "rpc.replies_abandoned");
    Printf.sprintf "buffer pool           %d leaks%s" t.pool_leaks
      (if t.pool_leaks > 0 then "  VIOLATED" else "") ]

(* ------------------------------------------------------------------ *)
(* Crash soak: seeded node crash/restart faults against one transfer *)

type crash_config = {
  seed : int;
  transfers : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
}

let default_crash_config =
  { seed = 1; transfers = 64; file_len = 2048; machine = Ilp_memsim.Config.ss10_30 }

type crash_outcome = {
  tally : tally;
  resumed_completed : int;
  restarts_from_zero : int;
  stale_timers : int;
  dedup_violations : int;
}

let crash_invariants_hold o =
  invariants_hold o.tally && o.restarts_from_zero = 0 && o.stale_timers = 0
  && o.dedup_violations = 0

(* One transfer against a server that dies and comes back on a seeded
   schedule.  The fault-model invariant, per seed: the file arrives
   byte-exact (possibly resumed across restarts) or the client holds a
   typed failure — a crash never ends in a silent hang; a resume never
   restarts from byte zero when a verified prefix exists; the dedup
   ledger and the buffer pool balance; every crash teardown leaves zero
   owned timers on the clock. *)
let run_crash ?(log = fun ~violation:_ _ -> ()) (cfg : crash_config) =
  if cfg.transfers < 0 then
    invalid_arg "Soak.run_crash: transfers must be >= 0";
  if cfg.file_len < 64 then
    invalid_arg "Soak.run_crash: file_len must be >= 64";
  let st = prng_create cfg.seed in
  let before = M.snapshot M.default in
  let endings = ref []
  and resumed_completed = ref 0
  and restarts_zero = ref 0
  and stale = ref 0
  and dedup_viol = ref 0
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
    let on_packet = Xorshift.float st < 0.7 in
    let trigger_n = 5 + Xorshift.int st 10 in
    let down_us = 4_000.0 +. (26_000.0 *. Xorshift.float st) in
    let max_crashes = 1 + Xorshift.int st 2 in
    let rst_while_down = Xorshift.float st < 0.5 in
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
    let zero_before = !restarts_zero in
    match
      let w =
        World.create cfg.machine ~link:(fun clock ~deliver ->
            Link.create clock ~delay_us:40.0 ~seed:(cfg.seed + i) ~deliver ())
      in
      let sim = World.sim w and clock = World.clock w in
      let engine () =
        World.engine w (fun sim ~pool ->
            Engine.create sim
              ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key:"soakCRSH" ())
              ~mode ~crc32:crc ~pool ())
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
      let stale_here = ref 0 in
      let kill () =
        (match !server with
        | Some s ->
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
               Crashplan.Respond
                 { reply = Socket.reset_for; send = World.wire_out w }
             else Crashplan.Blackhole)
          ~kill ~revive ()
      in
      let all_socks = ref [] in
      let gen = ref 0 in
      (* The server host's two ports die and come back with it. *)
      let guard role s =
        match role with
        | World.Srv_ctrl | World.Srv_data ->
            Crashplan.guard plan ~deliver:(Socket.handle_datagram s)
        | World.Cli_ctrl | World.Cli_data -> Socket.handle_datagram s
      in
      (* Stand up one connection generation: fresh ports both sides, the
         pair attached to the current server instance. *)
      let establish () =
        let base = 1000 + (4 * !gen) in
        incr gen;
        let c =
          World.connect w (Option.get !server) ~rx:guard cfg_sock ~base
        in
        srv_socks := [ c.World.srv_ctrl; c.World.srv_data ];
        all_socks :=
          c.World.srv_ctrl :: c.World.cli_ctrl :: c.World.srv_data
          :: c.World.cli_data :: !all_socks;
        (c.World.cli_ctrl, c.World.cli_data)
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
        && Simclock.now clock < 30_000_000.0
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
      Option.iter Rpc_server.shutdown !server;
      List.iter
        (fun s -> if not (Socket.destroyed s) then Socket.destroy s)
        !all_socks;
      Simclock.run_until_idle clock;
      let ending, line =
        judge
          ~exact:(Rpc_client.bytes_received client = copies * cfg.file_len)
          (World.verdict ~refused:!local_refused client)
      in
      let line =
        if ending = Exact && Rpc_client.reconnects client > 0 then begin
          incr resumed_completed;
          "completed byte-exact (resumed)"
        end
        else line
      in
      if
        Rpc_server.executions store + Rpc_server.dedup_hits store
        + Rpc_server.dedup_sheds store
        <> Rpc_server.id_requests_seen store
      then begin
        incr dedup_viol;
        log ~violation:true (tag "DEDUP LEDGER MISMATCH")
      end;
      if !stale_here > 0 then begin
        stale := !stale + !stale_here;
        log ~violation:true
          (tag (Printf.sprintf "STALE TIMERS: %d owners" !stale_here))
      end;
      let leaked = World.pool_leaks w in
      if leaked <> 0 then begin
        pool_leaks := !pool_leaks + leaked;
        log ~violation:true
          (tag (Printf.sprintf "POOL LEAK: %d buffers outstanding" leaked))
      end;
      (* A resume from byte zero is counted by the supervisor above; this
         transfer's verdict line is the one that names it. *)
      log ~violation:(ending = Silent || !restarts_zero > zero_before) (tag line);
      endings := ending :: !endings
    with
    | () -> ()
    | exception (Invalid_argument _ as e) -> raise e
    | exception e ->
        endings := Escaped :: !endings;
        log ~violation:true (tag ("ESCAPED EXCEPTION: " ^ Printexc.to_string e))
  done;
  { tally = tally ~runs:cfg.transfers ~before !endings ~pool_leaks:!pool_leaks;
    resumed_completed = !resumed_completed;
    restarts_from_zero = !restarts_zero;
    stale_timers = !stale;
    dedup_violations = !dedup_viol }

let crash_summary_lines o =
  let t = o.tally in
  [ Printf.sprintf "transfers             %d" t.runs;
    Printf.sprintf "byte-exact transfers  %d (%d resumed across a restart)"
      t.byte_exact o.resumed_completed;
    Printf.sprintf "typed outcomes        %d" t.typed;
    Printf.sprintf "escaped exceptions    %d" t.escaped;
    Printf.sprintf "silent outcomes       %d%s" t.silent
      (if t.silent > 0 then "  VIOLATED" else "");
    Printf.sprintf "restarts from zero    %d%s" o.restarts_from_zero
      (if o.restarts_from_zero > 0 then "  VIOLATED" else "");
    Printf.sprintf "stale timers          %d%s" o.stale_timers
      (if o.stale_timers > 0 then "  VIOLATED" else "");
    Printf.sprintf "dedup ledger          %d hits, %d executions, %d violations%s"
      (counter t "rpc.server.dedup_hits")
      (counter t "rpc.server.executions")
      o.dedup_violations
      (if o.dedup_violations > 0 then "  VIOLATED" else "");
    Printf.sprintf "crashes               %d (%d RSTs while down, %d swallowed)"
      (counter t "netsim.crashes")
      (counter t "netsim.crash_resets")
      (counter t "netsim.crash_swallowed");
    Printf.sprintf "recovery              %d reconnects, %d resumes, %d CRC probes"
      (counter t "rpc.client.reconnects")
      (counter t "rpc.client.resumes")
      (counter t "rpc.server.probes");
    Printf.sprintf "half-open detection   %d keepalive probes, %d reset aborts"
      (counter t "tcp.keepalive_probes")
      (counter t "tcp.abort.connection_reset");
    Printf.sprintf "buffer pool           %d leaks%s" t.pool_leaks
      (if t.pool_leaks > 0 then "  VIOLATED" else "") ]

let summary_lines t =
  let n = counter t in
  [ Printf.sprintf "iterations            %d" t.runs;
    Printf.sprintf "byte-exact transfers  %d" t.byte_exact;
    Printf.sprintf "typed failures        %d" t.typed;
    Printf.sprintf "escaped exceptions    %d" t.escaped;
    Printf.sprintf "silent corruptions    %d" t.silent;
    Printf.sprintf "wire: %d sent, %d delivered, %d lost (%d burst), %d duplicated"
      (n "link.sent") (n "link.delivered") (n "link.dropped")
      (n "link.burst_dropped") (n "link.duplicated");
    Printf.sprintf "wire: %d corrupted, %d truncated, %d padded, %d delay spikes"
      (n "link.corrupted") (n "link.truncated") (n "link.padded")
      (n "link.delay_spikes");
    Printf.sprintf "tcp:  %d retransmissions, %d replies abandoned"
      (n "tcp.retransmissions") (n "rpc.replies_abandoned");
    Printf.sprintf "pool: %d leaks%s" t.pool_leaks
      (if t.pool_leaks > 0 then "  VIOLATED" else "");
    "tcp drops: "
    ^ String.concat ", "
        (List.map
           (fun r ->
             let r = Socket.drop_reason_to_string r in
             Printf.sprintf "%s %d" r (n ("tcp.drop." ^ r)))
           Socket.drop_reasons) ]
