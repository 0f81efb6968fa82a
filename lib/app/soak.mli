(** The chaos soak harness.

    Drives many randomized file transfers — cycling through both ILP
    modes, both backends, all four ciphers and both header styles — each
    under a freshly drawn adversarial impairment configuration (loss,
    bursts, corruption, truncation, padding, duplication, reordering,
    delay spikes), and checks the robustness invariant on every one:

    {e the file arrives byte-exact, or the transfer fails with a typed
    error — never silent corruption, never an escaped exception.}

    Everything is derived from [config.seed], so a failing iteration can
    be replayed exactly.  All three soaks wire their worlds with {!World}
    and pass each [log] line [~violation:true] exactly when the line
    counts an invariant violation. *)

type config = {
  seed : int;
  iterations : int;
  file_len : int;
  copies : int;
  max_reply : int;
  machine : Ilp_memsim.Config.t;
  intensity : float;  (** scales all impairment rates; 1.0 = full chaos *)
  deadline_us : float;  (** virtual-time budget per transfer *)
}

(** 512 iterations of a 512-byte file in 256-byte messages on the SS10/30
    model at full intensity. *)
val default_config : config

type outcome = {
  iterations : int;
  completed : int;
  failed : int;
      (** transfers that ended with a typed error (expected under
          impairment) *)
  escaped_exceptions : int;
      (** invariant violation: an exception crossed the stack *)
  silent_corruptions : int;
      (** invariant violation: reported success without byte-exact
          delivery, or failure with no typed error *)
  retransmissions : int;
  checksum_drops : int;
  replies_abandoned : int;
  drops : (Ilp_tcp.Socket.drop_reason * int) list;
  link : Ilp_netsim.Link.stats;
  pool_leaks : int;
      (** invariant violation: buffers still outstanding from any
          iteration's pool after engine teardown *)
}

(** Zero escaped exceptions, zero silent corruptions, zero pool leaks. *)
val invariants_hold : outcome -> bool

(** [run ?log cfg] executes the soak; [log] receives one line per
    noteworthy iteration (typed failures and any invariant violation).
    Raises [Invalid_argument] on an out-of-range config (negative
    iterations, intensity outside [0, 10], non-positive sizes or
    deadline). *)
val run : ?log:(violation:bool -> string -> unit) -> config -> outcome

(** Human-readable ledger of the whole run. *)
val summary_lines : outcome -> string list

(** {2 Overload soak}

    Many concurrent clients with mixed personas against one shared
    multi-connection server, exercising admission control, load shedding
    and the zero-window persist machinery.  The graceful-degradation
    invariant: every request ends in byte-exact delivery or a typed
    outcome (client- or server-side), honest clients always complete,
    queue budgets are never exceeded, and every shed appears both in the
    server's ledger and as a typed client-visible reply. *)

type persona =
  | Honest  (** requests the file and reads replies promptly *)
  | Slow_reader
      (** advertises a zero receive window at first, reopens mid-run: the
          server's persist probes must discover the reopening and the
          transfer must still complete *)
  | Dead_reader
      (** never reopens its window: the server must abort the connection
          [Peer_stalled], abandon its queue and free the admission slot *)
  | Oversized
      (** requests more than the per-connection byte budget could ever
          hold: permanently refused *)
  | Streaming
      (** data connection MSS smaller than one reply, so every reply is
          segmented and pipelined through [Socket.send_stream]; must still
          complete byte-exact *)
  | Shrinking_window
      (** shrinks its advertised window below the sender's bytes in
          flight mid-transfer, reopens later; the clamped send window
          must recover the transfer *)
  | Lying_receiver
      (** reads honestly, but its NIC forges the feedback channel: every
          pure ack gains a SACK block for data the server never sent and
          is duplicated (dupack forgery).  The server must reject every
          forged block — counted in [Socket.stats.sack_invalid] — and
          the transfer must still complete byte-exact *)

val persona_name : persona -> string

(** Clients are assigned personas by cycling this 8-entry pattern
    (1 honest, 2 slow readers, 1 streaming, 1 shrinking-window, 1 dead
    reader, 1 oversized, 1 lying receiver). *)
val persona_pattern : persona array

type overload_config = {
  seed : int;
  clients : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
  deadline_us : float;  (** virtual-time budget for the whole soak *)
}

(** 8 clients around a 2 kB file on the SS10/30 model. *)
val default_overload_config : overload_config

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
      (** invariant violation: the server's shed ledger does not equal the
          typed shed outcomes the clients observed *)
  peak_queued_bytes : int;
  queue_cap : int;
  busy_replies : int;
  client_retries : int;
  persist_probes : int;
  peer_stalled_aborts : int;
  replies_abandoned : int;
  forged_acks : int;
      (** datagrams the lying receivers' NICs rewrote ([Link.stats.tampered]) *)
  forged_rejections : int;
      (** forged SACK blocks the server rejected plus typed
          [Misbehaving_peer] aborts, summed over the lying receivers *)
  forgery_unpunished : bool;
      (** invariant violation: feedback was forged but the server neither
          rejected a block nor aborted the peer *)
  sheds : (Ilp_rpc.Server.shed_reason * int) list;
  pool_leaks : int;
      (** invariant violation: buffers outstanding from the run's shared
          pool after every engine was destroyed *)
}

(** No escaped exceptions, no silent outcomes, no incomplete honest
    client, budgets respected, ledger consistent, pool balanced. *)
val overload_invariants_hold : overload_outcome -> bool

(** [run_overload ?log ?on_clock cfg] builds one shared world — one
    server, [clients] concurrent connection pairs — staggers every
    client's request, drives the simulated clock until all clients
    settle (or [deadline_us]), and classifies each.  [log] receives one
    verdict line per client.  [on_clock] receives the world's shared
    [Simclock] after setup has drained and before the requests are
    scheduled — the telemetry sampler attaches its periodic tick there.
    Raises [Invalid_argument] on an out-of-range config. *)
val run_overload :
  ?log:(violation:bool -> string -> unit) ->
  ?on_clock:(Ilp_netsim.Simclock.t -> unit) ->
  overload_config ->
  overload_outcome

val overload_summary_lines : overload_outcome -> string list

(** {2 Crash soak}

    Seeded node crash/restart faults against single transfers: a
    {!Ilp_netsim.Crashplan} kills the server host mid-transfer (on a
    timed schedule or its Nth received packet; the dead address either
    answers RST or black-holes), restarts it after a seeded downtime,
    and a recovery supervisor hands the client fresh connections to
    resume over.  The fault-model invariant, per seed:

    {e the file arrives byte-exact — possibly resumed across restarts
    from a CRC-verified prefix, never from byte zero — or the client
    holds a typed failure; every crash teardown leaves zero owned
    timers; the at-most-once dedup ledger and the buffer pool balance.} *)

type crash_config = {
  seed : int;
  transfers : int;  (** independent seeded crash/restart transfers *)
  file_len : int;
  machine : Ilp_memsim.Config.t;
  deadline_us : float;  (** virtual-time budget per transfer *)
}

(** 64 transfers of a 2 kB file on the SS10/30 model. *)
val default_crash_config : crash_config

type crash_outcome = {
  transfers : int;
  completed : int;
  resumed_completed : int;
      (** completed byte-exact after at least one reconnect *)
  typed_failures : int;
  escaped_exceptions : int;
      (** invariant violation: an exception crossed the stack *)
  silent_outcomes : int;
      (** invariant violation: a transfer ended neither complete nor
          typed within the deadline — a crash that was never surfaced *)
  restarts_from_zero : int;
      (** invariant violation: a resume re-started from byte zero while
          a verified prefix existed *)
  stale_timers : int;
      (** invariant violation: owned timers still pending after a crash
          teardown (server shutdown, socket destroy, or plan stop) *)
  dedup_violations : int;
      (** invariant violation: [executions + dedup_hits + dedup_sheds
          <> id_requests_seen] on some iteration's store *)
  crashes : int;
  resets_while_down : int;  (** RSTs the dead address answered with *)
  swallowed : int;  (** datagrams that died with the host *)
  keepalive_probes : int;
  reset_aborts : int;  (** sockets aborted [Connection_reset] *)
  reconnects : int;
  resumes : int;  (** resume requests actually sent *)
  dedup_hits : int;
  executions : int;
  crc_probes : int;  (** CRC prefix probes the servers answered *)
  pool_leaks : int;
      (** invariant violation: buffers outstanding after teardown *)
}

(** No escaped exceptions, no silent outcomes, no restart-from-zero, no
    stale timers, dedup ledger conserved, pool balanced. *)
val crash_invariants_hold : crash_outcome -> bool

(** [run_crash ?log cfg] executes [cfg.transfers] independent seeded
    crash/restart transfers; [log] receives one verdict line per
    transfer.  Raises [Invalid_argument] on an out-of-range config. *)
val run_crash :
  ?log:(violation:bool -> string -> unit) -> crash_config -> crash_outcome

val crash_summary_lines : crash_outcome -> string list
