(** The soak harnesses: many transfers or clients under one fault
    family each, every one judged byte-exact-or-typed.

    The chaos soak ({!run}) drives many randomized file transfers —
    cycling through both ILP modes, both backends, all four ciphers and
    both header styles — each under a freshly drawn adversarial
    impairment configuration (loss, bursts, corruption, truncation,
    padding, duplication, reordering, delay spikes), and checks the
    robustness invariant on every one:

    {e the file arrives byte-exact, or the transfer fails with a typed
    error — never silent corruption, never an escaped exception.}

    Everything is derived from [config.seed], so a failing iteration can
    be replayed exactly.  All three soaks wire their worlds with {!World},
    judge every transfer or client by {!World.verdict}, and pass each
    [log] line [~violation:true] exactly when the line counts an
    invariant violation.  They keep one ledger: the counter delta of
    {!Ilp_obs.Metrics.default} around the run, which every count a
    summary prints reads. *)

type config = {
  seed : int;
  iterations : int;
  file_len : int;  (** one copy per transfer, in 256-byte replies *)
  machine : Ilp_memsim.Config.t;
  intensity : float;  (** scales all impairment rates; 1.0 = full chaos *)
}

(** 512 iterations of a 512-byte file in 256-byte messages on the SS10/30
    model at full intensity.  Each transfer has 120 s of virtual time. *)
val default_config : config

(** The verdict tally every soak keeps. *)
type tally = {
  runs : int;  (** transfers or clients *)
  byte_exact : int;
  typed : int;
      (** ended with a typed client, server or setup failure (expected
          under faults) *)
  silent : int;
      (** invariant violation: complete without byte-exact delivery, or
          neither complete nor typed *)
  escaped : int;  (** invariant violation: an exception crossed the stack *)
  pool_leaks : int;
      (** invariant violation: buffers still outstanding from a pool
          after engine teardown *)
  delta : Ilp_obs.Metrics.snapshot;
      (** the counters {!Ilp_obs.Metrics.default} gained during the run *)
}

(** [counter t name] is [name]'s delta over the run (0 if absent). *)
val counter : tally -> string -> int

(** Zero escaped exceptions, zero silent outcomes, zero pool leaks: the
    chaos soak's invariant, and part of the other two. *)
val invariants_hold : tally -> bool

(** [run ?log cfg] executes the chaos soak; [log] receives one line per
    noteworthy iteration (typed failures and any invariant violation).
    Raises [Invalid_argument] on an out-of-range config (negative
    iterations, intensity outside [0, 10], a non-positive file length). *)
val run : ?log:(violation:bool -> string -> unit) -> config -> tally

(** Human-readable ledger of the whole run. *)
val summary_lines : tally -> string list

(** {2 Overload soak}

    Many concurrent clients with mixed personas against one shared
    multi-connection server, exercising admission control, load shedding
    and the zero-window persist machinery.  The graceful-degradation
    invariant: every request ends in byte-exact delivery or a typed
    outcome (client- or server-side), honest clients always complete,
    queue budgets are never exceeded, and every shed appears both in the
    server's ledger and as a typed client-visible reply. *)

(** Clients are assigned personas by cycling an 8-entry pattern: 1
    honest, 2 slow readers, 1 streaming, 1 shrinking-window, 1 dead
    reader, 1 oversized, 1 lying receiver. *)
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
          forged block — counted in [tcp.sack_invalid] — and the
          transfer must still complete byte-exact *)

type overload_config = {
  seed : int;
  clients : int;
  file_len : int;
  machine : Ilp_memsim.Config.t;
}

(** 8 clients around a 2 kB file on the SS10/30 model.  The whole soak
    has 30 s of virtual time. *)
val default_overload_config : overload_config

type overload_outcome = {
  tally : tally;  (** one run per client *)
  honest_incomplete : int;
      (** invariant violation: a client whose persona must complete did
          not finish byte-exact *)
  budget_violations : int;
      (** invariant violation: peak queued bytes exceeded the global cap *)
  ledger_mismatch : bool;
      (** invariant violation: the sheds ([rpc.shed.*]) do not equal the
          busy replies, the refusals the clients saw and the statuses
          abandoned with their connection *)
  peak_queued_bytes : int;
  queue_cap : int;
  forgery_unpunished : bool;
      (** invariant violation: feedback was forged ([link.tampered]) but
          the server neither rejected a block ([tcp.sack_invalid]) nor
          aborted the peer ([tcp.abort.misbehaving_peer]) *)
}

(** {!invariants_hold}, no incomplete honest client, budgets respected,
    ledger consistent, no forgery unpunished. *)
val overload_invariants_hold : overload_outcome -> bool

(** [run_overload ?log ?on_clock cfg] builds one shared world — one
    server, [clients] concurrent connection pairs — staggers every
    client's request, drives the simulated clock until all clients
    settle (or the virtual-time budget ends), and classifies each.
    [log] receives one verdict line per client.  [on_clock] receives the
    world's shared [Simclock] after setup has drained and before the
    requests are scheduled — the telemetry sampler attaches its periodic
    tick there.  Raises [Invalid_argument] on an out-of-range config. *)
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
}

(** 64 transfers of a 2 kB file on the SS10/30 model.  Each transfer has
    30 s of virtual time. *)
val default_crash_config : crash_config

type crash_outcome = {
  tally : tally;  (** one run per transfer *)
  resumed_completed : int;
      (** completed byte-exact after at least one reconnect *)
  restarts_from_zero : int;
      (** invariant violation: a resume re-started from byte zero while
          a verified prefix existed *)
  stale_timers : int;
      (** invariant violation: owned timers still pending after a crash
          teardown (server shutdown, socket destroy, or plan stop) *)
  dedup_violations : int;
      (** invariant violation: [executions + dedup_hits + dedup_sheds
          <> id_requests_seen] on some iteration's store *)
}

(** {!invariants_hold}, no restart-from-zero, no stale timers, dedup
    ledger conserved. *)
val crash_invariants_hold : crash_outcome -> bool

(** [run_crash ?log cfg] executes [cfg.transfers] independent seeded
    crash/restart transfers; [log] receives one verdict line per
    transfer.  Raises [Invalid_argument] on an out-of-range config. *)
val run_crash :
  ?log:(violation:bool -> string -> unit) -> crash_config -> crash_outcome

val crash_summary_lines : crash_outcome -> string list
