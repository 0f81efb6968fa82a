(** The soak harness: many transfers or clients under one fault family,
    every one judged byte-exact-or-typed, by one driver ({!run}) and one
    {!verdict}.

    A {!config} names the family:

    - {b Chaos} drives many randomized file transfers — cycling through
      both ILP modes, both backends, all four ciphers and both header
      styles — each under a freshly drawn adversarial impairment
      configuration (loss, bursts, corruption, truncation, padding,
      duplication, reordering, delay spikes), and checks the robustness
      invariant on every one:

      {e the file arrives byte-exact, or the transfer fails with a typed
      error — never silent corruption, never an escaped exception.}
    - {b Overload} runs many concurrent clients with mixed personas
      against one shared multi-connection server, exercising admission
      control, load shedding and the zero-window persist machinery.  The
      graceful-degradation invariant: every request ends in byte-exact
      delivery or a typed outcome (client- or server-side), honest
      clients always complete, queue budgets are never exceeded, and
      every shed appears both in the server's ledger and as a typed
      client-visible reply.
    - {b Crash} runs single transfers against a server host that a
      {!Ilp_netsim.Crashplan} kills mid-transfer (on a timed schedule or
      its Nth received packet; the dead address either answers RST or
      black-holes) and restarts after a seeded downtime, while a
      recovery supervisor hands the client fresh connections to resume
      over.  The fault-model invariant, per seed:

      {e the file arrives byte-exact — possibly resumed across restarts
      from a CRC-verified prefix, never from byte zero — or the client
      holds a typed failure; every crash teardown leaves zero owned
      timers; the at-most-once dedup ledger and the buffer pool
      balance.}

    Everything is derived from [config.seed], so a failing run can be
    replayed exactly ({!repro}).  Every family wires its worlds with
    {!World}, judges every transfer or client by {!World.verdict}, and
    passes each [log] line [~violation:true] exactly when the line
    counts an invariant violation.  The soak keeps one ledger: the
    counter delta of {!Ilp_obs.Metrics.default} around the run, which
    every count a summary prints reads. *)

(** Clients of the overload family are assigned personas by cycling an
    8-entry pattern: 1 honest, 2 slow readers, 1 streaming, 1
    shrinking-window, 1 dead reader, 1 oversized, 1 lying receiver. *)
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

type family =
  | Chaos of { intensity : float }
      (** scales all impairment rates, in [0, 10]; 1.0 = full chaos *)
  | Overload
  | Crash

type config = {
  family : family;
  seed : int;
  runs : int;
      (** transfers (chaos, crash) or concurrent clients (overload) *)
  file_len : int;
      (** the file each transfer or client fetches (chaos: one copy, in
          256-byte replies) *)
  machine : Ilp_memsim.Config.t;
}

(** The family's shape on the SS10/30 model, seed 1: chaos 512
    transfers of a 512-byte file (each with 120 s of virtual time),
    overload 8 clients around a 2 kB file (30 s for the whole soak),
    crash 64 transfers of a 2 kB file (30 s each). *)
val default_config : family -> config

(** The verdict tally every family keeps. *)
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

(** A family's own figures, beside the tally. *)
type figures =
  | Chaos_figures
  | Overload_figures of {
      honest_incomplete : int;
          (** invariant violation: a client whose persona must complete
              did not finish byte-exact *)
      peak_queued_bytes : int;
          (** invariant violation when above [queue_cap], the server's
              global queue budget *)
      queue_cap : int;
      ledger_mismatch : bool;
          (** invariant violation: the sheds ([rpc.shed.*]) do not equal
              the busy replies, the refusals the clients saw and the
              statuses abandoned with their connection *)
      forgery_unpunished : bool;
          (** invariant violation: feedback was forged ([link.tampered])
              but the server neither rejected a block
              ([tcp.sack_invalid]) nor aborted the peer
              ([tcp.abort.misbehaving_peer]) *)
    }
  | Crash_figures of {
      resumed_completed : int;
          (** completed byte-exact after at least one reconnect *)
      restarts_from_zero : int;
          (** invariant violation: a resume re-started from byte zero
              while a verified prefix existed *)
      stale_timers : int;
          (** invariant violation: owned timers still pending after a
              crash teardown (server shutdown, socket destroy, or plan
              stop) *)
      dedup_violations : int;
          (** invariant violation: [executions + dedup_hits +
              dedup_sheds <> id_requests_seen] on some transfer's store *)
    }

type outcome = { tally : tally; figures : figures }

(** [counter t name] is [name]'s delta over the run (0 if absent). *)
val counter : tally -> string -> int

(** [run ?log ?on_clock cfg] runs the soak [cfg.family] names.  [log]
    receives one line per noteworthy transfer or client: a typed
    failure or any invariant violation (chaos), every client's verdict
    (overload), every transfer's verdict (crash).  [on_clock] receives
    the overload world's shared [Simclock] after setup has drained and
    before the requests are scheduled — the telemetry sampler attaches
    its periodic tick there; only the overload family has a shared
    clock, so the others never call it.

    Raises [Invalid_argument], before the first transfer, on an
    out-of-range config: [runs] below 0 (below 1 for overload), a file
    shorter than 1 byte (chaos) or 64 bytes (overload, crash), or a
    chaos intensity outside [0, 10].  An exception raised during a
    transfer (or anywhere in the overload world) is counted as escaped
    instead. *)
val run :
  ?log:(violation:bool -> string -> unit) ->
  ?on_clock:(Ilp_netsim.Simclock.t -> unit) ->
  config ->
  outcome

(** Zero escaped exceptions, silent outcomes and pool leaks, plus the
    family's own: no incomplete honest client, queue budget respected,
    shed ledger consistent and no forgery unpunished (overload); no
    restart from zero, no stale timers and a conserved dedup ledger
    (crash). *)
val invariants_hold : outcome -> bool

(** Each carries the line that says it. *)
type verdict = Held of string | Violated of string | Vacuous of string

(** [Held] when {!invariants_hold}, else [Violated] — except that a
    crash soak with no crash or no resumed completion is [Vacuous]: it
    exercised nothing, so a regression in the fault injection itself
    cannot pass. *)
val verdict : outcome -> verdict

(** Human-readable ledger of the whole run. *)
val summary_lines : outcome -> string list

(** The [ilpbench soak] arguments that replay [cfg], e.g.
    ["--crash --seed 7 -n 16 --size 1024"]; a chaos intensity other
    than 1 and a machine other than the SS10/30 are included. *)
val repro : config -> string
