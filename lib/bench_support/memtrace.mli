(** Memory-traffic benchmark: the {!Ilp_fastpath.Memtraffic} ledger and
    the GC counters, per message, for the pooled (single-copy) versus
    legacy (per-message allocation) data paths.

    This is the paper's thesis applied to the host implementation itself:
    protocol cost is dominated by memory traffic, so the benchmark counts
    bytes moved rather than (only) time.  Each point runs one engine in a
    fresh simulated world, sends and receives the same message [msgs]
    times, and averages:

    - the ledger's host-bytes-copied / allocated per message — meaningful
      on the {e native} backend, where the ledger instruments the whole
      data path (wire kernels, ring staging, TSDU hand-off);
    - GC minor words and allocated bytes per message — the headline for
      the {e simulated} backend, whose legacy lane allocates a small
      staging block per processed block (thousands of minor-heap
      allocations per large message) while the pooled lane allocates
      none.

    Results serialise to the BENCH_mem.json trajectory consumed by
    EXPERIMENTS.md §MEM and checked by the CI perf-smoke job. *)

type lane = {
  copied : float;  (** ledger: host bytes copied per message *)
  copied_tx : float;  (** the send-direction share of [copied] *)
  copied_rx : float;
      (** the receive-direction share of [copied] — the quantity the
          contiguous zero-copy receive path is built to shrink *)
  allocated : float;  (** ledger: freshly allocated host bytes per message *)
  alloc_blocks : float;  (** ledger: fresh allocations per message *)
  minor_words : float;  (** GC minor-heap words per message *)
  major_words : float;
      (** words allocated directly in the major heap per message (GC major
          words minus promoted words) *)
  pool_balanced : bool;
      (** acquired = released at lane exit (engine destroyed) *)
}

type point = {
  len : int;  (** payload bytes *)
  wire_len : int;  (** encrypted on-the-wire bytes *)
  mode : Ilp_core.Engine.mode;
  native : bool;
  msgs : int;  (** messages averaged over *)
  legacy : lane;
  pooled : lane;
}

type result = {
  points : point list;
  disabled_trace_minor_words : float;
      (** minor-heap words allocated per disabled-path instrumentation
          call (span + instant + begin_packet + counter-block bump +
          histogram + flight-recorder note);
          gated near zero by {!check} *)
}

type config = {
  sizes : int list;  (** payload sizes; multiples of 8, at least 64 *)
  native_msgs : int;
  sim_msgs : int;  (** fewer: every simulated byte is charged *)
}

(** 1 KiB / 8 KiB / 64 KiB, 64 native and 4 simulated messages. *)
val default_config : config

(** 1 KiB / 64 KiB with fewer messages — the CI smoke variant. *)
val quick_config : config

(** Run the matrix: sizes x (separate, ilp) x (sim, native), each with a
    legacy and a pooled lane.  Raises [Invalid_argument] on a bad config,
    [Failure] if any lane rejects its own message. *)
val run : ?config:config -> unit -> result

val copied_ratio : point -> float
(** Legacy over pooled bytes-copied (large finite value when the pooled
    lane copies nothing). *)

(** Per-direction splits of {!copied_ratio}. *)
val tx_copied_ratio : point -> float

val rx_copied_ratio : point -> float
val minor_words_ratio : point -> float

(** The acceptance gates: at the largest size, bytes-copied ratio >= 2 on
    the native lanes — overall and on the receive direction alone — and
    minor-words ratio >= 2 on the simulated lanes; every lane's pool
    balanced (a leaked rx placement buffer fails here); and disabled-path
    tracing allocation-free.  [Error] lists each violated gate. *)
val check : result -> (unit, string list) Stdlib.result

(** Serialise to the BENCH_mem.json schema (hand-rolled writer).
    Includes an ["obs"] key carrying an {!Ilp_obs.Metrics} snapshot. *)
val to_json : result -> string

val write_json : result -> path:string -> unit

(** Aligned console table of the points (via {!Report}). *)
val print_table : result -> unit
