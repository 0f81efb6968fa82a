(** Memory-traffic benchmark: the {!Ilp_fastpath.Memtraffic} ledger and
    the GC counters, per message, on the engine's single-copy host data
    path.

    This is the paper's thesis applied to the host implementation itself:
    protocol cost is dominated by memory traffic, so the benchmark counts
    bytes moved rather than (only) time.  Each lane runs one engine in a
    fresh simulated world, sends and receives the same message [msgs]
    times, and averages:

    - the ledger's host bytes copied / allocated per message — meaningful
      on the {e native} backend, where the ledger instruments the whole
      data path (wire kernels, ring staging, TSDU hand-off);
    - GC minor words and direct major-heap words per message — the
      allocation pressure of either backend.

    {!check} holds every lane to absolute bounds.  Results serialise to
    the BENCH_mem.json trajectory consumed by EXPERIMENTS.md §MEM and
    [ilpbench regress]; [dune build @oracles] holds the committed file
    to a rerun of [mem --quick --check] byte for byte. *)

(** One (payload size, mode, backend) lane, averaged per message. *)
type point = {
  len : int;  (** payload bytes *)
  wire_len : int;  (** encrypted on-the-wire bytes *)
  mode : Ilp_core.Engine.mode;
  native : bool;
  msgs : int;  (** messages averaged over *)
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

(** Run the matrix: sizes x (separate, ilp) x (sim, native).  Raises
    [Invalid_argument] on a bad config, [Failure] if any lane rejects its
    own message. *)
val run : ?config:config -> unit -> result

(** The acceptance gates, absolute at every size:
    - native lanes: at most 2 host copies per wire byte in ILP mode and 3
      in separate mode, and at most 1 on the receive direction;
    - every lane: 0 ledger bytes allocated, 0 direct major-heap words,
      minor words per message no higher than the same mode and backend
      at the smallest size, and the pool balanced (a leaked rx placement
      buffer fails here);
    - disabled-path tracing allocation-free.

    [Error] lists each violated gate, naming its lane. *)
val check : result -> (unit, string list) Stdlib.result

(** Serialise to the BENCH_mem.json schema (hand-rolled writer).
    Includes an ["obs"] key carrying an {!Ilp_obs.Metrics} snapshot. *)
val to_json : result -> string

(** Aligned console table of the lanes (via {!Report}). *)
val print_table : result -> unit
