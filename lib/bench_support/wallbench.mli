(** Wall-clock benchmark of the {!Ilp_fastpath} send/receive kernels:
    the separate four-pass stack versus the fused ILP loop, timed for
    real on this host (no simulation) at several message sizes.

    Each point runs [trials] paired trials (after [warmup] discarded
    ones): a trial times the separate and the ILP kernels back to back,
    alternating which side runs first, each sample averaging a
    repetition count auto-calibrated to at least ~2 ms.  Times are the
    medians over trials; the speedup is the median of the per-trial
    ratios, so a drift in host speed between trials cancels.  Before
    any timing, both paths are cross-checked to produce byte-identical
    wire data and matching checksums — a benchmark of two kernels that
    disagree would be meaningless.

    Results serialise to the machine-readable [BENCH_wall.json]
    trajectory file consumed by plotting scripts (see EXPERIMENTS.md). *)

type side = {
  send_ns : float;  (** median ns per message over trials, send direction *)
  recv_ns : float;  (** median ns per message over trials, receive direction *)
  minor_words : float;
      (** minor-heap words allocated per message (send + recv), via
          [Gc.minor_words] deltas — the allocation-rate companion to the
          latency medians *)
  minor_words_rx : float;
      (** the receive-direction share of [minor_words] — the direction
          the contiguous zero-copy receive path targets *)
}

type point = {
  len : int;  (** message bytes (multiple of the 8-byte cipher block) *)
  reps : int;  (** calibrated repetitions per trial *)
  separate : side;
  ilp : side;
  speedup : float;
      (** median over trials of separate total / ILP total (send + recv)
          within the trial; > 1 means the fused loop is faster *)
}

type result = {
  cipher : string;
  trials : int;
  warmup : int;
  points : point list;
}

(** Run the benchmark.  [sizes] defaults to [1024; 8192; 65536; 524288]
    bytes; every size must be a positive multiple of 8.  [trials]
    defaults to 9 (median taken), [warmup] to 3.  Raises [Failure] if
    the separate and ILP kernels disagree on wire bytes or checksum. *)
val run :
  ?cipher:Ilp_fastpath.Cipher.t ->
  ?sizes:int list ->
  ?trials:int ->
  ?warmup:int ->
  unit ->
  result

(* ---- per-stage time share (the [--trace] table) ---- *)

type stage_cell = { stage_label : string; sep_ns : float; ilp_ns : float }

type stage_point = {
  s_len : int;
  s_reps : int;
  cells : stage_cell list;
  sep_total_ns : float;
  ilp_total_ns : float;
}

(** Run the kernels with the {!Ilp_obs.Trace} span tracer enabled and
    aggregate wall time per stage.  Separate-path rows are real measured
    intervals; ILP rows attribute the whole fused pass to encrypt/decrypt
    with the fused-away stages at zero, so the table shows what fusion
    collapsed.  Restores the tracer state on exit. *)
val stages :
  ?cipher:Ilp_fastpath.Cipher.t ->
  ?sizes:int list ->
  ?reps:int ->
  unit ->
  stage_point list

val print_stage_tables : stage_point list -> unit

(** Serialise to the BENCH_wall.json schema (hand-rolled writer; the
    container has no JSON library).  Includes an ["obs"] key carrying a
    {!Ilp_obs.Metrics} snapshot of the process-wide registry. *)
val to_json : result -> string

(** [write_json r ~path] writes {!to_json} output to [path]. *)
val write_json : result -> path:string -> unit

(** Aligned console table of the points (via {!Report}). *)
val print_table : result -> unit
