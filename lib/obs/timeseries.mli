(** Time-series sampler over a {!Metrics} registry.

    A sampler owns a preallocated ring of sample slots.  A component
    with a clock (the telemetry runner attaches one to the overload
    soak's [Simclock]) calls [sample] at a fixed virtual-time interval;
    each call refreshes the SLO percentile gauges and breach counters
    first — so the stored snapshot includes them — then snapshots the
    whole registry into the ring.  Rates, percentile series, sparkline
    dashboards and JSON are derived lazily at read time.

    Sampling allocates (a snapshot is a list); the zero-allocation
    guarantee of the observability layer applies to the instruments
    being sampled ({!Metrics}, {!Trace}, {!Recorder}), not to taking a
    sample.  A sampler that is never invoked costs nothing. *)

type slo = {
  slo_hist : string;  (** name of the latency histogram to gate on *)
  slo_percentile : float;  (** e.g. [0.99] *)
  slo_limit : int;  (** inclusive upper bound for the percentile *)
}

type t

val create :
  ?capacity:int -> ?slos:slo list -> ?interval_us:float -> Metrics.t -> t
(** Capture the base snapshot of [registry] and allocate the sample
    ring.  Defaults: [capacity = 512] samples, no SLOs, nominal
    [interval_us = 50_000.].  The interval is advisory — [sample] is
    driven externally — but is used to derive the rate of the first
    sample and reported in the JSON export. *)

val sample : t -> now:float -> unit
(** Take one sample at timestamp [now] (microseconds): refresh SLO
    gauges ([<hist>.p50/.p90/.p99] plus the SLO's own quantile) and
    breach counters ([<hist>.slo_breaches]), then snapshot the registry
    into the ring, overwriting the oldest slot when full. *)

val interval_us : t -> float
val capacity : t -> int
val taken : t -> int
(** Samples ever taken (including overwritten ones). *)

val count : t -> int
(** Samples currently retained. *)

val base : t -> Metrics.snapshot
val samples : t -> (float * Metrics.snapshot) list
(** Retained [(ts_us, snapshot)] pairs, oldest first. *)

val slo_gauge_name : slo -> string
(** e.g. ["rpc.latency_us.p99"]. *)

val breaches : t -> (slo * int) list
(** Per-SLO breach counts as of the latest sample. *)

val total_breaches : t -> int

val delta_sum : t -> string -> int
(** Sum of consecutive per-sample deltas of a counter (base to first
    sample, then sample to sample).  The conservation property tested
    in [test_obs] is [base + delta_sum t name = final registry value]
    once a final sample has been taken. *)

val rates : t -> string -> float array
(** Per-sample rate (events per second of sampled time) of a counter,
    derived from consecutive deltas. *)

val dashboard : ?width:int -> t -> string list
(** Text dashboard: one Unicode sparkline per active instrument, scaled
    to its min..max range (counters as
    rates, gauges as levels, histograms as p50/p90/p99 series) plus one
    verdict line per SLO.  [width] caps the number of points shown
    (most recent kept; default 60). *)

val to_json : t -> string
(** Hand-rolled JSON export: sample timestamps, per-instrument series
    (counters with cumulative values and rates, gauges, histogram
    percentile tracks) and SLO verdicts. *)
