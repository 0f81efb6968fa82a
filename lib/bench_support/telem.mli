(** Continuous-telemetry runner behind [ilpbench report]: the overload
    soak with a Simclock-driven periodic {!Ilp_obs.Timeseries} sampler
    attached, plus the gates that make it CI-able.  The sampler holds two
    latency SLOs: p99 [rpc.latency_us] at most 30 s of virtual time (the
    soak's own patience) and p99 [tcp.ack_rtt_us] at most 2 s. *)

type config = {
  soak : Ilp_app.Soak.config;  (** an overload soak *)
  interval_us : float;  (** virtual time between samples *)
  capacity : int;  (** sample-ring slots; also bounds the tick chain *)
}

val default_config : config
val quick_config : config

type result = {
  outcome : Ilp_app.Soak.outcome;
  ts : Ilp_obs.Timeseries.t;
  base : Ilp_obs.Metrics.snapshot;
  final : Ilp_obs.Metrics.snapshot;
}

val run :
  ?log:(violation:bool -> string -> unit) -> ?config:config -> unit -> result
(** Run the overload soak with the sampler attached via [on_clock]; a
    final sample is taken after the soak settles, so the sampled deltas
    cover the whole run. *)

val conservation_failures : result -> string list
(** Counter names whose [base + sum-of-sampled-deltas] does not equal
    the final registry value (must be empty). *)

val check : result -> (unit, string list) Stdlib.result
(** Gates: the soak's {!Ilp_app.Soak.verdict} holds, at least two
    samples, counter conservation, zero SLO breaches. *)

val dashboard_lines : result -> string list
val summary_lines : result -> string list
val to_json : result -> string

(** Write the current flight-recorder dump (see
    {!Ilp_obs.Recorder.dump}), one event per line. *)
val write_flight : path:string -> unit
