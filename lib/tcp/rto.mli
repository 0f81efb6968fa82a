(** Retransmission-timeout estimation: Jacobson/Karels smoothed RTT with
    Karn's rule (handled by the caller by not sampling retransmitted
    segments) and exponential backoff. *)

type t

val create : ?initial_us:float -> ?min_us:float -> ?max_us:float -> unit -> t

(** [sample t ~sent_at ~now] folds one round-trip measurement, the
    microseconds from [sent_at] to [now].  It allocates nothing: the
    caller passes the two times it holds, not a difference it would have
    to box. *)
val sample : t -> sent_at:float -> now:float -> unit

(** Current timeout in microseconds (backoff applied). *)
val timeout_us : t -> float

(** Double the timeout (retransmission occurred). *)
val backoff : t -> unit

(** Clear backoff after a successful new measurement. *)
val reset_backoff : t -> unit

val srtt_us : t -> float option
