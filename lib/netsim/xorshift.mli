(** A 64-bit xorshift (shifts 13/7/17) for seeded schedules: the soaks'
    personas, impairment profiles and crash plans, and the RPC client's
    retry jitter.  Fully determined by its initial state, so a run
    reproduces exactly per seed.  The link's impairment draws and
    {!Crashplan.seeded_times} keep generators of their own. *)

type t

(** [create state] starts the stream at [state lor 1] (never 0). *)
val create : int -> t

(** Uniform in [0, 1), from the low 24 bits of the next draw. *)
val float : t -> float

(** [int t bound] is the next draw modulo [bound]. *)
val int : t -> int -> int
