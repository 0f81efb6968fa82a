(** Virtual time and timers for the simulated network.

    Time is measured in microseconds as a float.  Events fire in timestamp
    order (FIFO among equal timestamps).  The clock only moves when
    {!advance} or {!run_until_idle} is called, so protocol tests are fully
    deterministic. *)

type t

(** Raised by {!run_until_idle} when the event budget is exhausted without
    the clock going idle — almost always a timer-rescheduling loop in the
    code under test.  The payload is the budget that was exceeded. *)
exception Livelock of int

(** [create ?event_budget ()] makes a clock.  [event_budget] (default
    1_000_000, must be positive) is the default livelock guard for
    {!run_until_idle}; raise it for long soak runs. *)
val create : ?event_budget:int -> unit -> t

(** Current virtual time in microseconds. *)
val now : t -> float

type timer

(** Allocate a fresh, never-reused owner id (always positive) for tagging
    scheduled events.  Used by components (e.g. a TCP socket) so tests can
    assert [pending_count t ~owner = 0] after teardown. *)
val fresh_owner : t -> int

(** [schedule t ?owner ~after f] runs [f] once, [after] microseconds from
    now (clamped to now for negative values).  [owner] tags the event for
    {!pending_count} audits; without it the event carries owner [0], as
    infrastructure events such as link deliveries do.  Stateful
    components that must prove they cancelled everything on teardown
    tag their timers with a {!fresh_owner} id. *)
val schedule : t -> ?owner:int -> after:float -> (unit -> unit) -> timer

val cancel : timer -> unit
val is_pending : timer -> bool

(** [advance t dt] moves time forward by [dt] microseconds, firing every
    event that falls due (including events scheduled by fired events within
    the window). *)
val advance : t -> float -> unit

(** [run_until_idle ?max_events t] keeps jumping to the next pending event
    until none remain.  Raises {!Livelock} after [max_events] (default: the
    clock's [event_budget]) firings. *)
val run_until_idle : ?max_events:int -> t -> unit

(** Number of pending (uncancelled, unfired) events. *)
val pending : t -> int

(** [pending_count t ~owner] counts pending events tagged with [owner].
    After a component with owner id [o] is destroyed,
    [pending_count t ~owner:o] must be [0] or the component leaked a timer
    (a ghost firing waiting to happen). *)
val pending_count : t -> owner:int -> int
