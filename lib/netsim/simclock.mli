(** Virtual time and timers for the simulated network.

    Time is measured in microseconds as a float.  Events fire in timestamp
    order (FIFO among equal timestamps; a nan timestamp sorts first).  The
    clock only moves when {!advance} or {!run_until_idle} is called, so
    protocol tests are fully deterministic.

    A timer is a value its owner builds once ({!timer}) and re-arms in
    place ({!arm}); {!schedule} is the anonymous one-shot, a timer built
    and armed in one call.

    Costs, with [n] events pending: {!arm}, {!schedule}, {!cancel} and
    each firing take O(log n); {!timer}, {!is_pending}, {!pending} and
    {!now} O(1); {!pending_count} O(n).  {!timer} and {!schedule}
    allocate the timer record (5 words), {!arm} nothing but the queue's
    arrays when they grow to a new peak, {!cancel} nothing, and each
    firing and each {!advance} the boxed new time. *)

type t

(** Raised by {!run_until_idle} when the event budget is exhausted without
    the clock going idle — almost always a timer-rescheduling loop in the
    code under test.  The payload is the budget that was exceeded. *)
exception Livelock of int

(** [create ()] makes a clock at time 0 with nothing pending. *)
val create : unit -> t

(** Current virtual time in microseconds. *)
val now : t -> float

type timer

(** The value a timer slot holds until its owner builds the timer (a
    record field that needs one before the record exists): never
    pending, {!cancel} on it does nothing, and {!arm} on it raises
    [Invalid_argument]. *)
val stopped : timer

(** Allocate a fresh, never-reused owner id (always positive) for tagging
    scheduled events.  Used by components (e.g. a TCP socket) so tests can
    assert [pending_count t ~owner = 0] after teardown. *)
val fresh_owner : t -> int

(** [timer t ~owner f] builds an unarmed timer that runs [f] each time
    it fires, its events tagged [owner] for {!pending_count} audits.
    Stateful components that must prove they cancelled everything on
    teardown build each of their timers once, tagged with a
    {!fresh_owner} id, and re-arm it with {!arm}. *)
val timer : t -> owner:int -> (unit -> unit) -> timer

(** [arm timer ~after] schedules [timer] to fire once, [after]
    microseconds from now (clamped to now for negative values),
    cancelling any pending arming first; a callback may re-arm its own
    timer.  Every arming takes a fresh sequence number, so a re-arm
    orders exactly as a {!cancel} followed by a fresh schedule.  Raises
    [Invalid_argument] on {!stopped}. *)
val arm : timer -> after:float -> unit

(** [schedule t ~after f] is [timer t ~owner:0 f] armed [after]
    microseconds from now: the anonymous one-shot of infrastructure
    events such as link deliveries. *)
val schedule : t -> after:float -> (unit -> unit) -> timer

(** [cancel timer] drops a pending event; on a fired or cancelled one it
    does nothing. *)
val cancel : timer -> unit

(** [is_pending timer]: armed, and neither fired since (a callback sees
    its own timer as not pending) nor cancelled. *)
val is_pending : timer -> bool

(** [advance t dt] moves time forward by [dt] microseconds, firing every
    event that falls due (including events scheduled by fired events within
    the window). *)
val advance : t -> float -> unit

(** [run_until_idle ?max_events t] keeps jumping to the next pending event
    until none remain.  It fires at most [max_events] (default 1_000_000)
    events: a clock that drains in exactly that many returns, and one
    with an event still pending after them raises {!Livelock}. *)
val run_until_idle : ?max_events:int -> t -> unit

(** Number of pending (uncancelled, unfired) events. *)
val pending : t -> int

(** [pending_count t ~owner] counts pending events tagged with [owner].
    After a component with owner id [o] is destroyed,
    [pending_count t ~owner:o] must be [0] or the component leaked a timer
    (a ghost firing waiting to happen). *)
val pending_count : t -> owner:int -> int
