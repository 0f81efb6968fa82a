(** Flight recorder: always-on ring of the last N significant
    per-connection events.

    {!note} is the one event path: each flight event (the stages from
    {!Trace.State} on) is noted once and reaches two sinks, this
    always-on ring and, while tracing is on, the {!Trace} span ring as
    an instant.  The ring is aimed at post-mortems: when a soak
    invariant fails or a connection aborts, the retained tail shows
    what the connection did last — state transitions, retransmits,
    probes, resets, sheds — without having had tracing enabled in
    advance.

    [note] is zero-allocation on every path: it is a handful of array
    stores (float stores into a float array are unboxed), and [arg] is
    a required labelled [int] here and in {!Trace.instant} precisely so
    no [Some] boxing sneaks in at call sites. *)

val note : Trace.stage -> conn:int -> arg:int -> ts:float -> unit
(** The one call for a flight event: record [stage] for connection
    [conn] (by convention the local TCP port, or 0 when no connection
    applies) at timestamp [ts] (microseconds of the component's clock),
    and hand it to {!Trace.instant} with the same [arg] and [ts] and the
    current packet id.  Each sink keeps its own switch: a disabled
    recorder still forwards, and the tracer records only while enabled.
    Never allocates; callers with no argument to convey pass [~arg:0]. *)

val set_arg_printer : Trace.stage -> (int -> string) -> unit
(** Install a decoder for a stage's [arg] encoding, used by [dump].
    Components register theirs at module initialisation. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val capacity : unit -> int
val resize : int -> unit
(** Replace the ring with one of the given capacity and clear it. *)

val clear : unit -> unit
val noted : unit -> int
(** Events ever noted (including overwritten ones). *)

val count : unit -> int
(** Events currently retained. *)

val dropped : unit -> int

type entry = { stage : Trace.stage; conn : int; arg : int; ts : float }

val entries : ?conn:int -> unit -> entry list
(** Retained entries, oldest first, optionally filtered to one
    connection. *)

val last : conn:int -> int -> entry list
(** The last [n] retained entries for [conn], oldest first. *)

val entry_line : entry -> string

val dump : ?conn:int -> unit -> string list
(** Human-readable dump: a header line (retained/noted/dropped counts)
    followed by one line per entry. *)
