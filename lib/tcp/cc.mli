(** Sender congestion control: RFC 5681 slow start, congestion avoidance
    and fast retransmit/recovery, with RFC 3465 byte counting (L = 1 MSS)
    and RFC 6582 (NewReno) partial and full acks.

    Pure state: no clock, memory or telemetry.  The caller passes in what
    it measured (bytes in flight, segments outstanding, the cumulative
    ack) and acts on the verdicts.  Every transition that recomputes
    cwnd or ssthresh returns [true] so the caller can republish them;
    with congestion control off the window is never recomputed and
    {!window} is unbounded, so this module is the only place that
    setting is consulted.

    Where this stack departs from the RFCs: a partial ack does not
    deflate cwnd, and each duplicate ack in recovery inflates cwnd only
    while the duplicate count stays within the segments outstanding (a
    bound against dupack forgery).

    Checked against a transcription of those RFC steps by the
    "cc model" qcheck property in [test/test_tcp.ml]. *)

type t

(** RFC 5681's DupThresh: duplicate acks that signal a loss (3). *)
val dupthresh : int

(** Initial cwnd 2 MSS, ssthresh 64 KiB, not in recovery. *)
val create : mss:int -> enabled:bool -> t

val cwnd : t -> int
val ssthresh : t -> int

(** The congestion cap on bytes in flight: cwnd, or [max_int] when
    congestion control is off. *)
val window : t -> int

val in_recovery : t -> bool

(** [ack t ~acked] — a new cumulative ack retired [acked] bytes.  Clears
    the duplicate count; outside recovery grows cwnd by [min acked mss]
    in slow start, or one MSS per cwnd bytes retired in congestion
    avoidance, so dividing an ack earns nothing extra. *)
val ack : t -> acked:int -> bool

(** What a duplicate ack means: [Threshold] — the count just reached
    [threshold] outside recovery: fast retransmit (then call
    {!fast_loss}); [Recovering inflated] — a further duplicate during
    recovery, [inflated] when cwnd grew one MSS; [Counted] — neither. *)
type dupack = Counted | Threshold | Recovering of bool

(** [dupack t ~threshold ~outstanding] counts one duplicate ack against
    [threshold] (normally {!dupthresh}; lower for an early retransmit)
    with [outstanding] segments unacknowledged. *)
val dupack : t -> threshold:int -> outstanding:int -> dupack

(** [fast_loss t ~recover ~in_flight] enters fast recovery until
    [recover] is acknowledged: ssthresh = max (in_flight / 2) (2 MSS),
    cwnd = ssthresh + {!dupthresh} MSS. *)
val fast_loss : t -> recover:int -> in_flight:int -> bool

(** [timeout t ~in_flight] — the retransmission timer fired: leave
    recovery, clear the duplicate count, ssthresh = max (in_flight / 2)
    (2 MSS), cwnd = 1 MSS. *)
val timeout : t -> in_flight:int -> bool

(** Where a new cumulative ack leaves recovery: [Partial_ack] — still
    below [recover], the next hole is lost too; [Full_ack deflated] —
    recovery over, cwnd set to ssthresh ([deflated] when recomputed). *)
type recovery = Not_recovering | Partial_ack | Full_ack of bool

val recovery_ack : t -> ack:int -> recovery

(** Leave recovery without touching the window (a partial ack with
    nothing left to resend). *)
val leave_recovery : t -> unit
