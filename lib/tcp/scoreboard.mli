(** The sender's retransmission queue and its SACK scoreboard (RFC 2018
    blocks, RFC 2883 D-SACK, RFC 3517 loss recovery at segment
    granularity).

    The queue holds every sent, unacknowledged segment in sequence order,
    each with the caller's payload ['a] and two SACK hints: [sacked] (a
    block from the peer covers it) and [resent] (the scoreboard resent
    it as a hole, at [resent_at]).  Both are hints, never ground truth:
    segments leave only on cumulative ack, and {!renege} clears every
    hint on a timeout (RFC 2018 §8), so a lying or forgetful receiver
    can cost retransmissions, never data.

    Pure state: no clock, memory or telemetry.  Time comes in as
    arguments and counts go out.  Checked against a set of SACKed
    sequence numbers and RFC 3517's IsLost/pipe pseudo-code by the
    "scoreboard model" qcheck property in [test/test_tcp.ml]. *)

type 'a seg = private {
  seq : int;
  len : int;
  data : 'a;
  mutable sacked : bool;
  mutable resent : bool;
  mutable resent_at : float;
}

type 'a t

(** [create ~sack ~vacant] — with [sack] off no hole is ever selected
    and the duplicate-ack threshold is always {!Cc.dupthresh}; blocks
    from the peer are still validated and applied.  [vacant] is the
    payload of the placeholder a free slot of the queue holds (never
    returned), so a segment that left the queue is not kept reachable. *)
val create : sack:bool -> vacant:'a -> 'a t

(** Append a freshly sent segment (the queue is in sequence order). *)
val add : 'a t -> seq:int -> len:int -> 'a -> unit

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Payload bytes queued (sent and not cumulatively acknowledged). *)
val bytes : 'a t -> int

val oldest : 'a t -> 'a seg option

(** Drop every segment (host crash). *)
val clear : 'a t -> unit

(** [front_acked t ~ack]: a segment is queued and the oldest lies
    wholly below the cumulative [ack].  An ack drains the queue with
    [while front_acked t ~ack do ... pop t ... done], which allocates
    nothing per segment. *)
val front_acked : 'a t -> ack:int -> bool

(** Remove and return the oldest segment.  Raises [Queue.Empty] on an
    empty queue. *)
val pop : 'a t -> 'a seg

(** What one ack's blocks amounted to: [accepted] blocks were applied;
    [invalid] ones were empty, inverted, reached beyond [snd_nxt], or
    overlapped an accepted block of the same ack; [spurious] ones were
    D-SACK duplicate reports — a block at or below the cumulative ack,
    or a first block contained in a later one (RFC 2883). *)
type sack_counts = private {
  mutable accepted : int;
  mutable invalid : int;
  mutable spurious : int;
}

(** [process_sack t ~ack ~snd_nxt blocks] validates one ack's blocks in
    order and marks every segment wholly inside an accepted block
    (clipped to [ack]) as sacked.  The counts are the scoreboard's own
    record, overwritten by the next call; an ack allocates nothing. *)
val process_sack :
  'a t -> ack:int -> snd_nxt:int -> (int * int) list -> sack_counts

(** The oldest segment not yet sacked: the hole a fast retransmit or a
    partial ack resends. *)
val first_unsacked : 'a t -> 'a seg option

(** Every queued segment, oldest first. *)
val segments : 'a t -> 'a seg list

(** Duplicate acks that signal a loss right now: {!Cc.dupthresh}, or,
    with SACK on and fewer segments outstanding than that threshold
    could ever witness while all but one are sacked, that count less
    one (RFC 5827-style early retransmit, so a tail loss is recovered
    without the RTO). *)
val dupack_threshold : 'a t -> int

(** Record that the segment was resent as a hole at [now]. *)
val mark_resent : 'a seg -> now:float -> unit

(** [iter_holes t ~cap ~now ~retry_after f] calls [f] on each hole to
    resend now, in sequence order.  A segment is lost (RFC 3517 IsLost)
    when at least {!Cc.dupthresh} sacked segments lie above it; it is
    eligible unless it was resent less than [retry_after] ago (a hole
    still unsacked after that had its retransmission lost too).  Pipe
    counts the unsacked segments not both lost and eligible; each chosen
    hole adds its length, and holes are chosen while pipe < [cap].
    Nothing is chosen with SACK off or nothing sacked.  The sweep
    allocates nothing itself. *)
val iter_holes :
  'a t -> cap:int -> now:float -> retry_after:float -> ('a seg -> unit) -> unit

(** Recovery is over: every segment becomes eligible to resend again. *)
val clear_resent : 'a t -> unit

(** Timeout: forget every sacked and resent bit. *)
val renege : 'a t -> unit
