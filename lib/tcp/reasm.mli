(** Receive-side reassembly state: the segments held above [rcv_nxt],
    the SACK blocks that report them (RFC 2018, with RFC 2883 D-SACK),
    and the framed TSDU extent that decides out-of-order final placement.

    One table, in sequence order, holds every segment received ahead of
    [rcv_nxt], so an ack merges them in one pass and builds only the
    blocks it carries.  A held segment is either {e stashed} — copied
    whole into a stash slot, to be verified when the in-order drain
    reaches it — or {e placed} — already verified and landed at its final
    TSDU offset, so the drain is pure bookkeeping.

    Pure state: no clock, memory or telemetry.  The charged work (the
    stash copy, the verdict, delivery) stays with the caller, which gets
    slot indexes and placement offsets from here.  Checked against a
    byte bitmap by the "reasm model" qcheck property in
    [test/test_tcp.ml]. *)

type t

type entry =
  | Stashed of { slot : int; len : int }
  | Placed of { len : int; psh : bool }

(** [create ~slots ~window ~sack] — [slots] stash slots; only segments
    starting less than [window] bytes past [rcv_nxt] are held; with
    [sack] off no block is ever reported. *)
val create : slots:int -> window:int -> sack:bool -> t

(** Stash slots in total. *)
val capacity : t -> int

(** {2 Framed extent (v2 framing)} *)

val set_framing : t -> bool -> unit

(** Framing is on and no TSDU is current: the next in-order segment
    must begin with a prelude. *)
val awaiting_prelude : t -> bool

(** [open_frame t ~seq ~plen ~elen] — the TSDU whose prelude ([plen]
    bytes, announcing [elen] engine bytes) starts at [seq] is current. *)
val open_frame : t -> seq:int -> plen:int -> elen:int -> unit

(** The current TSDU is complete (its PSH segment was delivered). *)
val close_frame : t -> unit

(** [beyond_frame t ~dst_off ~len] — engine bytes [dst_off, dst_off+len)
    reach past the current framed TSDU's announced extent. *)
val beyond_frame : t -> dst_off:int -> len:int -> bool

(** {2 Arrivals} *)

(** What to do with a segment that arrived above [rcv_nxt]:
    - [Beyond_window]: it starts at or beyond [rcv_nxt + window], where a
      conforming sender never sends (its sequence number was corrupted);
      drop it;
    - [Held]: a segment already starts at that sequence number (a D-SACK
      report is now pending);
    - [Place dst_off]: it lies wholly inside the current framed TSDU —
      verify it at engine offset [dst_off], then call {!placed};
    - [Stash slot]: it is now held in [slot] (the lowest free one) —
      copy it there;
    - [No_slot]: every slot is taken; drop it. *)
type arrival = Beyond_window | Held | Place of int | Stash of int | No_slot

val arrive : t -> rcv_nxt:int -> seq:int -> len:int -> arrival

(** Record a verified [Place] arrival. *)
val placed : t -> seq:int -> len:int -> psh:bool -> unit

(** [duplicate t ~seq ~len] — a segment arrived below [rcv_nxt]: report
    it as a D-SACK block on the next ack (RFC 2883).  One-byte segments
    (persist and keepalive probes) are not reported. *)
val duplicate : t -> seq:int -> len:int -> unit

(** [pop t ~rcv_nxt] — [rcv_nxt] has advanced: forget every held segment
    that starts below it (a segment whose sequence number was corrupted
    is held where no real one starts, and would otherwise never be
    drained), then remove and return the one starting at [rcv_nxt].
    Either way its slot is freed. *)
val pop : t -> rcv_nxt:int -> entry option

(** Forget every held segment and the current frame (host crash). *)
val clear : t -> unit

(** [take_blocks t] — the SACK blocks for the next ack, clearing the
    pending D-SACK: the pending D-SACK block first, then the held ranges
    in {!ranges}' order, at most {!Tcp_header.max_sack_blocks} blocks in
    all — the ones the ack carries, and the only ones built.  Empty with
    nothing held and nothing duplicated, so a clean-link ack stream is
    the same with SACK on or off. *)
val take_blocks : t -> (int * int) list

(** {2 Inspection} *)

(** Every held range: the held segments merged into maximal ranges, the
    range holding the most recent arrival ahead of the rest (which
    descend by sequence). *)
val ranges : t -> (int * int) list

val slots_in_use : t -> int

(** Every held segment, by ascending sequence number. *)
val held : t -> (int * entry) list
