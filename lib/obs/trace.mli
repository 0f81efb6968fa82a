(** Low-overhead per-packet span tracer.

    A single process-wide ring of preallocated parallel arrays records
    spans (a stage with a start timestamp and duration) and instants
    (point events).  Per-packet events are recorded here directly; the
    flight events (retransmits, resets, aborts, sheds, ...) arrive only
    through {!Recorder.note}, which feeds this ring and the always-on
    flight recorder from one call.  When tracing is disabled every
    recording entry point is a single mutable-flag test and allocates
    nothing, so the data-path hot loops can stay instrumented
    permanently.  When the ring is full the oldest spans are evicted.

    Timestamps are supplied by the caller in microseconds.  On the
    simulated machine the natural clock is [Machine.micros] (simulated
    CPU time); native/wall users install a monotonic clock via
    [set_clock].  The tracer itself never charges the simulated machine,
    so enabling it cannot change simulated costs or wire bytes. *)

(** The send and receive stages and [Tcp_segment] are spans; [Send_link],
    [Tcp_ack] and [Tcp_sack] are per-packet instants; the rest, from
    [State] on, are the flight events (see the preamble). *)
type stage =
  | Send_marshal
  | Send_encrypt
  | Send_checksum
  | Send_ring_copy
  | Send_link
  | Recv_checksum
  | Recv_decrypt
  | Recv_unmarshal
  | Tcp_segment
      (** lifetime of one data segment: first transmission to cumulative
          acknowledgement (simulated-clock timestamps; [arg] = payload
          bytes).  Overlapping [tcp.segment] spans are the visual
          signature of a pipelined window. *)
  | Tcp_ack
      (** an acknowledgement advancing [snd_una] ([arg] = bytes newly
          acknowledged) *)
  | Tcp_sack
      (** a pure ack carrying SACK blocks left the receiver
          ([arg] = block count, D-SACK included) *)
  | State  (** TCP state transition; [arg] encodes the new state *)
  | Retransmit  (** data segment retransmitted ([arg] = sequence number) *)
  | Fast_retransmit  (** triple-duplicate-ACK retransmission *)
  | Sack_retransmit
      (** the scoreboard inferred a hole lost ([arg] = sequence number) *)
  | Persist_probe  (** zero-window probe sent ([arg] = backoff shift) *)
  | Zero_window  (** send stalled on a zero window ([arg] = bytes wanted) *)
  | Keepalive
      (** keepalive probe sent ([arg] = unanswered probes), or the peer
          answered one ([arg] = 0) *)
  | Rst_tx  (** RST sent *)
  | Rst_rx  (** RST received ([arg] = its sequence number) *)
  | Abort  (** connection aborted; [arg] encodes the reason *)
  | Shed  (** server shed a request; [arg] encodes the reason *)
  | Abandon  (** server abandoned queued replies ([arg] = how many) *)
  | Retry  (** client scheduled a retry ([arg] = attempt number) *)
  | Reconnect  (** client reconnected ([arg] = reconnects so far) *)
  | Resume  (** client resumed a transfer ([arg] = start offset) *)

val stage_name : stage -> string
val stage_cat : stage -> string
(** Category: ["send"], ["recv"], ["tcp"] or ["rpc"]. *)

val enabled : unit -> bool
val enable : ?capacity:int -> unit -> unit
(** Switch tracing on with a fresh ring of [capacity] spans
    (default 16384).  Clears previously recorded spans. *)

val disable : unit -> unit
(** Switch recording off.  Recorded spans remain readable. *)

val clear : unit -> unit
val capacity : unit -> int

val begin_packet : unit -> int
(** Allocate the next packet id and make it current.  Returns 0 (and does
    nothing) when tracing is disabled. *)

val current_packet : unit -> int
(** Packet id of the most recent [begin_packet] (0 before any). *)

val span : ?arg:int -> stage -> packet:int -> ts:float -> dur:float -> unit
(** Record a complete span.  No-op (and allocation-free) when disabled.
    [arg] is a free integer annotation; the engine uses [arg = 1] to mark
    a stage that was fused into another loop (zero attributed duration
    because the work happened inside the fused pass). *)

val instant : stage -> packet:int -> ts:float -> arg:int -> unit
(** Record a point event.  [arg] is required so that a variable
    argument is never boxed in an option on the traced path. *)

val set_clock : (unit -> float) -> unit
(** Install the microsecond clock used by native (uncharged) code paths
    that have no simulated machine to read.  Defaults to a constant 0. *)

val now : unit -> float
(** Read the installed clock. *)

(* ---- reading the ring ---- *)

type span_rec = {
  stage : stage;
  packet : int;
  ts : float;
  dur : float;
  arg : int;
  is_instant : bool;
}

val spans : unit -> span_rec list
(** Oldest first; at most [capacity] entries. *)

val recorded : unit -> int
(** Total events recorded since [enable]/[clear], including evicted. *)

val dropped : unit -> int
(** Events evicted by ring wrap-around. *)

val to_chrome_json : unit -> string
(** Chrome [trace_event] JSON (one [traceEvents] array of ["X"] complete
    and ["i"] instant events), loadable in chrome://tracing / Perfetto. *)

val timeline : ?tail:int -> unit -> string list
(** Plain-text per-packet timeline, oldest first; [tail] keeps only the
    last [tail] lines. *)
