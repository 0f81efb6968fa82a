(** The file-transfer client.

    Sends a request over the control connection and reassembles the
    requested copies of the file from the reply stream on the data
    connection, verifying every payload byte against the expected
    contents.  Reply processing (decrypt/unmarshal, fused or separate) is
    configured on the data socket from the engine's mode at creation.

    Failure is typed: a transport teardown (retry exhaustion or a stalled
    peer window on either connection) is an [Aborted] failure carrying the
    socket's reason; a server that sheds the request past the client's
    retry budget is [Server_busy]; a malformed or mismatching reply a
    [Protocol] failure — the transfer never silently stalls as a bare
    [Closed] socket.

    A [Busy] reply from the server is not a terminal failure: after a
    jittered exponential backoff on its clock the client asks again for
    what was shed, up to [max_attempts] and a total [deadline_us]; past
    either bound the failure becomes [Server_busy].  A shed request from
    byte zero is asked again from byte zero; a shed resume is asked
    again from the verified prefix, which it keeps.  A request the client
    sends on its own (a retry or a resume) that TCP refuses backs off the
    same way.  After an abort the application may hand the client a
    freshly connected socket pair with {!reconnect}, which picks the
    transfer up where it left off. *)

type t

(** Why the transfer failed: the transport gave up, the server shed the
    request past the retry budget, or the reply stream itself was
    unusable. *)
type failure =
  | Aborted of Ilp_tcp.Socket.abort_reason
  | Server_busy
  | Protocol of string

val failure_to_string : failure -> string

(** What a request asks the server for: [Fresh], the whole transfer from
    byte zero under the current idempotency id; or [Resume], everything
    past the verified prefix under a fresh id. *)
type ask = Fresh | Resume

(** The session, one value (DESIGN §10, §15): nothing outstanding ([Idle]),
    a request sent, a shed or refused one waiting out its backoff (the
    client's one retry timer, built by {!create}, is armed exactly while
    the state is [Backing_off], and asks again for what the state
    holds), a CRC probe guarding the prefix [(copy, offset)]
    outstanding, the server's permanent refusal, or a typed failure
    ([Aborted] or [Server_busy]; a protocol error is recorded beside the
    state, in {!errors}). *)
type state =
  | Idle
  | Sent of ask
  | Backing_off of ask
  | Probing of int * int
  | Rejected
  | Failed of failure

(** Backoff policy for retrying a [Busy]-shed request: attempt [n]
    (1-based) waits [min max_backoff_us (base_backoff_us * 2^(n-1))] plus
    a jitter of up to half that, drawn from the client's own seeded
    stream. *)
type retry_policy = {
  max_attempts : int;
  base_backoff_us : float;
  max_backoff_us : float;
  deadline_us : float;  (** total time budget across all retries *)
}

(** [create ~clock ~engine ~ctrl ~data ()] — [clock] runs the backoff
    retry timer (built here, once, and re-armed by every backoff) and
    stamps the request latency and the
    flight-recorder notes.  Retries follow [retry] (default: 8 attempts,
    500 us doubling to a 50 ms ceiling, 5 s total).  [seed] (default 1)
    drives the jitter and the
    idempotency-id space (clients sharing a server need distinct seeds).
    [idempotent] (default false) stamps every request with a fresh
    idempotency id so a restarted server's dedup cache can answer
    replays; off, requests marshal in the original id-less form,
    byte-identical to the pre-fault-model wire encoding.

    [framed] (default false) negotiates the v2 ("Reverso") framed
    receive: every control message carries {!Messages.flag_rx_framing}
    (flagged wire forms), the data socket parses a {!Ilp_tcp.Framing}
    prelude in front of each reply TSDU, and the server prefixes each
    reply accordingly — the prelude is what lets the receive path land
    out-of-order segments at their final TSDU offset.  Off, every wire
    byte is identical to the unframed protocol. *)
val create :
  clock:Ilp_netsim.Simclock.t ->
  ?retry:retry_policy ->
  ?seed:int ->
  ?idempotent:bool ->
  ?framed:bool ->
  engine:Ilp_core.Engine.t ->
  ctrl:Ilp_tcp.Socket.t ->
  data:Ilp_tcp.Socket.t ->
  unit ->
  t

(** [request_file t ~name ~copies ~max_reply ~expected] sends the request;
    [expected] is the file's true contents, used to verify the replies.
    Resets the retry budget.  A send TCP refuses is returned, and nothing
    is scheduled: the caller decides when to ask again. *)
val request_file :
  t ->
  name:string ->
  copies:int ->
  max_reply:int ->
  expected:string ->
  (unit, Ilp_tcp.Socket.send_error) result

(** What a {!reconnect} decided to do. *)
type reconnect_summary = {
  resumed_from : (int * int) option;
      (** [(copy, offset)] the transfer continues from — never byte zero
          when a verified prefix exists; [None] means from scratch (or
          nothing left to re-issue) *)
  bytes_verified : int;  (** payload bytes already received and verified,
                             all kept across the reconnect *)
  retries_consumed : int;  (** cumulative backoff retries spent so far *)
}

(** [reconnect t ~ctrl ~data] resumes after an abort on a new (already
    connected and established) socket pair: rewires receive processing
    and failure reporting, clears the failure state and the pending
    retry timer, and picks up the outstanding request where it left off.
    With a partial mid-copy prefix, a CRC probe first verifies the
    prefix against the (possibly restarted) server's file; the resume
    request then continues at the verified offset under a fresh
    idempotency id.  With nothing received, the request is re-issued
    under the {e same} id, so a server that already executed it answers
    from its dedup cache.  A request TCP refuses backs off as after a
    [Busy], for every resume point; [Error] is a request too big for one
    segment, or a refused probe (the client is then [Idle]).  Counted
    once per call in [rpc.client.reconnects]. *)
val reconnect :
  t ->
  ctrl:Ilp_tcp.Socket.t ->
  data:Ilp_tcp.Socket.t ->
  (reconnect_summary, Ilp_tcp.Socket.send_error) result

(** All [copies] fully received with every byte verified (and no abort,
    shed exhaustion or error recorded). *)
val transfer_complete : t -> bool

(** The typed failure, if any: a recorded transport abort wins over
    [Server_busy], which wins over protocol errors; [None] while the
    transfer is clean (including while a backoff retry is pending). *)
val failure : t -> failure option

(** The session's state, read only: for checks such as [test_rpc]'s
    session property. *)
val state : t -> state

(** Payload bytes received and verified so far. *)
val bytes_received : t -> int

val replies_received : t -> int

(** Verification or decoding failures (empty on a clean run). *)
val errors : t -> string list

(** The server reported Not_found / Refused. *)
val rejected : t -> bool

(** Times {!reconnect} was invoked. *)
val reconnects : t -> int

(** Resume requests actually sent (transfers continued from a nonzero
    copy/offset, or re-issued under a fresh id after a dedup replay). *)
val resumes : t -> int

(** The {!Ilp_netsim.Simclock} owner id tagging the client's backoff
    retry timer — pending count must be 0 after an abort or reconnect. *)
val timer_owner : t -> int

(** [Busy] replies received (each one that sheds the outstanding request
    either triggers a backoff retry or, past the budget, the
    [Server_busy] failure). *)
val busy_replies : t -> int

(** Backoff retries scheduled so far. *)
val retries : t -> int

(** [slice_matches expected ~off data ~doff ~len] is
    [String.sub expected off len = String.sub data doff len], compared in
    place, eight bytes at a time, without allocating: the payload check a
    receiver runs on a TSDU still in its pool buffer (pass the buffer
    through [Bytes.unsafe_to_string]).  Both spans are bounds-checked
    before any byte is compared: a negative [len] or offset, or a span
    that reaches past the end of either string, raises
    [Invalid_argument] even when an earlier byte differs. *)
val slice_matches : string -> off:int -> string -> doff:int -> len:int -> bool
