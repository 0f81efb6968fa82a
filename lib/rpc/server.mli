(** The file-transfer server.

    Serves many concurrent clients: each {!attach} registers one
    ctrl/data connection pair under its own connection id, with its own
    reply queue and drain loop on the simulated clock — a slow or dead
    client stalls only its own queue, never its neighbours'.

    Each admitted request is segmented into reply messages of at most
    [max_reply] payload bytes (one TSDU = one TPDU: each reply is one TCP
    segment) and streamed over that connection's data socket, respecting
    TCP's window and ring-buffer back-pressure by retrying on the clock —
    the paper's "if there is not enough TCP buffer, all data manipulations
    are delayed until there is enough buffer space available again".

    {2 Admission control and load shedding}

    Back-pressure alone lets one greedy or stalled client balloon the
    server, so budgets ({!limits}) bound the damage: concurrent
    connections, queued reply bytes per connection and across the server,
    and request age at drain time.  A request that would exceed a budget
    is {e shed}: answered with a small typed [Busy] reply (or [Refused]
    when it could never fit), counted in a per-reason ledger ({!shed_count}),
    and never queued — so queue growth is bounded by construction and the
    client learns to back off rather than time out. *)

type t

(** Why a request was shed rather than served. *)
type shed_reason =
  | Too_many_connections  (** arrived on an unadmitted connection *)
  | Conn_queue_full  (** would exceed this connection's queued-bytes budget *)
  | Server_queue_full  (** would exceed the server-wide queued-bytes budget *)
  | Request_too_old
      (** still queued past [max_request_age_us]; its remaining segments
          are dropped and one [Busy] sent instead *)
  | Oversized_request
      (** could never fit the per-connection budget; answered [Refused]
          (permanent), not [Busy] *)

val shed_reasons : shed_reason list
val shed_reason_to_string : shed_reason -> string

type limits = {
  max_connections : int;  (** concurrent admitted connection pairs *)
  max_conn_queue_bytes : int;  (** queued reply payload bytes per connection *)
  max_total_queue_bytes : int;  (** queued reply payload bytes server-wide *)
  max_request_age_us : float;  (** age at which queued segments are shed *)
}

(** 64 connections, 256 KiB per connection, 1 MiB total, 60 s age. *)
val default_limits : limits

(** {2 Crash-surviving state}

    The state a node crash does {e not} erase: the served files and the
    bounded at-most-once dedup cache keyed by request idempotency id,
    together with its conservation ledger.  A restarted server instance
    is built over the same store ([create ~store]), so a replayed id is
    answered from the cache (a data-less status reply) instead of being
    re-executed. *)

type store

(** [create_store ()] — the dedup cache holds the last 1024 ids;
    eviction is FIFO by insertion. *)
val create_store : unit -> store

(** Replays answered from the dedup cache. *)
val dedup_hits : store -> int

(** Id-carrying requests admitted and executed (their terminal status was
    cached). *)
val executions : store -> int

(** Id-carrying requests decoded, across all server instances over this
    store. *)
val id_requests_seen : store -> int

(** Id-carrying requests shed or rejected without caching (a retry with
    the same id is free to succeed).  Conservation law, holding at every
    instant: [executions + dedup_hits + dedup_sheds = id_requests_seen]. *)
val dedup_sheds : store -> int

(** [create ~clock ~engine ()] builds a server with no connections.  A
    connection whose reply TCP refuses (back-pressure) retries its drain
    150 us later.  [store] (fresh by default) carries the crash-surviving
    state; pass a previous instance's store to model a restart. *)
val create :
  clock:Ilp_netsim.Simclock.t ->
  engine:Ilp_core.Engine.t ->
  ?limits:limits ->
  ?store:store ->
  unit ->
  t

(** This instance's crash-surviving state (to thread into the replacement
    instance after a simulated crash). *)
val store : t -> store

(** Node crash: every connection dies with the process — queues
    abandoned (counted in {!replies_abandoned} and the registry's
    [rpc.statuses_abandoned]),
    drain timers cancelled.  The sockets themselves belong to the
    harness, which destroys them separately. *)
val shutdown : t -> unit

(** The {!Ilp_netsim.Simclock} owner id tagging every drain timer this
    instance schedules — [Simclock.pending_count ~owner] must be 0 after
    {!shutdown}. *)
val timer_owner : t -> int

(** [attach t ~ctrl ~data] registers a connection pair and returns its
    connection id: [ctrl] is the inbound request connection (its receive
    processing is configured from the engine's mode), [data] the outbound
    reply connection.  Beyond [max_connections] the pair is still wired
    but unadmitted: every request on it is shed with [Busy] until a slot
    frees up (a live connection dies).  Both sockets'
    abort callbacks are claimed: either one dying abandons the
    connection's queue and frees its slot. *)
val attach : t -> ctrl:Ilp_tcp.Socket.t -> data:Ilp_tcp.Socket.t -> int

(** [add_file t ~name ~addr ~len] registers a file whose contents live in
    simulated memory at [addr]. *)
val add_file : t -> name:string -> addr:int -> len:int -> unit

(** Replies queued but not yet accepted by TCP, across all connections.
    An admitted request is one queue entry, a cursor over its data
    replies, and counts here for every reply it has left. *)
val pending_replies : t -> int

(** Live admitted connections. *)
val connections : t -> int

(** Reply payload bytes currently queued across all connections. *)
val queued_bytes : t -> int

(** High-water mark of {!queued_bytes} — must never exceed
    [max_total_queue_bytes] if the budgets hold. *)
val peak_queued_bytes : t -> int

val replies_sent : t -> int

(** Replies discarded because their connection died (aborted or closed)
    before they could be sent; the drain loop stops instead of retrying
    forever.  Status-only replies (Busy, Refused, Not_found) discarded
    the same way count in the registry's [rpc.statuses_abandoned]. *)
val replies_abandoned : t -> int

val requests_received : t -> int

(** CRC resume probes received (answered with a data-less [Ok] when the
    stored file's prefix matches, [Refused] otherwise). *)
val probes_received : t -> int

(** The shed ledger: this server's count for one reason (the registry's
    [rpc.shed.<reason>]). *)
val shed_count : t -> shed_reason -> int

(** [set_reply_probe t ~before ~after] instruments the send path:
    [before] fires just before each send attempt (snapshot point for
    attributing memory accesses), [after ~wire_len ~elapsed_us
    ~syscopy_us] after each successfully queued reply with the simulated
    time the send path consumed (the paper's "send packet processing")
    and the portion spent in the user-to-kernel system copy. *)
val set_reply_probe :
  t ->
  before:(unit -> unit) ->
  after:(wire_len:int -> elapsed_us:float -> syscopy_us:float -> unit) ->
  unit
