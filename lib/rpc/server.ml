module Simclock = Ilp_netsim.Simclock
module Socket = Ilp_tcp.Socket
module Framing = Ilp_tcp.Framing
module Engine = Ilp_core.Engine
module Machine = Ilp_memsim.Machine
module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace
module Recorder = Ilp_obs.Recorder

(* Request ids and connection ids key their tables as ints, as [Demux]'s
   ports do: no generic compare per lookup.  [Int.hash] is
   [Hashtbl.hash], so the buckets and the iteration order are the
   polymorphic table's. *)
module Ids = Hashtbl.Make (Int)

type file = { addr : int; len : int }

(* A queued item: either an admitted request, one cursor over the data
   replies it has still to send (tagged with its admission time, so a
   stale request can be shed at drain time), or a small data-less reply
   carrying just a header (status sheds, probe verdicts, dedup
   replays).  The cursor's next reply carries
   [min max_reply (file.len - offset)] bytes of copy [copy] from
   [offset]; [replies] and [bytes] count what is left, so the queue
   holds one entry per request however many replies it makes.  Header
   items bypass the byte budgets — they are the shedding mechanism
   itself and must always be deliverable. *)
type item =
  | Data of {
      file : file;
      enqueued_at : float;
      max_reply : int;
      mutable copy : int;
      mutable offset : int;
      mutable replies : int;
      mutable bytes : int;
    }
  | Status of Messages.reply_header

type shed_reason =
  | Too_many_connections
  | Conn_queue_full
  | Server_queue_full
  | Request_too_old
  | Oversized_request

let shed_reasons =
  [ Too_many_connections; Conn_queue_full; Server_queue_full; Request_too_old;
    Oversized_request ]

let shed_reason_index = function
  | Too_many_connections -> 0
  | Conn_queue_full -> 1
  | Server_queue_full -> 2
  | Request_too_old -> 3
  | Oversized_request -> 4

let shed_reason_to_string = function
  | Too_many_connections -> "too_many_connections"
  | Conn_queue_full -> "conn_queue_full"
  | Server_queue_full -> "server_queue_full"
  | Request_too_old -> "request_too_old"
  | Oversized_request -> "oversized_request"

(* Decode shed-reason args in flight-recorder dumps. *)
let () =
  Recorder.set_arg_printer Trace.Shed (fun i ->
      match List.nth_opt shed_reasons i with
      | Some r -> shed_reason_to_string r
      | None -> string_of_int i)

type limits = {
  max_connections : int;
  max_conn_queue_bytes : int;
  max_total_queue_bytes : int;
  max_request_age_us : float;
}

(* Each server instance's counters, the shed ledger included, are one
   block of the registry's [rpc.*] family; the crash-surviving store has
   its own block for the dedup counters. *)
let family =
  M.family M.default
    (Array.of_list
       ([ "rpc.requests_received"; "rpc.bad_requests"; "rpc.server.probes";
          "rpc.replies_sent"; "rpc.replies_abandoned"; "rpc.statuses_abandoned" ]
       @ List.map (fun r -> "rpc.shed." ^ shed_reason_to_string r) shed_reasons))

let c_requests_received = 0
let c_bad_requests = 1
let c_probes = 2
let c_replies_sent = 3
let c_replies_abandoned = 4
let c_statuses_abandoned = 5
let c_shed reason = 6 + shed_reason_index reason

let store_family =
  M.family M.default [| "rpc.server.dedup_hits"; "rpc.server.executions" |]

let c_dedup_hits = 0
let c_executions = 1
let bump blk i = blk.(i) <- blk.(i) + 1
let g_connections = M.gauge M.default "rpc.connections"
let g_queued_bytes = M.gauge M.default "rpc.queued_bytes"

let default_limits =
  { max_connections = 64;
    max_conn_queue_bytes = 256 * 1024;
    max_total_queue_bytes = 1024 * 1024;
    max_request_age_us = 60_000_000.0 }

(* A connection whose reply TCP refused retries its drain this many
   microseconds later. *)
let retry_us = 150.0

type conn = {
  id : int;
  ctrl : Socket.t;
  data : Socket.t;
  queue : item Queue.t;
  admitted : bool;
  mutable queued_bytes : int;
  mutable drain_timer : Simclock.timer;  (* a backpressured drain's retry *)
  mutable dead : bool;
  mutable framed : bool;
      (* the client negotiated v2 framed streams (a flagged control
         message carried [Messages.flag_rx_framing]); every reply TSDU
         on this connection gets a [Framing] prelude *)
}

(* The state a node crash does NOT erase: the served files (they live on
   disk) and the at-most-once dedup cache with its conservation ledger.
   A restarted server instance is built over the same store, so a replay
   of an already-executed idempotency id is answered from the cache
   instead of re-executed.  The cache is bounded: FIFO eviction at
   [dedup_cap] ids. *)
type store = {
  s_files : (string, file) Hashtbl.t;
  dedup : Messages.status Ids.t;
  dedup_order : int Queue.t;
  s_blk : int array;
  mutable id_requests_seen : int;  (* id-carrying requests decoded *)
  mutable dedup_sheds : int;  (* id-carrying requests shed, not cached *)
}

let dedup_cap = 1024

let create_store () =
  { s_files = Hashtbl.create 4;
    dedup = Ids.create 64;
    dedup_order = Queue.create ();
    s_blk = M.block store_family;
    id_requests_seen = 0;
    dedup_sheds = 0 }

(* Cache the terminal status of an executed request.  Sheds (Busy) and
   rejections are never cached: they are re-derivable and a retry with
   the same id must be free to succeed. *)
let store_cache_put st ~req_id status =
  if not (Ids.mem st.dedup req_id) then begin
    if Queue.length st.dedup_order >= dedup_cap then begin
      let evicted = Queue.pop st.dedup_order in
      Ids.remove st.dedup evicted
    end;
    Ids.replace st.dedup req_id status;
    Queue.add req_id st.dedup_order
  end

type t = {
  clock : Simclock.t;
  engine : Engine.t;
  reply_room : int;
      (* the most file bytes one reply message can carry: the engine's
         room behind the reply header, which the reply description fixes *)
  limits : limits;
  owner : int;  (* Simclock owner tag on every drain timer *)
  store : store;
  conns : conn Ids.t;
  mutable next_conn_id : int;
  mutable live_connections : int;
  mutable total_queued_bytes : int;
  mutable peak_queued_bytes : int;
  blk : int array;
  send_marks : float array;
      (* the simulated clock before and after a reply's send, stored
         flat so timing a reply boxes only what the probe receives *)
  mutable probe_before : unit -> unit;
  mutable probe_after : wire_len:int -> elapsed_us:float -> syscopy_us:float -> unit;
}

let machine t = (Engine.sim t.engine).Ilp_memsim.Sim.machine

let count_shed t reason =
  bump t.blk (c_shed reason);
  (* Sheds can precede admission, so there may be no connection yet;
     conn 0 stands for "the server itself". *)
  Recorder.note Trace.Shed ~conn:0 ~arg:(shed_reason_index reason)
    ~ts:(Machine.micros (machine t))

let charge_queue t conn bytes =
  conn.queued_bytes <- conn.queued_bytes + bytes;
  t.total_queued_bytes <- t.total_queued_bytes + bytes;
  M.set g_queued_bytes t.total_queued_bytes;
  if t.total_queued_bytes > t.peak_queued_bytes then
    t.peak_queued_bytes <- t.total_queued_bytes

let release_queue t conn bytes =
  conn.queued_bytes <- conn.queued_bytes - bytes;
  t.total_queued_bytes <- t.total_queued_bytes - bytes;
  M.set g_queued_bytes t.total_queued_bytes

let item_bytes = function Data d -> d.bytes | Status _ -> 0
let item_replies = function Data d -> d.replies | Status _ -> 1

(* A connection whose sockets died (abort or close) will never accept its
   queued replies: abandon them, free the admission slot, and stop the
   drain loop instead of rescheduling forever. *)
let mark_dead t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Simclock.cancel conn.drain_timer;
    if conn.admitted then begin
      t.live_connections <- t.live_connections - 1;
      M.set g_connections t.live_connections
    end;
    let abandoned = Queue.fold (fun n item -> n + item_replies item) 0 conn.queue in
    Queue.iter
      (fun item ->
        release_queue t conn (item_bytes item);
        match item with
        | Data d ->
            t.blk.(c_replies_abandoned) <- t.blk.(c_replies_abandoned) + d.replies
        | Status _ -> bump t.blk c_statuses_abandoned)
      conn.queue;
    Queue.clear conn.queue;
    if abandoned > 0 then
      Recorder.note Trace.Abandon ~conn:(Socket.local_port conn.ctrl)
        ~arg:abandoned ~ts:(Machine.micros (machine t))
  end

let send_reply t conn hdr ~payload_addr =
  let stub = Messages.reply_segments hdr ~payload_addr in
  let ps =
    Engine.prepare_stream_segments t.engine (Ilp_codec.Stub_ilp.segments stub)
      ~n:(Ilp_codec.Stub_ilp.count stub)
  in
  let wire_len = ps.Engine.stream_len in
  (* Framed connections put [seg_unit] prelude bytes on the wire ahead
     of the TSDU; the throughput probe sees what actually went out. *)
  let sent_len =
    if conn.framed then ps.Engine.seg_unit + wire_len else wire_len
  in
  t.probe_before ();
  Machine.store_micros (machine t) t.send_marks 0;
  Socket.reset_syscopy_send conn.data;
  let sent =
    if conn.framed then begin
      (* A framing-negotiated connection: every reply TSDU — even one
         that would fit a single segment — goes out as a framed stream,
         because the peer's receive path parses a prelude at the start
         of each TSDU. *)
      let total, fill =
        Framing.framed_stream ~seg_unit:ps.Engine.seg_unit
          ~stream_len:wire_len
          ~checksummed:(Engine.mode t.engine = Engine.Ilp)
          ~fill_range:ps.Engine.fill_range
      in
      Socket.send_stream conn.data ~seg_unit:ps.Engine.seg_unit ~len:total
        ~fill
    end
    else
      (* A reply that fits one segment is the paper's single TPDU, sent
         now or refused (the per-reply probe behind Table 1 times exactly
         that send); a reply larger than the connection's MSS streams as
         a pipelined TSDU of MSS-sized segments instead. *)
      match
        Socket.send_message conn.data ~len:wire_len ~fill:ps.Engine.fill_range
      with
      | Error Socket.Message_too_big ->
          Socket.send_stream conn.data ~seg_unit:ps.Engine.seg_unit
            ~len:wire_len ~fill:ps.Engine.fill_range
      | r -> r
  in
  match sent with
  | Ok () ->
      Machine.store_micros (machine t) t.send_marks 1;
      bump t.blk c_replies_sent;
      t.probe_after ~wire_len:sent_len
        ~elapsed_us:(t.send_marks.(1) -. t.send_marks.(0))
        ~syscopy_us:(Socket.syscopy_send_us conn.data);
      `Sent
  | Error _ -> `Backpressure

let status_hdr ?(copy = 0) ?(file_offset = 0) ?(total_len = 0) status =
  { Messages.status; copy; file_offset; total_len; data_len = 0 }

let send_status t conn hdr = send_reply t conn hdr ~payload_addr:0

(* The request at the head of the queue is shed as a whole: drop what
   it has left to send and answer with one Busy, queued last. *)
let shed_front_request t conn ~bytes =
  ignore (Queue.pop conn.queue);
  release_queue t conn bytes;
  Queue.add (Status (status_hdr Messages.Busy)) conn.queue

let rec drain t conn =
  if Socket.failure conn.data <> None || Socket.state conn.data = Socket.Closed
  then mark_dead t conn
  else if not (Queue.is_empty conn.queue) then
    match Queue.peek conn.queue with
    | Status hdr -> (
        match send_status t conn hdr with
        | `Sent ->
            ignore (Queue.pop conn.queue);
            drain t conn
        | `Backpressure -> Simclock.arm conn.drain_timer ~after:retry_us)
    | Data d ->
        if
          Simclock.now t.clock -. d.enqueued_at > t.limits.max_request_age_us
        then begin
          count_shed t Request_too_old;
          shed_front_request t conn ~bytes:d.bytes;
          drain t conn
        end
        else
          let seg_len = Int.min d.max_reply (d.file.len - d.offset) in
          match
            send_reply t conn
              { Messages.status = Messages.Ok;
                copy = d.copy;
                file_offset = d.offset;
                total_len = d.file.len;
                data_len = seg_len }
              ~payload_addr:(d.file.addr + d.offset)
          with
          | `Sent ->
              (* Every copy after the first starts at byte 0. *)
              if d.offset + seg_len < d.file.len then d.offset <- d.offset + seg_len
              else begin
                d.copy <- d.copy + 1;
                d.offset <- 0
              end;
              d.replies <- d.replies - 1;
              d.bytes <- d.bytes - seg_len;
              if d.replies = 0 then ignore (Queue.pop conn.queue);
              release_queue t conn seg_len;
              drain t conn
          | `Backpressure -> Simclock.arm conn.drain_timer ~after:retry_us

let kick t conn = if not (Simclock.is_pending conn.drain_timer) then drain t conn

let enqueue_hdr t conn hdr =
  if not conn.dead then begin
    Queue.add (Status hdr) conn.queue;
    kick t conn
  end

let enqueue_status t conn status = enqueue_hdr t conn (status_hdr status)

(* Pure CRC32 over the stored file's prefix — the server's side of the
   client's resume handshake.  Uncharged: the probe models a disk/page
   cache read, not a data manipulation on the measured path. *)
let file_prefix_crc t file ~len =
  let mem = (Engine.sim t.engine).Ilp_memsim.Sim.mem in
  let raw = Ilp_memsim.Mem.raw mem in
  Ilp_checksum.Crc32.finish
    (Ilp_checksum.Crc32.fold_bytes ~crc:Ilp_checksum.Crc32.init raw
       ~off:file.addr ~len)

let handle_probe t conn p =
  bump t.blk c_probes;
  match Hashtbl.find_opt t.store.s_files p.Messages.p_file_name with
  | None -> enqueue_status t conn Messages.Not_found
  | Some file ->
      let hdr st =
        status_hdr ~file_offset:p.Messages.p_offset ~total_len:file.len st
      in
      if p.Messages.p_offset < 0 || p.Messages.p_offset > file.len then begin
        bump t.blk c_bad_requests;
        enqueue_hdr t conn (hdr Messages.Refused)
      end
      else if file_prefix_crc t file ~len:p.Messages.p_offset = p.Messages.p_crc
      then enqueue_hdr t conn (hdr Messages.Ok)
      else enqueue_hdr t conn (hdr Messages.Refused)

let handle_req t conn req =
  let idd = req.Messages.req_id <> 0 in
  if idd then t.store.id_requests_seen <- t.store.id_requests_seen + 1;
  (* An id-carrying request that is shed or rejected is NOT cached (a
     retry with the same id must be free to succeed), but it is counted,
     so the conservation law [executions + dedup_hits + dedup_sheds =
     id_requests_seen] holds at every instant. *)
  let shed_idd () = if idd then t.store.dedup_sheds <- t.store.dedup_sheds + 1 in
  match
    if idd then Ids.find_opt t.store.dedup req.Messages.req_id else None
  with
  | Some cached ->
      (* At-most-once replay: answer from the cache with a data-less
         status; the work is not re-executed. *)
      bump t.store.s_blk c_dedup_hits;
      enqueue_status t conn cached
  | None ->
      if not conn.admitted then begin
        count_shed t Too_many_connections;
        shed_idd ();
        enqueue_status t conn Messages.Busy
      end
      else (
        match Hashtbl.find_opt t.store.s_files req.Messages.file_name with
        | None ->
            shed_idd ();
            enqueue_status t conn Messages.Not_found
        | Some file ->
            let start_copy = req.Messages.start_copy in
            let start_offset = req.Messages.start_offset in
            if
              start_copy < 0 || start_offset < 0 || start_offset > file.len
              || (start_copy > 0 && start_copy >= req.Messages.copies)
            then begin
              (* A resume point outside the file is a malformed request,
                 not a load shed. *)
              bump t.blk c_bad_requests;
              shed_idd ();
              enqueue_status t conn Messages.Refused
            end
            else
              let request_bytes =
                (req.Messages.copies - start_copy) * file.len - start_offset
              in
              if request_bytes > t.limits.max_conn_queue_bytes then begin
                (* Could never fit: permanent refusal, not a retryable shed. *)
                count_shed t Oversized_request;
                shed_idd ();
                enqueue_status t conn Messages.Refused
              end
              else if
                conn.queued_bytes + request_bytes > t.limits.max_conn_queue_bytes
              then begin
                count_shed t Conn_queue_full;
                shed_idd ();
                enqueue_status t conn Messages.Busy
              end
              else if
                t.total_queued_bytes + request_bytes
                > t.limits.max_total_queue_bytes
              then begin
                count_shed t Server_queue_full;
                shed_idd ();
                enqueue_status t conn Messages.Busy
              end
              else begin
                if idd then begin
                  bump t.store.s_blk c_executions;
                  store_cache_put t.store ~req_id:req.Messages.req_id Messages.Ok
                end;
                if request_bytes <= 0 then
                  (* Nothing left to send (resume point at EOF): still
                     answer, so the client is never left waiting. *)
                  enqueue_hdr t conn
                    (status_hdr ~copy:start_copy ~file_offset:start_offset
                       ~total_len:file.len Messages.Ok)
                else begin
                  (* [max_reply] arrives over the wire: cap each reply at
                     what this server's engine can carry (the client
                     accepts any contiguous split of the file). *)
                  let max_reply =
                    Int.min (Int.max 16 req.Messages.max_reply) t.reply_room
                  in
                  (* Each copy is cut into [max_reply]-byte replies from
                     its first byte to be sent: [start_offset] in the
                     first, 0 in the rest.  A resume point at the end of
                     a copy starts at the next one. *)
                  let replies_of n = (n + max_reply - 1) / max_reply in
                  let later_copies = req.Messages.copies - 1 - start_copy in
                  let at_end = start_offset >= file.len in
                  Queue.add
                    (Data
                       { file;
                         enqueued_at = Simclock.now t.clock;
                         max_reply;
                         copy = (if at_end then start_copy + 1 else start_copy);
                         offset = (if at_end then 0 else start_offset);
                         replies =
                           replies_of (file.len - start_offset)
                           + (later_copies * replies_of file.len);
                         bytes = request_bytes })
                    conn.queue;
                  charge_queue t conn request_bytes;
                  kick t conn
                end
              end)

let handle_request t conn ~len =
  bump t.blk c_requests_received;
  match
    (* Single-copy: decode the request body in place from a pooled TSDU
       buffer, released as soon as the decode finishes (the request's
       fields are scalars plus the short file name). *)
    match Engine.read_plaintext t.engine ~len with
    | Error e -> Error e
    | Ok { Engine.buf; off; len = blen } ->
        let r = Messages.decode_ctrl_bytes buf ~off ~len:blen in
        Engine.release_plaintext t.engine buf;
        r
  with
  | Error _ ->
      bump t.blk c_bad_requests;
      enqueue_status t conn Messages.Not_found
  | Ok _ when conn.dead -> ()  (* or shut down, sockets live: queue nothing *)
  | Ok (c, flags) ->
      (* A flagged control message negotiates capabilities for the whole
         connection — before any reply is built, so even this message's
         own reply honours them.  A reconnecting client's first message
         may be a probe, hence probes carry the flag word too. *)
      if flags land Messages.flag_rx_framing <> 0 then conn.framed <- true;
      (match c with
      | Messages.Probe p -> handle_probe t conn p
      | Messages.Request req -> handle_req t conn req)

let create ~clock ~engine ?(limits = default_limits) ?(store = create_store ())
    () =
  (* At least 1, so a misconfigured engine fails loudly instead of
     looping. *)
  let reply_room =
    Int.max 1
      (Engine.max_payload engine
         ~prefix_len:(String.length (Messages.reply_prefix (status_hdr Messages.Ok))))
  in
  { clock;
    engine;
    reply_room;
    limits;
    owner = Simclock.fresh_owner clock;
    store;
    conns = Ids.create 8;
    next_conn_id = 0;
    live_connections = 0;
    total_queued_bytes = 0;
    peak_queued_bytes = 0;
    blk = M.block family;
    send_marks = Array.make 2 0.0;
    probe_before = (fun () -> ());
    probe_after = (fun ~wire_len:_ ~elapsed_us:_ ~syscopy_us:_ -> ()) }

let attach t ~ctrl ~data =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let admitted = t.live_connections < t.limits.max_connections in
  let conn =
    { id; ctrl; data; queue = Queue.create (); admitted;
      queued_bytes = 0; drain_timer = Simclock.stopped; dead = false;
      framed = false }
  in
  conn.drain_timer <- Simclock.timer t.clock ~owner:t.owner (fun () -> drain t conn);
  if admitted then begin
    t.live_connections <- t.live_connections + 1;
    M.set g_connections t.live_connections
  end;
  Ids.replace t.conns id conn;
  (* Requests arrive through the same manipulation stack as any message. *)
  Socket.set_rx_processing ctrl (Engine.rx_processing t.engine);
  Socket.set_on_message ctrl (fun ~len -> handle_request t conn ~len);
  (* Either socket dying ends the connection: abandon its queue and free
     the admission slot so a waiting client can be served. *)
  Socket.set_on_abort ctrl (fun _ -> mark_dead t conn);
  Socket.set_on_abort data (fun _ -> mark_dead t conn);
  id

let add_file t ~name ~addr ~len =
  Hashtbl.replace t.store.s_files name { addr; len }

(* Node crash: every connection dies with the process — queues abandoned,
   drain timers cancelled.  The [store] survives; a new instance built
   over it (Rpc_server.create ~store) is the restarted server. *)
let shutdown t =
  Ids.iter (fun _ conn -> mark_dead t conn) t.conns;
  Ids.reset t.conns

let pending_replies t =
  Ids.fold
    (fun _ conn acc -> Queue.fold (fun n item -> n + item_replies item) acc conn.queue)
    t.conns 0

let connections t = t.live_connections
let queued_bytes t = t.total_queued_bytes
let peak_queued_bytes t = t.peak_queued_bytes
let replies_sent t = t.blk.(c_replies_sent)
let replies_abandoned t = t.blk.(c_replies_abandoned)
let requests_received t = t.blk.(c_requests_received)
let probes_received t = t.blk.(c_probes)
let timer_owner t = t.owner
let store t = t.store
let dedup_hits st = st.s_blk.(c_dedup_hits)
let executions st = st.s_blk.(c_executions)
let id_requests_seen st = st.id_requests_seen
let dedup_sheds st = st.dedup_sheds
let shed_count t reason = t.blk.(c_shed reason)

let set_reply_probe t ~before ~after =
  t.probe_before <- before;
  t.probe_after <- after
