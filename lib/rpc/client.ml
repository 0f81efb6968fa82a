module Simclock = Ilp_netsim.Simclock
module Xorshift = Ilp_netsim.Xorshift
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module Stub_ilp = Ilp_codec.Stub_ilp
module Xdr = Ilp_codec.Xdr
module M = Ilp_obs.Metrics
module Recorder = Ilp_obs.Recorder
module Trace = Ilp_obs.Trace

(* Each client's counters: one block of the registry's [rpc.client.*]
   family. *)
let family =
  M.family M.default
    [| "rpc.client.busy_replies"; "rpc.client.retries";
       "rpc.client.reconnects"; "rpc.client.resumes" |]

let c_busy_replies = 0
let c_retries = 1
let c_reconnects = 2
let c_resumes = 3

(* End-to-end request latency: from [request_file] to the moment every
   copy of the transfer is verified. *)
let m_latency = M.histogram M.default "rpc.latency_us"

type failure =
  | Aborted of Socket.abort_reason
  | Server_busy
  | Protocol of string

let failure_to_string = function
  | Aborted r -> "transport aborted: " ^ Socket.abort_reason_to_string r
  | Server_busy -> "server busy: shed and retries exhausted"
  | Protocol e -> "protocol failure: " ^ e

type retry_policy = {
  max_attempts : int;
  base_backoff_us : float;
  max_backoff_us : float;
  deadline_us : float;
}

let default_retry =
  { max_attempts = 8;
    base_backoff_us = 500.0;
    max_backoff_us = 50_000.0;
    deadline_us = 5_000_000.0 }

type ask = Fresh | Resume

type state =
  | Idle
  | Sent of ask
  | Backing_off of ask
  | Probing of int * int
  | Rejected
  | Failed of failure

(* What [request_file] asked for, and how much of each copy is verified:
   [received.(c)] is a contiguous prefix (enforced in [consume_reply]),
   so it doubles as the copy's resume offset. *)
type job = {
  name : string;
  copies : int;
  max_reply : int;
  expected : string;
  received : int array;
}

let no_job = { name = ""; copies = 0; max_reply = 0; expected = ""; received = [||] }

type reconnect_summary = {
  resumed_from : (int * int) option;
      (* (copy, offset) the transfer will continue from; None = from scratch *)
  bytes_verified : int;
  retries_consumed : int;
}

type t = {
  engine : Engine.t;
  clock : Simclock.t;
  retry : retry_policy;
  prng : Xorshift.t;  (* retry jitter, seeded at creation *)
  owner : int;  (* Simclock owner tag on the backoff retry timer *)
  mutable retry_timer : Simclock.timer;  (* built by [create], armed by [back_off] *)
  use_ids : bool;
  framed : bool;
      (* negotiate v2 ("Reverso") framed streams: every control message
         carries the framing flag and the data socket parses preludes *)
  mutable next_req_id : int;
  mutable cur_req_id : int;  (* id of the in-flight request; 0 = v1 *)
  mutable ctrl : Socket.t;
  mutable data : Socket.t;
  mutable state : state;  (* written by [set] alone *)
  mutable job : job;
  mutable bytes_received : int;
  mutable replies_received : int;
  mutable errors : string list;
  blk : int array;
  (* Every reply is decoded in place through [dec] into [reply]. *)
  dec : Xdr.Dec.t;
  reply : Messages.reply_header;
  (* The retry budget, across every send and backoff since the last
     [request_file] or [reconnect]. *)
  mutable attempts : int;
  mutable first_attempt_at : float option;
  mutable request_started_at : float option;
}

let bump t i = t.blk.(i) <- t.blk.(i) + 1

let error t fmt = Printf.ksprintf (fun s -> t.errors <- s :: t.errors) fmt

(* Flight-recorder identity: client events are keyed by the control
   socket's local port. *)
let rec_conn t = Socket.local_port t.ctrl

let fresh_id t =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  id

(* The one writer of the session state.  Every change cancels the retry
   timer, which only [back_off] arms, right after entering [Backing_off]:
   a retry never fires into a state that did not arm it. *)
let set t st =
  Simclock.cancel t.retry_timer;
  t.state <- st

(* The first copy not yet wholly verified; [job.copies] once every copy
   is.  Top level over the typed job, not a closure: the bench asks after
   every delivered data segment. *)
let rec first_incomplete job c =
  if c < job.copies && job.received.(c) = String.length job.expected then
    first_incomplete job (c + 1)
  else c

let send_ctrl t stub =
  let ps =
    Engine.prepare_stream_segments t.engine (Stub_ilp.segments stub)
      ~n:(Stub_ilp.count stub)
  in
  Socket.send_message t.ctrl ~len:ps.Engine.stream_len ~fill:ps.Engine.fill_range

(* Every control message a framing-negotiated client sends carries the
   flag — the first one a (possibly restarted) server sees on a
   connection may be a request or a probe, and the server must know
   before building its first reply. *)
let ctrl_flags t = if t.framed then Messages.flag_rx_framing else 0

(* The one request path.  [Fresh] asks for the whole transfer from byte
   zero under the current id, so a retry of one logical request carries
   one idempotency id.  [Resume] asks for everything past the verified
   prefix, read now, under a fresh id: the previous one may be cached on
   the server, and a cached answer is a data-less status, not the
   missing bytes.  The caller asks [Resume] only while a copy is
   incomplete. *)
let send t a =
  let job = t.job in
  let start_copy, start_offset =
    match a with
    | Fresh ->
        Array.fill job.received 0 job.copies 0;
        t.bytes_received <- 0;
        t.replies_received <- 0;
        (0, 0)
    | Resume ->
        t.cur_req_id <- (if t.use_ids then fresh_id t else 0);
        let c = first_incomplete job 0 in
        (c, job.received.(c))
  in
  let r =
    (* The record itself, not [Messages.request]: each optional argument
       would box its value on every request. *)
    send_ctrl t
      (Messages.request_segments ~flags:(ctrl_flags t)
         { Messages.file_name = job.name;
           copies = job.copies;
           max_reply = job.max_reply;
           req_id = t.cur_req_id;
           start_copy;
           start_offset })
  in
  (match (r, a) with
  | Ok (), Fresh -> set t (Sent Fresh)
  | Ok (), Resume ->
      bump t c_resumes;
      Recorder.note Trace.Resume ~conn:(rec_conn t) ~arg:start_offset
        ~ts:(Simclock.now t.clock);
      set t (Sent Resume)
  | Error _, _ -> ());
  r

(* The client's own asks (a retry, or a resume after a probe, a replayed
   id or a reconnect): a send TCP refuses backs off like a [Busy]. *)
let rec ask t a =
  match send t a with
  | Ok () -> Ok ()
  | Error (Socket.Window_full | Socket.Buffer_full | Socket.Not_established) ->
      back_off t a;
      Ok ()
  | Error Socket.Message_too_big as e ->
      error t "request does not fit one segment";
      set t Idle;
      e

(* The one backoff path: exponential backoff with jitter, then [ask]
   again, bounded by attempts and a total deadline.  Past either bound
   the failure becomes typed [Server_busy] — never an untyped stall. *)
and back_off t a =
  let now = Simclock.now t.clock in
  let started =
    match t.first_attempt_at with
    | Some s -> s
    | None ->
        t.first_attempt_at <- Some now;
        now
  in
  if t.attempts >= t.retry.max_attempts || now -. started >= t.retry.deadline_us
  then set t (Failed Server_busy)
  else begin
    t.attempts <- t.attempts + 1;
    bump t c_retries;
    Recorder.note Trace.Retry ~conn:(rec_conn t) ~arg:t.attempts ~ts:now;
    let backoff =
      let b = t.retry.base_backoff_us *. (2.0 ** float_of_int (t.attempts - 1)) in
      (* Stdlib's [min] body on floats: [Float.min] differs on nan. *)
      if t.retry.max_backoff_us <= b then t.retry.max_backoff_us else b
    in
    let jitter = backoff *. 0.5 *. Xorshift.float t.prng in
    set t (Backing_off a);
    Simclock.arm t.retry_timer ~after:(backoff +. jitter)
  end

let on_retry t = match t.state with Backing_off a -> ignore (ask t a) | _ -> ()

(* Top level and self-recursive, not a local closure over its five
   arguments, so a comparison allocates nothing.  Eight bytes per step
   ([=] on two [int64] reads compiles to one unboxed compare), then the
   tail byte by byte; [slice_matches] has checked both spans. *)
let rec spans_match expected off data doff len =
  if len >= 8 then
    String.get_int64_ne expected off = String.get_int64_ne data doff
    && spans_match expected (off + 8) data (doff + 8) (len - 8)
  else
    len = 0
    || (String.unsafe_get expected off = String.unsafe_get data doff
       && spans_match expected (off + 1) data (doff + 1) (len - 1))

let slice_matches expected ~off data ~doff ~len =
  if len < 0 || off < 0 || doff < 0
     || off > String.length expected - len
     || doff > String.length data - len
  then invalid_arg "Client.slice_matches";
  spans_match expected off data doff len

(* Status dispatch; the payload is the span [data.[doff..doff+dlen-1]], a
   window into the pooled TSDU buffer.  Only a session still asking
   reacts to a status: a failed one stays failed until [reconnect]. *)
let consume_reply t hdr ~data ~doff ~dlen =
  match hdr.Messages.status with
  | Messages.Not_found | Messages.Refused -> (
      match t.state with Failed _ -> () | _ -> set t Rejected)
  | Messages.Busy -> (
      bump t c_busy_replies;
      (* Ask again for what was shed: a shed [Resume] keeps the verified
         prefix. *)
      match t.state with Sent a -> back_off t a | _ -> ())
  | Messages.Ok when dlen = 0 -> (
      (* A data-less Ok is pure control: the verdict of an outstanding
         CRC resume probe (the prefix is verified against the restarted
         server's file, so resume exactly there, never from byte zero),
         or a status-only answer (the server's dedup cache replaying an
         executed id, or a resume-at-EOF ack).  A replayed id's cached
         status carries no data: whatever bytes that execution sent are
         gone, so resume from the verified prefix under a fresh id,
         which cannot be cached and so executes. *)
      match t.state with
      | Probing _ -> ignore (ask t Resume)
      | Sent _ when first_incomplete t.job 0 < t.job.copies -> ignore (ask t Resume)
      | _ -> ())
  | Messages.Ok ->
      let job = t.job in
      let off = hdr.Messages.file_offset in
      let copy = hdr.Messages.copy in
      if job == no_job then error t "unsolicited reply"
      else if copy < 0 || copy >= job.copies then error t "bad copy index %d" copy
      else if off < 0 || off + dlen > String.length job.expected then
        error t "reply out of bounds: offset %d len %d" off dlen
      else if off <> job.received.(copy) then
        (* Strict contiguity: TCP delivers in order and the server
           sends each copy sequentially from the requested resume
           point, so any gap or overlap (e.g. a restarted server
           wrongly re-sending from byte zero) is a protocol error,
           not something to paper over. *)
        error t "non-contiguous reply: offset %d, expected %d (copy %d)" off
          job.received.(copy) copy
      else if not (slice_matches job.expected ~off data ~doff ~len:dlen) then
        error t "payload mismatch at offset %d (copy %d)" off copy
      else begin
        job.received.(copy) <- job.received.(copy) + dlen;
        t.bytes_received <- t.bytes_received + dlen;
        (* Transfer just completed: observe the end-to-end latency
           once, against the clock the request was issued under. *)
        if job.received.(copy) = String.length job.expected then
          match t.request_started_at with
          | Some started when first_incomplete job 0 = job.copies ->
              t.request_started_at <- None;
              M.observe m_latency (int_of_float (Simclock.now t.clock -. started))
          | _ -> ()
      end

let handle_reply t ~len =
  t.replies_received <- t.replies_received + 1;
  (* Single-copy: the TSDU lands in a pooled buffer, the reply body is
     decoded in place, the payload compared in place, and the buffer
     released on every path — including decode errors. *)
  match Engine.read_plaintext t.engine ~len with
  | Error e -> error t "unreadable reply: %s" e
  | Ok { Engine.buf; off; len = blen } ->
      (match Messages.decode_reply_view t.dec t.reply buf ~off ~len:blen with
      | Error e -> error t "undecodable reply: %s" e
      | Ok () ->
          consume_reply t t.reply
            ~data:(Bytes.unsafe_to_string buf)
            ~doff:(Xdr.Dec.opaque_off t.dec) ~dlen:t.reply.Messages.data_len);
      Engine.release_plaintext t.engine buf

(* Both connections feed the same failure: losing either one ends the
   transfer, and the first recorded reason is the one reported. *)
let wire_sockets t =
  Socket.set_rx_processing t.data (Engine.rx_processing t.engine);
  (* Covers reconnection too: a fresh data socket must parse preludes
     from its very first reply. *)
  Socket.set_rx_framing t.data t.framed;
  Socket.set_on_message t.data (fun ~len -> handle_reply t ~len);
  let record reason =
    match t.state with
    | Failed (Aborted _) -> ()
    | _ -> set t (Failed (Aborted reason))
  in
  Socket.set_on_abort t.ctrl record;
  Socket.set_on_abort t.data record

let create ~clock ?(retry = default_retry) ?(seed = 1) ?(idempotent = false)
    ?(framed = false) ~engine ~ctrl ~data () =
  let t =
    { engine;
      clock;
      retry;
      prng = Xorshift.create ((seed * 0x9e3779b1) lxor 0x2545f491);
      owner = Simclock.fresh_owner clock;
      retry_timer = Simclock.stopped;
      use_ids = idempotent;
      framed;
      (* Nonzero, and disjoint between clients created with distinct
         seeds — the dedup cache is keyed on the id alone. *)
      next_req_id = ((seed land 0x3ff) * 0x100000) + 1;
      cur_req_id = 0;
      ctrl;
      data;
      state = Idle;
      job = no_job;
      bytes_received = 0;
      replies_received = 0;
      errors = [];
      blk = M.block family;
      dec = Xdr.Dec.create ();
      reply =
        { Messages.status = Messages.Ok; copy = 0; file_offset = 0; total_len = 0;
          data_len = 0 };
      attempts = 0;
      first_attempt_at = None;
      request_started_at = None }
  in
  t.retry_timer <- Simclock.timer clock ~owner:t.owner (fun () -> on_retry t);
  wire_sockets t;
  t

let request_file t ~name ~copies ~max_reply ~expected =
  t.job <- { name; copies; max_reply; expected; received = Array.make copies 0 };
  t.attempts <- 0;
  t.first_attempt_at <- None;
  t.cur_req_id <- (if t.use_ids then fresh_id t else 0);
  t.request_started_at <- Some (Simclock.now t.clock);
  send t Fresh

let reconnect t ~ctrl ~data =
  t.ctrl <- ctrl;
  t.data <- data;
  wire_sockets t;
  set t Idle;
  t.errors <- [];
  (* A new connection epoch gets a fresh retry budget; [retries] keeps
     the cumulative count for the summary. *)
  t.attempts <- 0;
  t.first_attempt_at <- None;
  bump t c_reconnects;
  Recorder.note Trace.Reconnect ~conn:(rec_conn t) ~arg:t.blk.(c_reconnects)
    ~ts:(Simclock.now t.clock);
  let summary resumed_from =
    { resumed_from;
      bytes_verified = t.bytes_received;
      retries_consumed = t.blk.(c_retries) }
  in
  let job = t.job in
  let c = first_incomplete job 0 in
  if c >= job.copies then
    (* No request, or every copy already verified: nothing to ask. *)
    Ok (summary None)
  else
    let off = job.received.(c) in
    if off = 0 then
      (* Nothing received yet: re-issue under the SAME id ([Fresh]), so
         that a lost server that had already executed it is answered from
         the dedup cache (a data-less Ok, and the client then resumes
         under a fresh id).  A crash exactly on a copy boundary leaves no
         partial prefix to verify: resume directly. *)
      match ask t (if c = 0 then Fresh else Resume) with
      | Ok () -> Ok (summary (if c = 0 then None else Some (c, 0)))
      | Error _ as e -> e
    else
      (* Verify the received prefix against the (possibly restarted)
         server's file before resuming mid-copy: probe with the prefix
         CRC; the verdict arrives as a data-less reply and asks for the
         resume. *)
      let crc =
        Ilp_checksum.Crc32.finish
          (Ilp_checksum.Crc32.fold_string ~crc:Ilp_checksum.Crc32.init
             job.expected ~off:0 ~len:off)
      in
      let probe =
        { Messages.p_file_name = job.name;
          p_offset = off;
          p_crc = crc;
          p_req_id = (if t.use_ids then fresh_id t else 0) }
      in
      match send_ctrl t (Messages.probe_segments ~flags:(ctrl_flags t) probe) with
      | Ok () ->
          set t (Probing (c, off));
          Ok (summary (Some (c, off)))
      | Error _ as e -> e

let transfer_complete t =
  match (t.state, t.errors) with
  | (Idle | Sent _ | Backing_off _ | Probing _), [] ->
      t.job != no_job && first_incomplete t.job 0 = t.job.copies
  | (Rejected | Failed _), _ | _, _ :: _ -> false

let failure t =
  match t.state with
  | Failed f -> Some f
  | Idle | Sent _ | Backing_off _ | Probing _ | Rejected -> (
      match List.rev t.errors with [] -> None | e :: _ -> Some (Protocol e))

let state t = t.state
let bytes_received t = t.bytes_received
let replies_received t = t.replies_received
let errors t = List.rev t.errors
let rejected t = match t.state with Rejected -> true | _ -> false
let reconnects t = t.blk.(c_reconnects)
let resumes t = t.blk.(c_resumes)
let busy_replies t = t.blk.(c_busy_replies)
let retries t = t.blk.(c_retries)
let timer_owner t = t.owner
