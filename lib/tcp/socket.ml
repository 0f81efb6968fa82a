open Ilp_memsim
module Simclock = Ilp_netsim.Simclock
module Datagram = Ilp_netsim.Datagram
module Ipv4 = Ilp_netsim.Ipv4

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Time_wait
  | Closing

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closing -> "CLOSING"

(* A state's flight-recorder [arg] is its position here (new ones append). *)
let all_states =
  [| Closed; Listen; Syn_sent; Syn_rcvd; Established; Fin_wait_1; Fin_wait_2;
     Close_wait; Last_ack; Time_wait; Closing |]

let state_index st =
  let i = ref 0 in
  while all_states.(!i) <> st do incr i done;
  !i

type config = {
  mss : int;
  send_buffer : int;
  recv_window : int;
  rto_initial_us : float;
  rto_min_us : float;
  sack : bool;
  stall_deadline_us : float;
}

let default_config =
  { mss = 1460;
    send_buffer = 16 * 1024;
    recv_window = 16 * 1024;
    rto_initial_us = 3_000.0;
    rto_min_us = 1_000.0;
    sack = true;
    stall_deadline_us = 3_000_000.0 }

let rto_max_us = 4_000_000.0
let max_retries = 8

(* ALU ops charged per data segment for tcp_output/tcp_input state
   processing, and for the short path (pure control segments and the
   per-segment kernel demultiplex). *)
let control_ops = 1200
let ack_ops = 150

(* Access width of the system-copy loops. *)
let blit_unit = 4
let persist_initial_us = 5_000.0
let persist_max_us = 320_000.0
let max_pending_streams = 8

type rx_processing =
  | Rx_separate of
      (Mem.t -> src:int -> dst_off:int -> len:int -> (unit, string) result)
  | Rx_integrated of
      (Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (Ilp_checksum.Internet.acc, string) result)

type send_error = Not_established | Message_too_big | Buffer_full | Window_full

type drop_reason = Bad_ip | Bad_header | Bad_length | Bad_checksum | Out_of_window

let drop_reasons = [ Bad_ip; Bad_header; Bad_length; Bad_checksum; Out_of_window ]

let drop_reason_index = function
  | Bad_ip -> 0
  | Bad_header -> 1
  | Bad_length -> 2
  | Bad_checksum -> 3
  | Out_of_window -> 4

let drop_reason_to_string = function
  | Bad_ip -> "bad_ip"
  | Bad_header -> "bad_header"
  | Bad_length -> "bad_length"
  | Bad_checksum -> "bad_checksum"
  | Out_of_window -> "out_of_window"

type abort_reason =
  | Retry_exhausted
  | Handshake_failed
  | Close_timeout
  | Peer_stalled
  | Misbehaving_peer
  | Connection_reset

let abort_reason_to_string = function
  | Retry_exhausted -> "retransmission retries exhausted"
  | Handshake_failed -> "handshake retries exhausted"
  | Close_timeout -> "close (FIN) retries exhausted"
  | Peer_stalled -> "peer window stalled past the persist deadline"
  | Misbehaving_peer -> "peer acknowledged data that was never sent"
  | Connection_reset -> "connection reset by peer"

let all_abort_reasons =
  [| Retry_exhausted; Handshake_failed; Close_timeout; Peer_stalled;
     Misbehaving_peer; Connection_reset |]

let abort_reason_index = function
  | Retry_exhausted -> 0
  | Handshake_failed -> 1
  | Close_timeout -> 2
  | Peer_stalled -> 3
  | Misbehaving_peer -> 4
  | Connection_reset -> 5

type keepalive_verdict = Peer_alive | Peer_reset | Peer_silent

module M = Ilp_obs.Metrics
module Trace = Ilp_obs.Trace
module Recorder = Ilp_obs.Recorder

(* The flight recorder stores bare ints; install the decoders for this
   module's encodings once so dumps print symbolic names. *)
let () =
  Recorder.set_arg_printer Trace.State (fun i ->
      if i >= 0 && i < Array.length all_states then
        state_to_string all_states.(i)
      else string_of_int i);
  Recorder.set_arg_printer Trace.Abort (fun i ->
      if i >= 0 && i < Array.length all_abort_reasons then
        abort_reason_to_string all_abort_reasons.(i)
      else string_of_int i)

(* Every per-socket count lives in the socket's block of this registry
   family: the [stats] fields in order (bar the [peak_in_flight]
   high-water mark), then the drop ledger and the typed aborts.  The
   registry reports each name summed over every socket. *)
let family =
  M.family M.default
    (Array.of_list
       ([ "tcp.segments_sent"; "tcp.segments_received"; "tcp.bytes_sent";
          "tcp.bytes_delivered"; "tcp.retransmissions"; "tcp.checksum_failures";
          "tcp.out_of_order"; "tcp.duplicates"; "tcp.acks_sent";
          "tcp.ip_errors"; "tcp.fast_retransmits"; "tcp.persist_probes";
          "tcp.zero_window_stalls"; "tcp.ooo_placed"; "tcp.rst_tx";
          "tcp.rst_rx"; "tcp.keepalive_probes"; "tcp.rto_fallbacks";
          "tcp.sack_blocks_rx"; "tcp.sack_blocks_tx"; "tcp.sack_invalid";
          "tcp.sack_retransmits"; "tcp.spurious_retransmits" ]
       @ List.map (fun r -> "tcp.drop." ^ drop_reason_to_string r) drop_reasons
       @ List.map (fun r -> "tcp.abort." ^ r)
           [ "retry_exhausted"; "handshake_failed"; "close_timeout";
             "peer_stalled"; "misbehaving_peer"; "connection_reset" ]))

let c_segments_sent = 0
let c_segments_received = 1
let c_bytes_sent = 2
let c_bytes_delivered = 3
let c_retransmissions = 4
let c_checksum_failures = 5
let c_out_of_order = 6
let c_duplicates = 7
let c_acks_sent = 8
let c_ip_errors = 9
let c_fast_retransmits = 10
let c_persist_probes = 11
let c_zero_window_stalls = 12
let c_ooo_placed = 13
let c_rst_tx = 14
let c_rst_rx = 15
let c_keepalive_probes = 16
let c_rto_fallbacks = 17
let c_sack_blocks_rx = 18
let c_sack_blocks_tx = 19
let c_sack_invalid = 20
let c_sack_retransmits = 21
let c_spurious_retransmits = 22
let c_drop r = c_spurious_retransmits + 1 + drop_reason_index r
let c_abort r = c_drop Out_of_window + 1 + abort_reason_index r

(* [reset_for] answers for a crashed host that has no socket at all; its
   resets are counted here. *)
let orphan_blk = M.block family

let m_seg_payload = M.histogram M.default "tcp.segment_payload_bytes"

(* Congestion-control observability (last-writer-wins across sockets:
   meaningful for the usual one-bulk-sender worlds, and the conservation
   test pins them against that sender's final state). *)
let m_cwnd = M.gauge M.default "tcp.cwnd"
let m_ssthresh = M.gauge M.default "tcp.ssthresh"
let m_inflight = M.gauge M.default "tcp.segments_in_flight"

(* Per-segment retransmission counts, observed when a segment is finally
   acknowledged: bucket 0 counts segments delivered on their first
   transmission, the higher buckets the recovery tail. *)
let m_seg_rexmits = M.histogram M.default "tcp.segment_retransmits"

(* Per-segment ack RTT (Karn-filtered: only never-retransmitted segments
   are observed, same discipline as the RTO estimator).  The telemetry
   sampler derives p50/p90/p99 tracks and SLO verdicts from this. *)
let m_ack_rtt = M.histogram M.default "tcp.ack_rtt_us"

(* What the socket keeps per unacknowledged segment; its sequence range
   and SACK hints live in the {!Scoreboard} entry that carries it. *)
type tx_seg = {
  addr : int;  (* ring address of the payload *)
  psh : bool;  (* marks the final segment of a TSDU; preserved on retransmit *)
  mutable rexmits : int;
  sent_at : float;
}

(* One TSDU queued for segmented transmission: [ps_fill] renders wire
   bytes [off, off+len) of the message at a ring address, so each
   MSS-sized piece gets its own fused pass straight into the ring. *)
type pending_stream = {
  ps_len : int;
  ps_unit : int;  (* segment boundaries fall on multiples of this *)
  ps_fill :
    Mem.t -> dst:int -> off:int -> len:int -> Ilp_checksum.Internet.acc option;
  mutable ps_off : int;  (* next byte of the TSDU to transmit *)
}

type stats = {
  segments_sent : int;
  segments_received : int;
  bytes_sent : int;
  bytes_delivered : int;
  retransmissions : int;
  checksum_failures : int;
  out_of_order : int;
  ooo_placed : int;
  duplicates : int;
  acks_sent : int;
  ip_errors : int;
  fast_retransmits : int;
  persist_probes : int;
  peak_in_flight : int;
  rto_fallbacks : int;
  sack_blocks_rx : int;
  sack_blocks_tx : int;
  sack_invalid : int;
  sack_retransmits : int;
  spurious_retransmits : int;
  rst_tx : int;
  rst_rx : int;
  keepalive_probes : int;
}

type t = {
  sim : Sim.t;
  clock : Simclock.t;
  cfg : config;
  local_port : int;
  wire_out : Datagram.t -> unit;
  ring : Ring.t;
  hdr_area : int;  (* user-space header build area *)
  rx_hdr : Tcp_header.t;  (* every arriving header is parsed into this *)
  ooo_hdr : Tcp_header.t;  (* a stashed segment's header, re-read on drain *)
  tx_kernel : int;  (* kernel-side outgoing segment buffer *)
  kernel_rx : int;  (* kernel-side incoming segment buffer *)
  rx_staging : int;  (* user-space receive buffer *)
  ooo_base : int;  (* out-of-order stash slots *)
  code_ctrl : Code.region;  (* TCP control (tcp_output/tcp_input), one per Sim *)
  code_kernel : Code.region;  (* syscall + kernel datagram path, one per Sim *)
  mutable st : state;
  mutable remote_port : int;
  iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable peer_window : int;
  mutable adv_window : int;  (* window this endpoint currently advertises *)
  sb : tx_seg Scoreboard.t;  (* the retransmission queue *)
  cc : Cc.t;
  reasm : Reasm.t;  (* segments held above [rcv_nxt] *)
  streams : pending_stream Queue.t;
  (* The socket's five timers, each built once by [create] (the record
     holds [Simclock.stopped] until then) and re-armed in place. *)
  mutable rto_timer : Simclock.timer;
  rto : Rto.t;
  mutable retries : int;
  mutable peak_in_flight : int;
  (* Receive-side TSDU reassembly: bytes of the current TSDU already
     accepted in order.  The rx handler places each segment's plaintext
     at this offset in its application area.  Under v2 framing this
     counts engine (post-prelude) bytes. *)
  mutable rx_tsdu_off : int;
  (* Zero-window persistence: probe a peer that advertises no (or too
     little) space, with exponential backoff, until the window reopens or
     the stall deadline aborts the connection. *)
  mutable persist_timer : Simclock.timer;
  mutable persist_shifts : int;
  mutable persist_want : int;  (* message length awaiting window space *)
  mutable stalled_since : float option;
  probe_buf : int;  (* one already-acknowledged garbage byte to probe with *)
  mutable pending_close : bool;
  mutable ctl_timer : Simclock.timer;  (* SYN / FIN retransmission *)
  mutable ctl_flags : int;  (* the flags of the SYN or FIN it resends *)
  mutable ctl_retries : int;
  mutable rx_proc : rx_processing option;  (* [None]: inbound data is dropped *)
  mutable on_message : len:int -> unit;
  mutable ip_ident : int;
  (* The send-side system copy's simulated time: slot 0 sums it since
     the last [reset_syscopy_send], slots 1 and 2 take the clock around
     one copy.  A float array stores its floats flat, so timing every
     datagram boxes nothing. *)
  syscopy : float array;
  blk : int array;  (* this socket's block of [family] *)
  mutable failed : abort_reason option;
  mutable on_abort : abort_reason -> unit;
  (* Node crash/restart fault model (PR 8).  [owner] tags every timer
     this socket schedules, so teardown can be audited with
     [Simclock.pending_count]; [destroyed] marks a socket torn down by a
     host crash — subsequent segments addressed to it answer with RST. *)
  owner : int;
  mutable destroyed : bool;
  mutable tw_timer : Simclock.timer;  (* TIME_WAIT expiry *)
  (* Keepalive probing for half-open connections (peer restarted while
     this endpoint was idle): probe with an already-acknowledged byte at a
     fixed interval; an answering ack proves the peer alive, an RST or
     probe exhaustion yields a typed verdict. *)
  mutable ka_timer : Simclock.timer;
  mutable ka_interval_us : float;
  mutable ka_max_probes : int;
  mutable ka_unanswered : int;
  mutable ka_on_result : (keepalive_verdict -> unit) option;
}

(* The socket record; [create], below the retransmission timer, builds
   its timers. *)
let make (sim : Sim.t) clock cfg ~local_port ~wire_out =
  let seg_max = Int.max Tcp_header.max_wire_size (Tcp_header.size + cfg.mss) in
  (* The stash covers a full receive window of MSS segments plus
     reordering slack: a fixed 8-slot stash under a 45-segment window
     serializes loss recovery into one segment per RTT. *)
  let ooo_slots = Int.max 8 (((cfg.recv_window + cfg.mss - 1) / cfg.mss) + 4) in
  let ring = Ring.create sim ~size:cfg.send_buffer in
  let hdr_area = Alloc.alloc sim.alloc ~align:8 Tcp_header.max_wire_size in
  let tx_kernel = Alloc.alloc sim.alloc ~align:64 seg_max in
  let kernel_rx = Alloc.alloc sim.alloc ~align:64 seg_max in
  let rx_staging = Alloc.alloc sim.alloc ~align:64 seg_max in
  let ooo_base = Alloc.alloc sim.alloc ~align:64 (ooo_slots * seg_max) in
  (* Layout reserve: [mss] unused bytes where the raw reassembly area
     was.  It places every later buffer (this socket's and all allocated
     after it), and with them the Alpha data-cache conflicts Table 1's
     fit rests on: without it the mean |deviation| rises from 11.0% to
     12.6% (AXP3000/800 from 15.2% to 20.0%). *)
  ignore (Alloc.alloc sim.alloc ~align:64 cfg.mss);
  let probe_buf = Alloc.alloc sim.alloc ~align:8 8 in
  (* One TCP and one kernel text per host: the first socket on [sim]
     places them, every later one fetches the same lines. *)
  let code_ctrl = Code.image sim.code ~name:"tcp control" ~len:2048 in
  let code_kernel = Code.image sim.code ~name:"kernel datagram" ~len:3072 in
  { sim;
    clock;
    cfg;
    local_port;
    wire_out;
    ring;
    hdr_area;
    rx_hdr = Tcp_header.make ~src_port:0 ~dst_port:0 ();
    ooo_hdr = Tcp_header.make ~src_port:0 ~dst_port:0 ();
    tx_kernel;
    kernel_rx;
    rx_staging;
    ooo_base;
    code_ctrl;
    code_kernel;
    st = Closed;
    remote_port = -1;
    iss = 100_000 + (local_port * 131);
    snd_una = 0;
    snd_nxt = 0;
    rcv_nxt = 0;
    peer_window = 0;
    adv_window = cfg.recv_window;
    sb =
      Scoreboard.create ~sack:cfg.sack
        ~vacant:{ addr = 0; psh = false; rexmits = 0; sent_at = 0.0 };
    cc = Cc.create ~mss:cfg.mss;
    reasm = Reasm.create ~slots:ooo_slots ~window:cfg.recv_window ~sack:cfg.sack;
    streams = Queue.create ();
    rto_timer = Simclock.stopped;
    rto = Rto.create ~initial_us:cfg.rto_initial_us ~min_us:cfg.rto_min_us
            ~max_us:rto_max_us ();
    retries = 0;
    peak_in_flight = 0;
    rx_tsdu_off = 0;
    persist_timer = Simclock.stopped;
    persist_shifts = 0;
    persist_want = 0;
    stalled_since = None;
    probe_buf;
    pending_close = false;
    ctl_timer = Simclock.stopped;
    ctl_flags = 0;
    ctl_retries = 0;
    rx_proc = None;
    on_message = (fun ~len:_ -> ());
    ip_ident = local_port * 1000;
    syscopy = Array.make 3 0.0;
    blk = M.block family;
    failed = None;
    on_abort = (fun _ -> ());
    owner = Simclock.fresh_owner clock;
    destroyed = false;
    tw_timer = Simclock.stopped;
    ka_timer = Simclock.stopped;
    ka_interval_us = 0.0;
    ka_max_probes = 0;
    ka_unanswered = 0;
    ka_on_result = None }

let state t = t.st
let local_port t = t.local_port
let set_rx_processing t p = t.rx_proc <- Some p
let set_rx_framing t on = Reasm.set_framing t.reasm on
let set_on_message t f = t.on_message <- f
let set_on_abort t f = t.on_abort <- f
let failure t = t.failed
let timer_owner t = t.owner
let destroyed t = t.destroyed
let bump t i n = t.blk.(i) <- t.blk.(i) + n
let count_drop t reason = bump t (c_drop reason) 1
let drop_count t reason = t.blk.(c_drop reason)
let drops t = List.map (fun r -> (r, drop_count t r)) drop_reasons
let drops_total t = List.fold_left (fun acc (_, n) -> acc + n) 0 (drops t)
let bytes_in_flight t = Scoreboard.bytes t.sb
let congestion_window t = Cc.cwnd t.cc
let peer_window t = t.peer_window

(* Usable window space, clamped to >= 0: a peer may legally shrink its
   advertised window below the bytes already in flight, and the difference
   must never go negative (it would otherwise invite a negative-length
   segment or an exception downstream). *)
let send_window_space t =
  Int.max 0 (Int.min t.peer_window (Cc.cwnd t.cc) - bytes_in_flight t)

let set_advertised_window t w =
  t.adv_window <- Int.max 0 (Int.min w t.cfg.recv_window)

(* Mirror cwnd/ssthresh into the registry gauges wherever {!Cc}
   recomputed them, so a live snapshot shows the sender's congestion
   state. *)
let set_cc_gauges t =
  M.set m_cwnd (Cc.cwnd t.cc);
  M.set m_ssthresh (Cc.ssthresh t.cc)

let stats t =
  let b = t.blk in
  { segments_sent = b.(c_segments_sent);
    segments_received = b.(c_segments_received);
    bytes_sent = b.(c_bytes_sent);
    bytes_delivered = b.(c_bytes_delivered);
    retransmissions = b.(c_retransmissions);
    checksum_failures = b.(c_checksum_failures);
    out_of_order = b.(c_out_of_order);
    ooo_placed = b.(c_ooo_placed);
    duplicates = b.(c_duplicates);
    acks_sent = b.(c_acks_sent);
    ip_errors = b.(c_ip_errors);
    fast_retransmits = b.(c_fast_retransmits);
    persist_probes = b.(c_persist_probes);
    peak_in_flight = t.peak_in_flight;
    rto_fallbacks = b.(c_rto_fallbacks);
    sack_blocks_rx = b.(c_sack_blocks_rx);
    sack_blocks_tx = b.(c_sack_blocks_tx);
    sack_invalid = b.(c_sack_invalid);
    sack_retransmits = b.(c_sack_retransmits);
    spurious_retransmits = b.(c_spurious_retransmits);
    rst_tx = b.(c_rst_tx);
    rst_rx = b.(c_rst_rx);
    keepalive_probes = b.(c_keepalive_probes) }

let ooo_capacity t = Reasm.capacity t.reasm

let pending_streams t = Queue.length t.streams
let ring_wraps t = Ring.wraps t.ring

let reset_syscopy_send t = t.syscopy.(0) <- 0.0
let syscopy_send_us t = t.syscopy.(0)

(* ------------------------------------------------------------------ *)
(* Transmission plumbing *)

let machine t = t.sim.Sim.machine
let mem t = t.sim.Sim.mem

(* A flight event of this connection, keyed by the local port and
   stamped with the simulated CPU clock. *)
let note t stage ~arg =
  Recorder.note stage ~conn:t.local_port ~arg ~ts:(Machine.micros (machine t))

(* The kernel part passes a segment to IP (loopback, never fragmented):
   one wire string, the IP header written in place and the [len] segment
   bytes at [src.[off]] copied after it. *)
let ip_datagram ~ident ~src_port ~dst_port src ~off ~len =
  let b = Bytes.create (Ipv4.header_len + len) in
  Ipv4.write_header b ~ident ~src:Ipv4.loopback ~dst:Ipv4.loopback ~payload_len:len;
  Bytes.blit src off b Ipv4.header_len len;
  Datagram.create ~src_port ~dst_port ~payload:(Bytes.unsafe_to_string b)

let next_ident t =
  t.ip_ident <- (t.ip_ident + 1) land 0xffff;
  t.ip_ident

(* Write this endpoint's header for a segment from [seq] — its
   [payload_len] payload bytes, already in the ring at [addr] if any,
   fold to [payload_acc] — straight into the user header area, checksum
   included; system-copy header and payload into the kernel buffer, and
   put the resulting datagram on the wire. *)
let transmit t ~seq ~flags ~sack ~payload_acc ~addr ~payload_len =
  Machine.exec (machine t) t.code_ctrl;
  Machine.exec (machine t) t.code_kernel;
  let hlen =
    Tcp_header.seal_mem (mem t) ~pos:t.hdr_area ~seq ~ack:t.rcv_nxt ~flags
      ~window:t.adv_window ~sack ~src_port:t.local_port ~dst_port:t.remote_port
      ~payload_acc ~payload_len
  in
  (* Full tcp_output state processing for data segments; the short path
     for pure control segments. *)
  Machine.compute (machine t) (if payload_len > 0 then control_ops else ack_ops);
  let sc = t.syscopy in
  Machine.store_micros (machine t) sc 1;
  Mem.blit (mem t) ~src:t.hdr_area ~dst:t.tx_kernel ~len:hlen
    ~unit_len:blit_unit;
  if payload_len > 0 then
    Mem.blit (mem t) ~src:addr ~dst:(t.tx_kernel + hlen) ~len:payload_len
      ~unit_len:blit_unit;
  Machine.store_micros (machine t) sc 2;
  sc.(0) <- sc.(0) +. (sc.(2) -. sc.(1));
  bump t c_segments_sent 1;
  M.observe m_seg_payload payload_len;
  if Trace.enabled () && payload_len > 0 then
    Trace.instant ~arg:payload_len Trace.Send_link
      ~packet:(Trace.current_packet ()) ~ts:(Machine.micros (machine t));
  t.wire_out
    (ip_datagram ~ident:(next_ident t) ~src_port:t.local_port
       ~dst_port:t.remote_port (Mem.raw (mem t)) ~off:t.tx_kernel
       ~len:(hlen + payload_len))

(* A pure control segment from [seq]; [sack] blocks, the only options
   this stack sends, ride on pure acks. *)
let control_segment t ~seq ~sack ~flags =
  let n = Int.min Tcp_header.max_sack_blocks (List.length sack) in
  if n > 0 then begin
    bump t c_sack_blocks_tx n;
    if Trace.enabled () then
      Trace.instant ~arg:n Trace.Tcp_sack ~packet:(Trace.current_packet ())
        ~ts:(Machine.micros (machine t))
  end;
  transmit t ~seq ~flags ~sack ~payload_acc:Ilp_checksum.Internet.empty ~addr:0
    ~payload_len:0

(* [seq] (default [snd_nxt]) lets a SYN or FIN be re-sent with the
   sequence number it first used. *)
let send_control ?seq t ~flags =
  let seq = match seq with Some seq -> seq | None -> t.snd_nxt in
  control_segment t ~seq ~sack:[] ~flags

(* Every pure acknowledgement flows through here: with no SACK block to
   report it is the legacy fixed-header ack, otherwise the canonical
   SACK option is attached ({!Reasm.take_blocks}). *)
let send_ack t =
  bump t c_acks_sent 1;
  control_segment t ~seq:t.snd_nxt ~sack:(Reasm.take_blocks t.reasm)
    ~flags:Tcp_header.ack_flag

(* Every timer this socket can own: RTO, control (SYN/FIN), persist,
   TIME_WAIT expiry and keepalive.  Entering CLOSED cancels all five —
   crash injection surfaces any leak as a ghost firing, and the soak
   asserts [Simclock.pending_count ~owner = 0] afterwards. *)
let cancel_all_timers t =
  Simclock.cancel t.rto_timer;
  Simclock.cancel t.ctl_timer;
  Simclock.cancel t.persist_timer;
  Simclock.cancel t.tw_timer;
  Simclock.cancel t.ka_timer

(* ------------------------------------------------------------------ *)
(* Connection lifecycle: [step] holds the edges of RFC 9293 Figure 5
   that this stack uses, plus abort and [destroy] reaching CLOSED from
   any state; an event with no edge leaves the state unchanged.
   [Syn_acked] acknowledges our SYN or SYN-ACK, [Fin_acked] our FIN. *)
type event =
  | Open_active | Open_passive | Close | Syn_in | Syn_acked | Fin_in | Fin_acked
  | Tw_expiry | Abort

let step st ev =
  match (st, ev) with
  | _, Abort -> Closed
  | Closed, Open_active -> Syn_sent
  | Closed, Open_passive -> Listen
  | Listen, Syn_in -> Syn_rcvd
  | (Syn_sent | Syn_rcvd), Syn_acked -> Established
  | Established, Close -> Fin_wait_1
  | Established, Fin_in -> Close_wait
  | Close_wait, Close -> Last_ack
  | Fin_wait_1, Fin_acked -> Fin_wait_2
  | Fin_wait_1, Fin_in -> Closing
  | (Fin_wait_2, Fin_in | Closing, Fin_acked) -> Time_wait
  | ((Listen | Syn_sent), Close | Last_ack, Fin_acked | Time_wait, Tw_expiry) ->
      Closed
  | st, _ -> st

let syn_ack = Tcp_header.syn lor Tcp_header.ack_flag

(* The one funnel for state changes: the flight recorder sees every
   transition with the new state encoded in [arg], keyed by the local
   port, so an abort dump replays the connection's whole life.  Each
   entry action depends on the state entered alone; work that reads the
   arriving segment stays with its handler. *)
let rec transition t ev =
  let st = step t.st ev in
  if st <> t.st then begin
    t.st <- st;
    note t Trace.State ~arg:(state_index st);
    match st with
    | Syn_sent | Syn_rcvd ->
        t.snd_una <- t.iss;
        t.snd_nxt <- t.iss;
        send_first t ~flags:(if st = Syn_sent then Tcp_header.syn else syn_ack)
    | Fin_wait_1 | Last_ack ->
        send_first t ~flags:(Tcp_header.fin lor Tcp_header.ack_flag)
    | Established | Fin_wait_2 | Time_wait ->
        Simclock.cancel t.ctl_timer;
        t.ctl_retries <- 0;
        if st = Time_wait then Simclock.arm t.tw_timer ~after:(2.0 *. rto_max_us)
    | Closed ->
        (* Release everything the connection holds.  The ring and the
           retransmission queue reserve and queue in lockstep, so with
           the queue gone every live reservation goes too. *)
        t.pending_close <- false;
        Queue.clear t.streams;
        Scoreboard.clear t.sb;
        while Result.is_ok (Ring.release t.ring) do () done;
        Reasm.clear t.reasm;
        t.rx_tsdu_off <- 0;
        t.ka_on_result <- None;
        cancel_all_timers t
    | Listen | Close_wait | Closing -> ()
  end

(* Our first SYN, SYN-ACK or FIN: it takes the next sequence number, and
   the control timer resends it until it is acknowledged. *)
and send_first t ~flags =
  send_control t ~flags;
  t.snd_nxt <- t.snd_nxt + 1;
  arm_ctl_timer t ~flags

and arm_ctl_timer t ~flags =
  t.ctl_flags <- flags;
  Simclock.arm t.ctl_timer ~after:(Rto.timeout_us t.rto)

(* Retry exhaustion: tear the connection down with a recorded reason so
   the application sees a typed failure, never a silent [Closed]. *)
and abort t reason =
  if t.failed = None then begin
    t.failed <- Some reason;
    bump t (c_abort reason) 1;
    note t Trace.Abort ~arg:(abort_reason_index reason)
  end;
  transition t Abort;
  t.on_abort reason

(* The control timer: resend the SYN or FIN, or give up. *)
let on_ctl_timer t =
  let flags = t.ctl_flags in
  if t.ctl_retries >= max_retries then
    abort t (if flags land Tcp_header.syn <> 0 then Handshake_failed else Close_timeout)
  else begin
    t.ctl_retries <- t.ctl_retries + 1;
    Rto.backoff t.rto;
    send_control t ~seq:(t.snd_nxt - 1) ~flags;
    arm_ctl_timer t ~flags
  end

(* Tear a socket down as a crashing host does: no FIN, no callback.  The
   socket answers later segments with RST (it is a dead connection, not
   a closed one); one already CLOSED has its timers swept all the same. *)
let destroy t =
  t.destroyed <- true;
  transition t Abort;
  cancel_all_timers t

(* ------------------------------------------------------------------ *)
(* Zero-window persistence *)

let cancel_persist t =
  Simclock.cancel t.persist_timer;
  t.persist_shifts <- 0;
  t.persist_want <- 0;
  t.stalled_since <- None

(* The probe the persist and keepalive timers share: one
   already-acknowledged byte at [snd_nxt - 1].  The receiver's duplicate
   path acknowledges it immediately, and that ack carries the peer's
   current window — so a reopened window is discovered even if the
   peer's window-update ack was lost, and any answer proves the peer
   alive. *)
let send_probe t =
  let payload_acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:t.probe_buf ~len:1
      ~acc:Ilp_checksum.Internet.empty
  in
  transmit t ~seq:(t.snd_nxt - 1) ~flags:Tcp_header.ack_flag ~sack:[] ~payload_acc
    ~addr:t.probe_buf ~payload_len:1

(* ------------------------------------------------------------------ *)
(* RST generation (RFC 793 reset rules)

   A segment addressed to a dead connection — a socket torn down by a
   crash ([destroy]) or a typed abort — is answered with a reset so the
   peer learns immediately instead of retransmitting into a black hole:
   an arriving segment with ACK is answered <SEQ=SEG.ACK><CTL=RST>, one
   without (a SYN) by <SEQ=0><ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>.  A
   cleanly closed socket stays silent, so clean-run wire traces are
   byte-identical to the pre-fault-model stack.  Resets are pure 20-byte
   control segments and never enter the fused ILP data path. *)

(* The reset answering [h] (its payload [payload_len] bytes), written
   uncharged at [b.[off]]; returns its length. *)
let write_rst b ~off (h : Tcp_header.t) ~payload_len ~src_port =
  let seg_len =
    payload_len
    + (if Tcp_header.has h Tcp_header.syn then 1 else 0)
    + (if Tcp_header.has h Tcp_header.fin then 1 else 0)
  in
  let acked = Tcp_header.has h Tcp_header.ack_flag in
  Tcp_header.seal_bytes b ~off
    ~seq:(if acked then h.ack else 0)
    ~ack:(if acked then 0 else h.seq + seg_len)
    ~flags:(if acked then Tcp_header.rst else Tcp_header.rst lor Tcp_header.ack_flag)
    ~window:0 ~sack:[] ~src_port ~dst_port:h.src_port
    ~payload_acc:Ilp_checksum.Internet.empty ~payload_len:0

let send_rst t (h : Tcp_header.t) ~payload_len =
  (* Never reset a reset: that way lies an RST storm. *)
  if not (Tcp_header.has h Tcp_header.rst) then begin
    bump t c_rst_tx 1;
    note t Trace.Rst_tx ~arg:0;
    (* Bypass [transmit]: the reset goes back to the segment's source
       port, not [t.remote_port] (stale or unset on a dead socket), and a
       dead socket charges only the short control path (its header is
       written into the header area uncharged). *)
    Machine.compute (machine t) ack_ops;
    let raw = Mem.raw (mem t) in
    let len = write_rst raw ~off:t.hdr_area h ~payload_len ~src_port:t.local_port in
    bump t c_segments_sent 1;
    t.wire_out
      (ip_datagram ~ident:(next_ident t) ~src_port:t.local_port
         ~dst_port:h.Tcp_header.src_port raw ~off:t.hdr_area ~len)
  end

(* The reset a crashed host's address answers with while the host is
   down: no socket exists at all, so this is a pure function from the
   arriving datagram to the reset datagram (None for malformed input and
   for resets, which are never themselves reset). *)
let reset_for (dgram : Datagram.t) =
  let wire = dgram.Datagram.payload in
  if Ipv4.protocol wire <> Ipv4.protocol_tcp then None
  else
    match Tcp_header.of_string wire ~pos:Ipv4.header_len with
    | Error _ -> None
    | Ok h ->
        if Tcp_header.has h Tcp_header.rst then None
        else begin
          let payload_len =
            Int.max 0
              (String.length wire - Ipv4.header_len - Tcp_header.wire_size h)
          in
          orphan_blk.(c_rst_tx) <- orphan_blk.(c_rst_tx) + 1;
          Recorder.note Trace.Rst_tx ~conn:dgram.Datagram.dst_port
            ~arg:0 ~ts:(Trace.now ());
          let b = Bytes.create Tcp_header.size in
          let len =
            write_rst b ~off:0 h ~payload_len ~src_port:dgram.Datagram.dst_port
          in
          Some
            (ip_datagram ~ident:0 ~src_port:dgram.Datagram.dst_port
               ~dst_port:h.Tcp_header.src_port b ~off:0 ~len)
        end

(* ------------------------------------------------------------------ *)
(* Keepalive probing (half-open connection detection)

   A host that crashes and restarts forgets its connections; a peer with
   nothing to send never notices — the connection is half-open.  The
   keepalive timer probes an idle connection with one already-acknowledged
   garbage byte (the persist probe's wire shape): a live peer answers
   with a duplicate ack ([Peer_alive]), a restarted peer answers RST
   ([Peer_reset], and the connection aborts [Connection_reset]), and a
   black-holed peer stays silent until the probe budget is spent
   ([Peer_silent], aborting [Retry_exhausted]). *)

let probe_wire_states = [ Established; Close_wait; Fin_wait_1; Fin_wait_2 ]

let arm_keepalive t = Simclock.arm t.ka_timer ~after:t.ka_interval_us

let on_keepalive t =
  if t.failed = None && t.ka_on_result <> None && List.mem t.st probe_wire_states
  then begin
    if t.ka_unanswered >= t.ka_max_probes then begin
      match t.ka_on_result with
      | Some f ->
          t.ka_on_result <- None;
          f Peer_silent;
          abort t Retry_exhausted
      | None -> ()
    end
    else begin
      t.ka_unanswered <- t.ka_unanswered + 1;
      bump t c_keepalive_probes 1;
      note t Trace.Keepalive ~arg:t.ka_unanswered;
      send_probe t;
      arm_keepalive t
    end
  end

let start_keepalive t ?(interval_us = 50_000.0) ?(probes = 3) ~on_result () =
  if interval_us <= 0.0 then
    invalid_arg "Socket.start_keepalive: interval_us must be positive";
  if probes < 1 then invalid_arg "Socket.start_keepalive: probes must be >= 1";
  t.ka_interval_us <- interval_us;
  t.ka_max_probes <- probes;
  t.ka_unanswered <- 0;
  t.ka_on_result <- Some on_result;
  arm_keepalive t

let stop_keepalive t =
  t.ka_on_result <- None;
  t.ka_unanswered <- 0;
  Simclock.cancel t.ka_timer

(* Any segment from the peer proves it alive: answer an outstanding
   probe's verdict and reset the unanswered count (keepalive keeps
   running — it is a monitor, not a one-shot). *)
let ka_note_activity t =
  if t.ka_unanswered > 0 then begin
    t.ka_unanswered <- 0;
    match t.ka_on_result with
    | Some f ->
        note t Trace.Keepalive ~arg:0;
        f Peer_alive
    | None -> ()
  end

(* An acceptable inbound RST: the peer (or its restarted ghost) tore the
   connection down.  An outstanding keepalive probe gets its typed
   verdict before the abort callback fires. *)
let handle_reset t =
  (match t.ka_on_result with
  | Some f when t.ka_unanswered > 0 ->
      t.ka_on_result <- None;
      f Peer_reset
  | _ -> ());
  abort t Connection_reset

(* Stdlib's [min] on floats, typed: [Float.min] differs on nan and
   signed zeros. *)
let persist_interval_us t =
  let backoff = persist_initial_us *. (2.0 ** float_of_int t.persist_shifts) in
  if persist_max_us <= backoff then persist_max_us else backoff

(* The first arm of a stall starts its clock, [stalled_since]; it stays
   set while the timer is armed (only [cancel_persist] clears it). *)
let arm_persist t ~want =
  t.persist_want <- want;
  (match t.stalled_since with
  | Some _ -> ()
  | None ->
      t.stalled_since <- Some (Simclock.now t.clock);
      bump t c_zero_window_stalls 1;
      note t Trace.Zero_window ~arg:want);
  Simclock.arm t.persist_timer ~after:(persist_interval_us t)

let on_persist t =
  if t.st = Established || t.st = Close_wait then
    match t.stalled_since with
    | Some s when Simclock.now t.clock -. s >= t.cfg.stall_deadline_us ->
        abort t Peer_stalled
    | _ ->
        bump t c_persist_probes 1;
        note t Trace.Persist_probe ~arg:t.persist_shifts;
        send_probe t;
        t.persist_shifts <- t.persist_shifts + 1;
        arm_persist t ~want:t.persist_want

(* ------------------------------------------------------------------ *)
(* Retransmission of data segments *)

(* An arm allocates the boxed timeout alone: the timer is the socket's
   own, built once. *)
let arm_rto t =
  if Scoreboard.is_empty t.sb then Simclock.cancel t.rto_timer
  else Simclock.arm t.rto_timer ~after:(Rto.timeout_us t.rto)

let retransmit_seg t (seg : tx_seg Scoreboard.seg) =
  bump t c_retransmissions 1;
  note t Trace.Retransmit ~arg:seg.seq;
  let tx = seg.data in
  tx.rexmits <- tx.rexmits + 1;
  (* tcp_output for the retransmission: fresh checksum pass over the ring
     contents, fresh header.  The PSH bit must match the original — a
     mid-TSDU segment replayed with PSH would terminate the receiver's
     reassembly early. *)
  let flags =
    Tcp_header.ack_flag lor (if tx.psh then Tcp_header.psh else 0)
  in
  let payload_acc =
    Ilp_checksum.Internet.checksum_mem (mem t) ~pos:tx.addr ~len:seg.len
      ~acc:Ilp_checksum.Internet.empty
  in
  transmit t ~seq:seg.seq ~flags ~sack:[] ~payload_acc ~addr:tx.addr
    ~payload_len:seg.len

let on_rto t =
  match Scoreboard.oldest t.sb with
  | None -> ()
  | Some seg ->
      if t.retries >= max_retries then abort t Retry_exhausted
      else begin
        t.retries <- t.retries + 1;
        bump t c_rto_fallbacks 1;
        (* Full reneging tolerance (RFC 2018 §8): recovery restarts from
           the cumulative ack alone, and any fast recovery in progress
           is abandoned for slow start. *)
        Scoreboard.renege t.sb;
        Cc.timeout t.cc ~in_flight:(bytes_in_flight t);
        set_cc_gauges t;
        Rto.backoff t.rto;
        retransmit_seg t seg;
        arm_rto t
      end

let create sim clock cfg ~local_port ~wire_out =
  let t = make sim clock cfg ~local_port ~wire_out in
  let timer fire = Simclock.timer clock ~owner:t.owner (fun () -> fire t) in
  t.rto_timer <- timer on_rto;
  t.ctl_timer <- timer on_ctl_timer;
  t.persist_timer <- timer on_persist;
  t.tw_timer <- timer (fun t -> transition t Tw_expiry);
  t.ka_timer <- timer on_keepalive;
  t

(* The one "resend this hole" step of fast retransmit, the partial-ack
   path and the scoreboard's hole sweep; each caller keeps its own
   counter and note. *)
let resend_hole t seg =
  Scoreboard.mark_resent seg ~now:(Simclock.now t.clock);
  retransmit_seg t seg

(* Resend every hole the scoreboard selects during recovery.  A hole
   goes out once per round trip: one still unsacked [1.5 x srtt] after
   it was resent had its retransmission lost too, and is retried
   ack-clocked instead of waiting for the RTO of last resort. *)
let sack_retransmit_holes t =
  if Cc.in_recovery t.cc then begin
    let retry_after =
      match Rto.srtt_us t.rto with
      | Some s -> 1.5 *. s
      | None -> Rto.timeout_us t.rto /. 2.0
    in
    Scoreboard.iter_holes t.sb ~cap:(Cc.cwnd t.cc)
      ~now:(Simclock.now t.clock) ~retry_after (fun seg ->
        bump t c_sack_retransmits 1;
        note t Trace.Sack_retransmit ~arg:seg.seq;
        resend_hole t seg)
  end

(* Rejected SACK shapes are counted, never trusted. *)
let process_sack t (h : Tcp_header.t) =
  let c =
    Scoreboard.process_sack t.sb ~ack:h.ack ~snd_nxt:t.snd_nxt h.sack
  in
  bump t c_sack_blocks_rx c.accepted;
  bump t c_sack_invalid c.invalid;
  bump t c_spurious_retransmits c.spurious

(* ------------------------------------------------------------------ *)
(* Public send path *)

(* A [close] takes effect once every queued byte is acknowledged. *)
let maybe_close t =
  if t.pending_close && Scoreboard.is_empty t.sb && Queue.is_empty t.streams
  then begin
    t.pending_close <- false;
    transition t Close
  end

(* tcp_send + tcp_output for the next [len] bytes of the front TSDU [s],
   whose ring space is reserved at [addr]: the caller's fill writes just
   that byte range straight into the ring (a plain charged copy, or the
   fused ILP loop, which also returns the payload checksum accumulator);
   TCP runs its own checksum pass over the ring only for fills that did
   not integrate it, then builds the header and transmits.  The TSDU's
   final segment carries PSH. *)
let send_segment t s ~addr ~len =
  let off = s.ps_off in
  s.ps_off <- off + len;
  let payload_acc =
    match s.ps_fill (mem t) ~dst:addr ~off ~len with
    | Some acc -> acc
    | None ->
        let tr = Trace.enabled () in
        let t0 = if tr then Machine.micros (machine t) else 0.0 in
        let acc =
          Ilp_checksum.Internet.checksum_mem (mem t) ~pos:addr ~len
            ~acc:Ilp_checksum.Internet.empty
        in
        if tr then
          Trace.span Trace.Send_checksum ~packet:(Trace.current_packet ())
            ~ts:t0 ~dur:(Machine.micros (machine t) -. t0);
        acc
  in
  let psh = s.ps_off >= s.ps_len in
  let flags = Tcp_header.ack_flag lor (if psh then Tcp_header.psh else 0) in
  transmit t ~seq:t.snd_nxt ~flags ~sack:[] ~payload_acc ~addr ~payload_len:len;
  Scoreboard.add t.sb ~seq:t.snd_nxt ~len
    { addr; psh; rexmits = 0; sent_at = Simclock.now t.clock };
  t.snd_nxt <- t.snd_nxt + len;
  bump t c_bytes_sent len;
  let fl = bytes_in_flight t in
  if fl > t.peak_in_flight then t.peak_in_flight <- fl;
  M.set m_inflight (Scoreboard.length t.sb);
  if not (Simclock.is_pending t.rto_timer) then arm_rto t

(* The stream pump, the one place data segments are emitted: push
   segments of the front TSDU while the usable window, the congestion
   window and the ring all have room.  Re-run from every ack (new data
   acked, a window update, or fast-recovery inflation) — this is what
   keeps multiple segments in flight. *)
let rec pump_streams t =
  if
    (t.st = Established || t.st = Close_wait)
    && t.failed = None
    && not (Queue.is_empty t.streams)
  then
    let s = Queue.peek t.streams in
    if s.ps_off >= s.ps_len then begin
      ignore (Queue.pop t.streams);
      maybe_close t;
      pump_streams t
    end
    else begin
      let max_seg = t.cfg.mss - (t.cfg.mss mod s.ps_unit) in
      let seg = Int.min max_seg (s.ps_len - s.ps_off) in
      if seg > Ring.size t.ring then
        invalid_arg "Socket.send_stream: mss exceeds the send buffer";
      if seg > send_window_space t then begin
        (* Window too small for the next segment.  With data still in
           flight, acks (or the RTO) reopen it; with nothing in
           flight there is no timer running, so this is a zero-window
           stall mid-stream — run the persist machinery. *)
        if Scoreboard.is_empty t.sb && not (Simclock.is_pending t.persist_timer) then
          arm_persist t ~want:seg
      end
      else
        let addr = Ring.reserve t.ring seg in
        if addr >= 0 then begin
          if Simclock.is_pending t.persist_timer then cancel_persist t;
          send_segment t s ~addr ~len:seg;
          pump_streams t
        end
        (* else the ring is full: acks release space and re-pump *)
    end

(* The paper's one-TSDU-one-TPDU send: a TSDU of at most one MSS that
   goes out now, as the pump's single segment, or not at all. *)
let send_message t ~len ~fill =
  if t.st <> Established then Error Not_established
  else if len > t.cfg.mss then Error Message_too_big
  else if not (Queue.is_empty t.streams) then
    (* A stream is mid-flight: a one-shot message may not interleave with
       its segments (the receiver would fold it into the TSDU). *)
    Error Buffer_full
  else if len > send_window_space t then begin
    (* No usable window.  If nothing is in flight there is no RTO to keep
       the connection moving, so start (or keep) the persist machinery;
       with data in flight, incoming acks or the RTO drive recovery. *)
    if Scoreboard.is_empty t.sb && not (Simclock.is_pending t.persist_timer) then
      arm_persist t ~want:len;
    Error Window_full
  end
  else if not (Ring.fits t.ring len) then Error Buffer_full
  else begin
    Queue.add { ps_len = len; ps_unit = 1; ps_fill = fill; ps_off = 0 } t.streams;
    pump_streams t;
    Ok ()
  end

let send_stream t ~seg_unit ~len ~fill =
  if seg_unit <= 0 || seg_unit > t.cfg.mss then
    invalid_arg "Socket.send_stream: seg_unit must be in [1, mss]";
  if len <= 0 || len mod seg_unit <> 0 then
    invalid_arg "Socket.send_stream: len must be a positive multiple of seg_unit";
  if t.st <> Established then Error Not_established
  else if Queue.length t.streams >= max_pending_streams then
    Error Buffer_full
  else begin
    Queue.add { ps_len = len; ps_unit = seg_unit; ps_fill = fill; ps_off = 0 }
      t.streams;
    pump_streams t;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Connection management *)

let connect t ~remote_port =
  if t.st <> Closed then invalid_arg "Socket.connect: not closed";
  t.remote_port <- remote_port;
  transition t Open_active

let listen t =
  if t.st <> Closed then invalid_arg "Socket.listen: not closed";
  transition t Open_passive

let close t =
  t.pending_close <- true;
  maybe_close t

(* ------------------------------------------------------------------ *)
(* Receive path *)

let seg_max t = Int.max Tcp_header.max_wire_size (Tcp_header.size + t.cfg.mss)

(* The one receive verdict, shared by in-order segments, segments
   drained from the stash and segments placed out of order.  The segment
   (TCP header and payload) starts at [base] in user memory; its payload
   is a [plen]-byte framing prelude (0 unless a framed TSDU starts here)
   followed by engine bytes, which the rx handler lands at [dst_off] of
   the TSDU being reassembled.  Separate processing checksums the segment
   itself, then runs the handler's passes; integrated processing runs the
   handler's fused loop, which returns the payload sum for TCP to verify
   (the final stage of the paper's three-stage model).  A rejected
   segment is counted and dropped, never delivered; a socket with no
   handler drops all data as [Bad_length]. *)
let verify t (h : Tcp_header.t) ~base ~payload_len ~plen ~dst_off =
  let open Ilp_checksum in
  let src = base + Tcp_header.size in
  let eng_len = payload_len - plen in
  (* Each verified data segment is one traced receive packet; the
     engine's rx handlers pick the id up via [Trace.current_packet]. *)
  if Trace.enabled () then ignore (Trace.begin_packet ());
  let verdict =
    if Reasm.beyond_frame t.reasm ~dst_off ~len:eng_len then
      (* A framed continuation past the announced TSDU extent. *)
      Error Bad_length
    else
      match t.rx_proc with
      | None -> Error Bad_length
      | Some (Rx_separate f) ->
          (* Separate checksum pass over the staged segment (header bytes
             included; the stored checksum field makes a valid segment fold
             to 0xffff). *)
          let tr = Trace.enabled () in
          let t0 = if tr then Machine.micros (machine t) else 0.0 in
          let acc = Tcp_header.pseudo_acc h ~payload_len in
          let acc =
            Internet.checksum_mem (mem t) ~pos:base ~len:(Tcp_header.size + payload_len)
              ~acc
          in
          if tr then
            Trace.span Trace.Recv_checksum ~packet:(Trace.current_packet ())
              ~ts:t0 ~dur:(Machine.micros (machine t) -. t0);
          if Internet.finish acc <> 0 then Error Bad_checksum
          else if eng_len = 0 then Ok () (* prelude-only segment *)
          else (
            match f (mem t) ~src:(src + plen) ~dst_off ~len:eng_len with
            | Ok () -> Ok ()
            | Error _ -> Error Bad_length)
      | Some (Rx_integrated f) -> (
          (* A handler that cannot even start its loop (impossible payload
             length) rejects before any checksum verdict.  A framed
             prelude is checksummed by its own charged walk and folded in
             positionally ahead of the engine's accumulator. *)
          let eng_acc =
            if eng_len = 0 then Ok Internet.empty
            else f (mem t) ~src:(src + plen) ~dst_off ~len:eng_len
          in
          match eng_acc with
          | Error _ -> Error Bad_length
          | Ok acc ->
              let payload_acc =
                if plen = 0 then acc
                else
                  Internet.combine
                    (Internet.checksum_mem (mem t) ~pos:src ~len:plen
                       ~acc:Internet.empty)
                    acc ~len_b:eng_len
              in
              if Tcp_header.checksum h ~payload_acc ~payload_len = h.checksum then
                Ok ()
              else Error Bad_checksum)
  in
  Machine.compute (machine t) control_ops;
  match verdict with
  | Ok () -> true
  | Error reason ->
      if reason = Bad_checksum then bump t c_checksum_failures 1;
      count_drop t reason;
      false

(* The one delivery step for a verified segment now in sequence:
   advance [rcv_nxt] over its [len] bytes and add its [eng_len] engine
   bytes to the TSDU being reassembled.  The PSH-marked final segment
   hands the whole TSDU to [on_message]; the paper's one-TSDU-one-TPDU
   message is the TSDU whose first segment carries PSH. *)
let accept t ~len ~eng_len ~psh =
  t.rcv_nxt <- t.rcv_nxt + len;
  bump t c_bytes_delivered len;
  t.rx_tsdu_off <- t.rx_tsdu_off + eng_len;
  if psh then begin
    let n = t.rx_tsdu_off in
    t.rx_tsdu_off <- 0;
    Reasm.close_frame t.reasm;
    t.on_message ~len:n
  end

(* An in-sequence data segment, from receive staging or the stash. *)
let process_data t (h : Tcp_header.t) ~base ~payload_len =
  let src = base + Tcp_header.size in
  let starting = Reasm.awaiting_prelude t.reasm && Option.is_some t.rx_proc in
  (* Framed geometry: the first segment of a framed TSDU carries the
     cleartext prelude ({!Framing}) announcing the TSDU's engine wire
     length; it is parsed (uncharged peeks — the charged pass over its
     bytes is the checksum walk) and stripped before the engine handler.
     The frame state is only committed once the segment's checksum
     verdict is [Ok], so a corrupt prelude can never wedge the
     connection's reassembly state. *)
  let frame =
    if not starting then Ok None
    else
      match Framing.parse_word0 (Mem.peek_u32 (mem t) src) with
      | Some plen when payload_len >= plen ->
          let elen = Mem.peek_u32 (mem t) (src + 4) in
          if elen > 0 && payload_len - plen <= elen then Ok (Some (plen, elen))
          else Error Bad_header
      | _ -> Error Bad_header
  in
  match frame with
  | Error reason ->
      count_drop t reason;
      false
  | Ok fr ->
      let plen = match fr with Some (p, _) -> p | None -> 0 in
      verify t h ~base ~payload_len ~plen ~dst_off:t.rx_tsdu_off
      && begin
           (match fr with
           | Some (plen, elen) -> Reasm.open_frame t.reasm ~seq:h.seq ~plen ~elen
           | None -> ());
           accept t ~len:payload_len ~eng_len:(payload_len - plen)
             ~psh:(Tcp_header.has h Tcp_header.psh);
           true
         end

let rec drain_ooo t =
  match Reasm.pop t.reasm ~rcv_nxt:t.rcv_nxt with
  | None -> ()
  | Some (Reasm.Placed { len; psh }) ->
      (* Already verified and decrypted at its final offset when it
         arrived: advancing over it is pure bookkeeping — the re-copy the
         stash drain performs has no counterpart here. *)
      accept t ~len ~eng_len:len ~psh;
      drain_ooo t
  | Some (Reasm.Stashed { slot; len }) ->
      (* The stash's own record: the arrival that drains it reads its
         own header's fields afterwards. *)
      let base = t.ooo_base + (slot * seg_max t) in
      ignore (Tcp_header.read_mem (mem t) ~pos:base ~total:Tcp_header.size t.ooo_hdr);
      if process_data t t.ooo_hdr ~base ~payload_len:len then drain_ooo t

let handle_data t (h : Tcp_header.t) ~payload_len =
  if h.seq = t.rcv_nxt then begin
    if process_data t h ~base:t.rx_staging ~payload_len then begin
      drain_ooo t;
      send_ack t
    end
    (* Invalid checksum: silent drop; the sender's RTO recovers. *)
  end
  else if h.seq < t.rcv_nxt then begin
    (* Duplicate (e.g. a retransmission that crossed our ack): reported
       back as a D-SACK block so the sender can tell a spurious
       retransmission from a lost ack. *)
    bump t c_duplicates 1;
    Reasm.duplicate t.reasm ~seq:h.seq ~len:payload_len;
    send_ack t
  end
  else begin
    bump t c_out_of_order 1;
    (match Reasm.arrive t.reasm ~rcv_nxt:t.rcv_nxt ~seq:h.seq ~len:payload_len with
    | Reasm.Beyond_window -> count_drop t Out_of_window
    | Reasm.Held -> ()
    | Reasm.Place dst_off ->
        (* Final placement (the single-copy receive path): verify and
           decrypt at arrival directly at the final TSDU offset.  Sound
           because the engine's receive kernels are stateless per
           segment, the property the send side's range fills rely on.  A
           corrupt segment is dropped and never recorded; its
           retransmission overwrites whatever partial plaintext the
           failed pass left. *)
        if verify t h ~base:t.rx_staging ~payload_len ~plen:0 ~dst_off then begin
          Reasm.placed t.reasm ~seq:h.seq ~len:payload_len
            ~psh:(Tcp_header.has h Tcp_header.psh);
          bump t c_ooo_placed 1
        end
    | Reasm.Stash slot ->
        Mem.blit (mem t) ~src:t.rx_staging ~dst:(t.ooo_base + (slot * seg_max t))
          ~len:(Tcp_header.size + payload_len) ~unit_len:blit_unit
    | Reasm.No_slot ->
        (* Retransmission will recover. *)
        count_drop t Out_of_window);
    send_ack t
  end

let handle_ack t (h : Tcp_header.t) ~payload_len =
  (* An optimistic ack covers data this endpoint never sent: no honest
     (or merely lossy) network can produce it, only a peer trying to
     trick the sender into opening its window faster than the real
     round-trip allows.  Abort with a typed reason rather than let the
     forged clock drive transmission. *)
  if Tcp_header.has h Tcp_header.ack_flag && h.ack > t.snd_nxt then
    abort t Misbehaving_peer
  else begin
  let prev_window = t.peer_window in
  t.peer_window <- h.window;
  (* A window update (usually the ack to a persist probe) that makes the
     stalled message sendable ends the persist cycle; the application's
     retry then finds the space.  A probe ack still reporting too little
     space leaves the backoff running. *)
  if Simclock.is_pending t.persist_timer && send_window_space t >= t.persist_want then
    cancel_persist t;
  (* Scoreboard first: the dupack and partial-ack decisions below want
     this ack's selective information already applied. *)
  process_sack t h;
  (* A pure duplicate acknowledgement signals a lost segment ahead of
     still-arriving data: at the threshold, retransmit the first
     unSACKed segment without waiting for the RTO (fast retransmit),
     then stay in fast recovery until the loss-time highwater mark is
     acknowledged.  An ack whose window differs is a window update, not
     evidence of loss, and does not count. *)
  if
    Tcp_header.has h Tcp_header.ack_flag
    && h.ack = t.snd_una && payload_len = 0
    && h.window = prev_window
    && (not (Tcp_header.has h Tcp_header.syn))
    && (not (Tcp_header.has h Tcp_header.fin))
    && not (Scoreboard.is_empty t.sb)
  then begin
    match
      Cc.dupack t.cc ~threshold:(Scoreboard.dupack_threshold t.sb)
        ~outstanding:(Scoreboard.length t.sb)
    with
    | Cc.Counted -> ()
    | Cc.Threshold -> (
        match Scoreboard.first_unsacked t.sb with
        | Some seg ->
            bump t c_fast_retransmits 1;
            note t Trace.Fast_retransmit ~arg:seg.seq;
            Cc.fast_loss t.cc ~recover:t.snd_nxt
              ~in_flight:(bytes_in_flight t);
            set_cc_gauges t;
            resend_hole t seg;
            (* With SACK information, every hole the scoreboard can already
               infer goes out in the same recovery round — this is the
               several-holes-per-RTT win over NewReno. *)
            sack_retransmit_holes t;
            arm_rto t
        | None -> ())
    | Cc.Recovering inflated ->
        (* Each further duplicate ack means another segment was
           delivered: the inflation lets the pump put new data in flight
           (RFC 5681 step 3.4 — this keeps the ack clock ticking). *)
        if inflated then set_cc_gauges t;
        sack_retransmit_holes t
  end;
  if Tcp_header.has h Tcp_header.ack_flag && h.ack > t.snd_una then begin
    let newly_acked = h.ack - t.snd_una in
    if Cc.ack t.cc ~acked:newly_acked then set_cc_gauges t;
    let sampled = ref false in
    let now = Simclock.now t.clock in
    while Scoreboard.front_acked t.sb ~ack:h.ack do
      let seg = Scoreboard.pop t.sb in
      (* The ring and the queue are reserved/queued in lockstep, so a
         popped segment guarantees a live oldest reservation. *)
      (match Ring.release t.ring with Ok () -> () | Error `Empty -> ());
      let tx = seg.data in
      M.observe m_seg_rexmits tx.rexmits;
      if Trace.enabled () then
        Trace.span ~arg:seg.len Trace.Tcp_segment
          ~packet:(Trace.current_packet ()) ~ts:tx.sent_at
          ~dur:(now -. tx.sent_at);
      if tx.rexmits = 0 && not !sampled then begin
        Rto.sample t.rto ~sent_at:tx.sent_at ~now;
        M.observe m_ack_rtt (int_of_float (now -. tx.sent_at));
        sampled := true
      end
    done;
    t.snd_una <- Int.max t.snd_una h.ack;
    (match Cc.recovery_ack t.cc ~ack:h.ack with
    | Cc.Not_recovering -> ()
    | Cc.Full_ack ->
        Scoreboard.clear_resent t.sb;
        set_cc_gauges t
    | Cc.Partial_ack ->
        (* The next hole is known lost — retransmit it immediately
           instead of waiting for more duplicates, then fill any further
           holes the scoreboard has inferred. *)
        (match Scoreboard.first_unsacked t.sb with
        | Some seg -> if not seg.resent then resend_hole t seg
        | None -> Cc.leave_recovery t.cc);
        sack_retransmit_holes t);
    M.set m_inflight (Scoreboard.length t.sb);
    if Trace.enabled () then
      Trace.instant ~arg:newly_acked Trace.Tcp_ack
        ~packet:(Trace.current_packet ()) ~ts:now;
    t.retries <- 0;
    Rto.reset_backoff t.rto;
    arm_rto t;
    maybe_close t
  end;
  (* Whatever just changed — new data acked, a window update, recovery
     inflation — may have opened room for more stream segments. *)
  pump_streams t
  end

let handle_datagram t (dgram : Datagram.t) =
  let wire = dgram.Datagram.payload in
  if Ipv4.protocol wire <> Ipv4.protocol_tcp then begin
    bump t c_ip_errors 1;
    count_drop t Bad_ip
  end
  else
  let total = String.length wire - Ipv4.header_len in
  if total < Tcp_header.size then count_drop t Bad_header
  else if total > seg_max t then count_drop t Bad_length
  else begin
    bump t c_segments_received 1;
    Machine.exec (machine t) t.code_kernel;
    Machine.exec (machine t) t.code_ctrl;
    (* Kernel demultiplexing and tcp_input connection lookup. *)
    Machine.compute (machine t) ack_ops;
    (* Network adapter DMA of the segment into the kernel buffer: not a
       CPU cost. *)
    Bytes.blit_string wire Ipv4.header_len (Mem.raw (mem t)) t.kernel_rx total;
    (* read(): system copy kernel -> user staging, then header parse
       (data offset included: an option area is walked and must be the
       one canonical SACK layout). *)
    Mem.blit (mem t) ~src:t.kernel_rx ~dst:t.rx_staging ~len:total
      ~unit_len:blit_unit;
    let h = t.rx_hdr in
    let hdr_len = Tcp_header.read_mem (mem t) ~pos:t.rx_staging ~total h in
    if hdr_len = Tcp_header.bad_options then
      (* Structurally hostile options (impossible data offset, truncated
         or non-canonical option bytes): drop before trusting any field
         that depends on knowing where the header ends. *)
      count_drop t Bad_header
    else if hdr_len > Tcp_header.size && total > hdr_len then
      (* Options on a data segment would break the paper's fixed-header
         ILP precondition (the fused loop must know the payload offset
         before it starts); this stack only ever puts SACK on pure acks,
         so anything else is a misbehaving peer's frame. *)
      count_drop t Bad_header
    else if
      total = hdr_len
      && (let open Ilp_checksum in
          let acc = Tcp_header.pseudo_acc h ~payload_len:0 in
          let acc =
            Internet.checksum_mem (mem t) ~pos:t.rx_staging ~len:hdr_len ~acc
          in
          Internet.finish acc <> 0)
    then begin
      (* A segment without payload is acted on through its header alone
         (ack number, window, flags, SACK blocks), so it is verified
         before any of that is trusted: a corrupted ack number would
         otherwise read as an optimistic ack.  Data segments are verified
         by their receive path. *)
      bump t c_checksum_failures 1;
      count_drop t Bad_checksum
    end
    else begin
    let payload_len = total - hdr_len in
    if Tcp_header.has h Tcp_header.rst then begin
      (* Inbound reset.  Count every arrival, but only act on one whose
         sequence number is exactly what this endpoint expects next
         (RFC 5961-style strict acceptance: the resets this stack
         generates always echo the victim's own ack, so an honest reset
         always matches, while a blind off-window forgery is dropped and
         counted). *)
      bump t c_rst_rx 1;
      note t Trace.Rst_rx ~arg:h.seq;
      match t.st with
      | Closed | Listen -> ()
      | Syn_sent ->
          (* Acceptable only when it acknowledges our SYN. *)
          if Tcp_header.has h Tcp_header.ack_flag && h.ack = t.snd_nxt then
            handle_reset t
          else count_drop t Out_of_window
      | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
      | Closing | Last_ack | Time_wait ->
          if h.seq = t.rcv_nxt then handle_reset t
          else count_drop t Out_of_window
    end
    else
    match t.st with
    | Closed ->
        (* A dead connection (crashed host or typed abort) answers with
           RST so the peer stops retransmitting into a black hole; a
           cleanly closed socket stays silent (clean wire traces must be
           byte-identical to the pre-fault-model stack). *)
        if t.destroyed || t.failed <> None then send_rst t h ~payload_len
    | Listen ->
        if Tcp_header.has h Tcp_header.syn then begin
          t.remote_port <- h.src_port;
          t.rcv_nxt <- h.seq + 1;
          t.peer_window <- h.window;
          transition t Syn_in
        end
    | Syn_sent ->
        if
          Tcp_header.has h Tcp_header.syn
          && Tcp_header.has h Tcp_header.ack_flag
          && h.ack = t.snd_nxt
        then begin
          t.rcv_nxt <- h.seq + 1;
          t.peer_window <- h.window;
          t.snd_una <- h.ack;
          transition t Syn_acked;
          send_ack t
        end
    | Syn_rcvd ->
        if Tcp_header.has h Tcp_header.syn then begin
          (* Retransmitted SYN: our SYN-ACK was lost; resend it with the
             original initial sequence number (snd_nxt already counts the
             SYN). *)
          send_control t ~seq:(t.snd_nxt - 1) ~flags:syn_ack
        end
        else if Tcp_header.has h Tcp_header.ack_flag && h.ack = t.snd_nxt then begin
          t.snd_una <- h.ack;
          t.peer_window <- h.window;
          transition t Syn_acked;
          if payload_len > 0 then handle_data t h ~payload_len
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
    | Time_wait ->
        ka_note_activity t;
        handle_ack t h ~payload_len;
        (* [handle_ack] may have aborted the connection (optimistic-ack
           forgery): nothing further in this datagram is trusted. *)
        if t.failed = None then begin
          (* The ACK before the FIN (RFC 9293 §3.10.7.4, the fifth step,
             then the eighth): once a FIN is sent, everything sent being
             acknowledged means the FIN is. *)
          if t.snd_una = t.snd_nxt then transition t Fin_acked;
          (* A retransmitted SYN-ACK means our final handshake ACK was lost:
             acknowledge again so the peer can leave SYN_RCVD. *)
          if Tcp_header.has h Tcp_header.syn then send_ack t;
          if payload_len > 0 then handle_data t h ~payload_len;
          if Tcp_header.has h Tcp_header.fin then
            if h.seq = t.rcv_nxt then begin
              t.rcv_nxt <- t.rcv_nxt + 1;
              send_ack t;
              transition t Fin_in
            end
            else if h.seq < t.rcv_nxt && payload_len = 0 then
              (* A retransmitted FIN: our ACK of it was lost. *)
              send_ack t
        end
    end
  end
