(* Bench-owned span stack with online self-time folding.

   Every span is opened and closed by the bench, around a call it makes
   into one layer (the clock step, a link send or delivery, a socket's
   datagram handler, the server's reply probe window, a client request).
   A span's self time is its duration minus the spans nested in it.  The
   engine's own [Ilp_obs.Trace] send/recv spans are folded in as leaves:
   the trace ring is drained at every bench boundary, so anything it
   recorded since the previous boundary belongs to the innermost open
   bench span.  A trace span is accepted only when its interval lies
   inside that window of the bench's wall clock; spans stamped with a
   foreign clock (simulated machine time, virtual network time) fail
   that test and are counted instead of summed. *)

module Trace = Ilp_obs.Trace

type kind = Clock | Link | Data_rx | Ack_rx | Ctrl_rx | Reply | Request | Bench

let kinds = [ Clock; Link; Data_rx; Ack_rx; Ctrl_rx; Reply; Request; Bench ]

let index = function
  | Clock -> 0
  | Link -> 1
  | Data_rx -> 2
  | Ack_rx -> 3
  | Ctrl_rx -> 4
  | Reply -> 5
  | Request -> 6
  | Bench -> 7

let name = function
  | Clock -> "netsim.clock"
  | Link -> "netsim.link"
  | Data_rx -> "tcp.data_rx"
  | Ack_rx -> "tcp.ack_rx"
  | Ctrl_rx -> "tcp.ctrl_rx"
  | Reply -> "rpc.reply"
  | Request -> "rpc.request"
  | Bench -> "bench.other"

let n_kinds = List.length kinds
let kind_of_index = Array.of_list kinds

(* Microseconds on the monotonic clock.  The same clock is installed for
   the engine's trace spans, which is what makes the containment test
   meaningful. *)
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1000.0

let install_clock () = Trace.set_clock now_us

(* One closed span or accepted engine span of the current sample, kept
   for the Chrome trace. *)
type event = { e_name : string; e_ts : float; e_dur : float; e_rpc : int; e_tid : int }

let max_depth = 64

type t = {
  mutable on : bool;
  st_kind : int array;
  st_start : float array;
  st_child : float array;
  st_rpc : int array;
  mutable depth : int;
  self_us : float array;  (* per kind, summed over traced samples *)
  enters : int array;
  mutable engine_tx_us : float;
  mutable engine_rx_us : float;
  mutable foreign : int;
  mutable last : float;  (* wall time of the latest boundary *)
  mutable events : event list;  (* the current sample only *)
}

let create () =
  { on = false;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0.0;
    st_child = Array.make max_depth 0.0;
    st_rpc = Array.make max_depth 0;
    depth = 0;
    self_us = Array.make n_kinds 0.0;
    enters = Array.make n_kinds 0;
    engine_tx_us = 0.0;
    engine_rx_us = 0.0;
    foreign = 0;
    last = 0.0;
    events = [] }

let self_us t k = t.self_us.(index k)
let enters t k = t.enters.(index k)

let top_rpc t = if t.depth = 0 then 0 else t.st_rpc.(t.depth - 1)

(* Attribute the trace spans recorded since the previous boundary to the
   innermost open span. *)
let drain t now =
  if Trace.recorded () > 0 then begin
    if Trace.dropped () > 0 then
      failwith "e2e: trace ring overflowed between two bench boundaries";
    List.iter
      (fun (s : Trace.span_rec) ->
        if not s.Trace.is_instant then begin
          let cat = Trace.stage_cat s.Trace.stage in
          let inside = s.Trace.ts >= t.last && s.Trace.ts +. s.Trace.dur <= now +. 1e-3 in
          if inside && (cat = "send" || cat = "recv") then begin
            if cat = "send" then t.engine_tx_us <- t.engine_tx_us +. s.Trace.dur
            else t.engine_rx_us <- t.engine_rx_us +. s.Trace.dur;
            let d = t.depth - 1 in
            t.st_child.(d) <- t.st_child.(d) +. s.Trace.dur;
            t.events <-
              { e_name = "engine." ^ cat ^ "." ^ Trace.stage_name s.Trace.stage;
                e_ts = s.Trace.ts; e_dur = s.Trace.dur; e_rpc = t.st_rpc.(d);
                e_tid = 2 }
              :: t.events
          end
          else t.foreign <- t.foreign + 1
        end)
      (Trace.spans ());
    Trace.clear ()
  end;
  t.last <- now

let close_top t now =
  let d = t.depth - 1 in
  let k = t.st_kind.(d) in
  let dur = now -. t.st_start.(d) in
  t.self_us.(k) <- t.self_us.(k) +. (dur -. t.st_child.(d));
  t.depth <- d;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur;
  t.events <-
    { e_name = name kind_of_index.(k); e_ts = t.st_start.(d); e_dur = dur;
      e_rpc = t.st_rpc.(d); e_tid = 1 }
    :: t.events

let push t k ~rpc now =
  if t.depth = max_depth then failwith "e2e: span stack overflow";
  let d = t.depth in
  t.st_kind.(d) <- index k;
  t.st_start.(d) <- now;
  t.st_child.(d) <- 0.0;
  t.st_rpc.(d) <- (if rpc > 0 then rpc else top_rpc t);
  t.enters.(index k) <- t.enters.(index k) + 1;
  t.depth <- d + 1

(* The server's probe opens [Reply] before every send attempt but closes
   it only after a send TCP accepted.  A back-pressured attempt therefore
   leaves an orphan, which the next unrelated boundary closes.
   [in_reply] marks the boundaries that legitimately nest inside a reply
   (its own datagrams leaving). *)
let enter ?(rpc = 0) ?(in_reply = false) t k =
  let now = now_us () in
  drain t now;
  if (not in_reply) && t.depth > 0 && t.st_kind.(t.depth - 1) = index Reply then
    close_top t now;
  push t k ~rpc now

let exit t k =
  let now = now_us () in
  drain t now;
  while t.depth > 0 && t.st_kind.(t.depth - 1) <> index k do
    if t.st_kind.(t.depth - 1) <> index Reply then
      failwith ("e2e: unbalanced span " ^ name k);
    close_top t now
  done;
  if t.depth = 0 then failwith ("e2e: unbalanced span " ^ name k);
  close_top t now

(* A traced sample is one root [Bench] span: time no layer span covers
   is the bench's own. *)
let begin_sample t =
  Trace.enable ~capacity:8192 ();
  t.events <- [];
  t.on <- true;
  let now = now_us () in
  t.last <- now;
  push t Bench ~rpc:0 now

let end_sample t =
  exit t Bench;
  if t.depth <> 0 then failwith "e2e: spans left open at the end of a sample";
  t.on <- false;
  Trace.disable ()

let chrome_json t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
            \"pid\": 1, \"tid\": %d, \"args\": {\"rpc\": %d}}"
           e.e_name e.e_ts e.e_dur e.e_tid e.e_rpc))
    (List.rev t.events);
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b
