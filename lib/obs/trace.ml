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
  | Tcp_ack
  | Tcp_sack
  | State
  | Retransmit
  | Fast_retransmit
  | Sack_retransmit
  | Persist_probe
  | Zero_window
  | Keepalive
  | Rst_tx
  | Rst_rx
  | Abort
  | Shed
  | Abandon
  | Retry
  | Reconnect
  | Resume

let stage_name = function
  | Send_marshal -> "marshal"
  | Send_encrypt -> "encrypt"
  | Send_checksum -> "checksum"
  | Send_ring_copy -> "ring-copy"
  | Send_link -> "link"
  | Recv_checksum -> "checksum"
  | Recv_decrypt -> "decrypt"
  | Recv_unmarshal -> "unmarshal"
  | Tcp_segment -> "segment"
  | Tcp_ack -> "ack"
  | Tcp_sack -> "sack"
  | State -> "state"
  | Retransmit -> "retransmit"
  | Fast_retransmit -> "fast-rexmit"
  | Sack_retransmit -> "sack-rexmit"
  | Persist_probe -> "persist-probe"
  | Zero_window -> "zero-window"
  | Keepalive -> "keepalive"
  | Rst_tx -> "rst-tx"
  | Rst_rx -> "rst-rx"
  | Abort -> "abort"
  | Shed -> "shed"
  | Abandon -> "abandon"
  | Retry -> "retry"
  | Reconnect -> "reconnect"
  | Resume -> "resume"

let stage_cat = function
  | Send_marshal | Send_encrypt | Send_checksum | Send_ring_copy | Send_link ->
      "send"
  | Recv_checksum | Recv_decrypt | Recv_unmarshal -> "recv"
  | Tcp_segment | Tcp_ack | Tcp_sack | State | Retransmit | Fast_retransmit
  | Sack_retransmit | Persist_probe | Zero_window | Keepalive | Rst_tx | Rst_rx
  | Abort ->
      "tcp"
  | Shed | Abandon | Retry | Reconnect | Resume -> "rpc"

(* Chrome thread lane per category so the four event families render as
   separate rows. *)
let cat_tid = function "send" -> 1 | "recv" -> 2 | "tcp" -> 3 | _ -> 4

(* ---- the ring ----

   Parallel preallocated arrays; [next] is the next write slot, [total]
   the number of events ever recorded.  Recording is a few array stores
   (float stores into a float array are unboxed, and a [stage] is an
   immediate), so the enabled path does not allocate either. *)

let on = ref false
let cap = ref 0
let r_stage = ref (Array.make 0 Send_marshal)
let r_packet = ref [||]
let r_arg = ref [||]
let r_kind = ref [||] (* 0 = span, 1 = instant *)
let r_ts = ref (Array.make 0 0.0)
let r_dur = ref (Array.make 0 0.0)
let next = ref 0
let total = ref 0
let packet_seq = ref 0
let cur_packet = ref 0

let enabled () = !on
let capacity () = !cap

let clear () =
  next := 0;
  total := 0;
  packet_seq := 0;
  cur_packet := 0

let enable ?(capacity = 16384) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be positive";
  if capacity <> !cap then begin
    cap := capacity;
    r_stage := Array.make capacity Send_marshal;
    r_packet := Array.make capacity 0;
    r_arg := Array.make capacity 0;
    r_kind := Array.make capacity 0;
    r_ts := Array.make capacity 0.0;
    r_dur := Array.make capacity 0.0
  end;
  clear ();
  on := true

let disable () = on := false

let begin_packet () =
  if not !on then 0
  else begin
    incr packet_seq;
    cur_packet := !packet_seq;
    !packet_seq
  end

let current_packet () = !cur_packet

let record stage ~packet ~ts ~dur ~arg ~kind =
  let i = !next in
  !r_stage.(i) <- stage;
  !r_packet.(i) <- packet;
  !r_arg.(i) <- arg;
  !r_kind.(i) <- kind;
  !r_ts.(i) <- ts;
  !r_dur.(i) <- dur;
  next := if i + 1 = !cap then 0 else i + 1;
  incr total

let span ?(arg = 0) stage ~packet ~ts ~dur =
  if !on then record stage ~packet ~ts ~dur ~arg ~kind:0

let instant stage ~packet ~ts ~arg =
  if !on then record stage ~packet ~ts ~dur:0.0 ~arg ~kind:1

let clock = ref (fun () -> 0.0)
let set_clock f = clock := f
let now () = !clock ()

(* ---- reading ---- *)

type span_rec = {
  stage : stage;
  packet : int;
  ts : float;
  dur : float;
  arg : int;
  is_instant : bool;
}

let recorded () = !total
let count () = Int.min !total !cap
let dropped () = !total - count ()

let nth_oldest i =
  (* index into the ring of the i-th oldest retained event *)
  let oldest = if !total <= !cap then 0 else !next in
  (oldest + i) mod !cap

let spans () =
  let n = count () in
  List.init n (fun i ->
      let j = nth_oldest i in
      { stage = !r_stage.(j);
        packet = !r_packet.(j);
        ts = !r_ts.(j);
        dur = !r_dur.(j);
        arg = !r_arg.(j);
        is_instant = !r_kind.(j) = 1 })

let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let n = count () in
  for i = 0 to n - 1 do
    let j = nth_oldest i in
    if i > 0 then Buffer.add_string b ",\n";
    let stage = !r_stage.(j) in
    let cat = stage_cat stage in
    if !r_kind.(j) = 1 then
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", \"s\": \"g\", \
            \"ts\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"packet\": %d, \
            \"arg\": %d}}"
           (stage_name stage) cat !r_ts.(j) (cat_tid cat) !r_packet.(j)
           !r_arg.(j))
    else
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
            \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"packet\": %d, \
            \"fused\": %d}}"
           (stage_name stage) cat !r_ts.(j) !r_dur.(j) (cat_tid cat)
           !r_packet.(j) !r_arg.(j))
  done;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let timeline ?tail () =
  let lines =
    List.map
      (fun s ->
        if s.is_instant then
          Printf.sprintf "pkt %-5d %-4s %-13s ts %12.3f            arg=%d"
            s.packet (stage_cat s.stage) (stage_name s.stage) s.ts s.arg
        else
          Printf.sprintf
            "pkt %-5d %-4s %-13s ts %12.3f dur %9.3f%s" s.packet
            (stage_cat s.stage) (stage_name s.stage) s.ts s.dur
            (if s.arg = 1 then " (fused)" else ""))
      (spans ())
  in
  match tail with
  | None -> lines
  | Some k ->
      let n = List.length lines in
      if n <= k then lines else List.filteri (fun i _ -> i >= n - k) lines
