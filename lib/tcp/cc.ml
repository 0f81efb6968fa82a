let dupthresh = 3

type t = {
  mss : int;
  enabled : bool;
  mutable cwnd : int;
  mutable ssthresh : int;
  (* RFC 3465 byte counting: bytes acknowledged in congestion avoidance
     since cwnd last grew. *)
  mutable acked : int;
  mutable dupacks : int;
  (* NewReno fast recovery: from the loss-detecting duplicate ack until
     [recover] (snd_nxt at that moment) is acknowledged. *)
  mutable in_recovery : bool;
  mutable recover : int;
}

let create ~mss ~enabled =
  { mss; enabled; cwnd = 2 * mss; ssthresh = 64 * 1024; acked = 0;
    dupacks = 0; in_recovery = false; recover = 0 }

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let window t = if t.enabled then t.cwnd else max_int
let in_recovery t = t.in_recovery

let loss t ~in_flight ~timeout =
  if t.enabled then begin
    t.ssthresh <- max (in_flight / 2) (2 * t.mss);
    t.cwnd <- (if timeout then t.mss else t.ssthresh)
  end

let ack t ~acked =
  t.dupacks <- 0;
  if t.in_recovery || not t.enabled then false
  else begin
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + min acked t.mss
    else begin
      t.acked <- t.acked + acked;
      if t.acked >= t.cwnd then begin
        t.acked <- t.acked - t.cwnd;
        t.cwnd <- t.cwnd + t.mss
      end
    end;
    true
  end

type dupack = Counted | Threshold | Recovering of bool

let dupack t ~threshold ~outstanding =
  t.dupacks <- t.dupacks + 1;
  if t.dupacks = threshold && not t.in_recovery then Threshold
  else if t.in_recovery && t.dupacks > threshold then begin
    (* Each outstanding segment can produce at most one duplicate ack;
       any beyond that is forgery or wire duplication and earns nothing. *)
    let inflate = t.enabled && t.dupacks <= outstanding in
    if inflate then t.cwnd <- t.cwnd + t.mss;
    Recovering inflate
  end
  else Counted

let fast_loss t ~recover ~in_flight =
  t.in_recovery <- true;
  t.recover <- recover;
  loss t ~in_flight ~timeout:false;
  (* The threshold duplicate acks witness segments that left the network
     (RFC 5681 step 3.2). *)
  if t.enabled then t.cwnd <- t.cwnd + (dupthresh * t.mss);
  t.enabled

let timeout t ~in_flight =
  t.in_recovery <- false;
  t.dupacks <- 0;
  loss t ~in_flight ~timeout:true;
  t.enabled

type recovery = Not_recovering | Partial_ack | Full_ack of bool

let recovery_ack t ~ack =
  if not t.in_recovery then Not_recovering
  else if ack >= t.recover then begin
    t.in_recovery <- false;
    if t.enabled then t.cwnd <- t.ssthresh;
    Full_ack t.enabled
  end
  else Partial_ack

let leave_recovery t = t.in_recovery <- false
