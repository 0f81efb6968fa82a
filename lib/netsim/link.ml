(* A small deterministic splitmix64-style generator so that impairment
   patterns are reproducible across runs and platforms. *)
module Prng = struct
  (* The 64-bit state lives in 8 bytes and the draws are inlined, so a
     draw boxes no [int64] and no [float]. *)
  type t = Bytes.t

  let create seed =
    let t = Bytes.create 8 in
    Bytes.set_int64_ne t 0 (Int64.of_int (seed lxor 0x9e3779b9));
    t

  let[@inline] next t =
    let z = Int64.add (Bytes.get_int64_ne t 0) 0x9e3779b97f4a7c15L in
    Bytes.set_int64_ne t 0 z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform float in [0, 1). *)
  let[@inline] float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    float_of_int bits /. 9007199254740992.0

  (* Uniform int in [0, bound). *)
  let[@inline] int t bound = int_of_float (float t *. float_of_int bound)
end

module M = Ilp_obs.Metrics

(* Each link's counters: one block of the registry's [link.*] family,
   in the order of the [stats] fields. *)
let family =
  M.family M.default
    [| "link.sent"; "link.delivered"; "link.dropped"; "link.duplicated";
       "link.corrupted"; "link.truncated"; "link.padded"; "link.burst_dropped";
       "link.delay_spikes"; "link.tampered" |]

let c_sent = 0
let c_delivered = 1
let c_dropped = 2
let c_duplicated = 3
let c_corrupted = 4
let c_truncated = 5
let c_padded = 6
let c_burst_dropped = 7
let c_delay_spikes = 8
let c_tampered = 9

type gilbert = {
  p_enter_bad : float;  (* per-packet P(good -> bad) *)
  p_exit_bad : float;   (* per-packet P(bad -> good) *)
  loss_in_bad : float;  (* per-packet loss probability while in bad state *)
}

type impairments = {
  delay_us : float;
  jitter_us : float;
  loss_rate : float;
  dup_rate : float;
  corrupt_rate : float;
  corrupt_bits : int;
  truncate_rate : float;
  pad_rate : float;
  pad_max : int;
  delay_spike_rate : float;
  delay_spike_us : float;
  gilbert : gilbert option;
}

let fault_free =
  { delay_us = 50.0; jitter_us = 0.0; loss_rate = 0.0; dup_rate = 0.0;
    corrupt_rate = 0.0; corrupt_bits = 1; truncate_rate = 0.0;
    pad_rate = 0.0; pad_max = 0; delay_spike_rate = 0.0;
    delay_spike_us = 0.0; gilbert = None }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  truncated : int;
  padded : int;
  burst_dropped : int;
  delay_spikes : int;
  tampered : int;
}

type t = {
  clock : Simclock.t;
  imp : impairments;
  prng : Prng.t;
  deliver : Datagram.t -> unit;
  tamper : (Datagram.t -> Datagram.t list) option;
  mutable in_bad_state : bool;
  blk : int array;
}

let bump t i = t.blk.(i) <- t.blk.(i) + 1

let check_rate name r =
  if r < 0.0 || r > 1.0 then invalid_arg ("Link.create: " ^ name)

let validate imp =
  check_rate "loss_rate" imp.loss_rate;
  check_rate "dup_rate" imp.dup_rate;
  check_rate "corrupt_rate" imp.corrupt_rate;
  check_rate "truncate_rate" imp.truncate_rate;
  check_rate "pad_rate" imp.pad_rate;
  check_rate "delay_spike_rate" imp.delay_spike_rate;
  if imp.corrupt_bits < 1 then invalid_arg "Link.create: corrupt_bits";
  if imp.pad_max < 0 then invalid_arg "Link.create: pad_max";
  (match imp.gilbert with
  | None -> ()
  | Some g ->
      check_rate "gilbert.p_enter_bad" g.p_enter_bad;
      check_rate "gilbert.p_exit_bad" g.p_exit_bad;
      check_rate "gilbert.loss_in_bad" g.loss_in_bad)

let create clock ?(delay_us = 50.0) ?(loss_rate = 0.0) ?(seed = 42)
    ?impairments ?tamper ~deliver () =
  let imp =
    match impairments with
    | Some imp -> imp
    | None -> { fault_free with delay_us; loss_rate }
  in
  validate imp;
  { clock; imp; prng = Prng.create seed; deliver; tamper;
    in_bad_state = false; blk = M.block family }

(* Flip [bits] randomly chosen bits of the payload.  A one-bit flip is
   always caught by the Internet checksum; multi-bit flips can collide. *)
let corrupt_payload t payload bits =
  let b = Bytes.of_string payload in
  let len = Bytes.length b in
  for _ = 1 to bits do
    let bit = Prng.int t.prng (len * 8) in
    let byte = bit lsr 3 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit land 7))))
  done;
  Bytes.to_string b

(* Mutate the wire bytes according to the impairment draws.  Draw order is
   fixed (corrupt, truncate, pad) so a given seed produces one trace. *)
let mangle t payload =
  let imp = t.imp in
  let payload =
    if imp.corrupt_rate > 0.0 && String.length payload > 0
       && Prng.float t.prng < imp.corrupt_rate then begin
      bump t c_corrupted;
      corrupt_payload t payload imp.corrupt_bits
    end
    else payload
  in
  let payload =
    if imp.truncate_rate > 0.0 && String.length payload > 0
       && Prng.float t.prng < imp.truncate_rate then begin
      bump t c_truncated;
      String.sub payload 0 (Prng.int t.prng (String.length payload))
    end
    else payload
  in
  if imp.pad_rate > 0.0 && imp.pad_max > 0
     && Prng.float t.prng < imp.pad_rate then begin
    bump t c_padded;
    let extra = 1 + Prng.int t.prng imp.pad_max in
    payload ^ String.init extra (fun _ -> Char.chr (Int64.to_int (Prng.next t.prng) land 0xff))
  end
  else payload

(* Two-state Gilbert-Elliott channel: returns true when the burst model
   drops this packet.  State transitions are drawn per packet. *)
let gilbert_drops t =
  match t.imp.gilbert with
  | None -> false
  | Some g ->
      if t.in_bad_state then begin
        if Prng.float t.prng < g.p_exit_bad then t.in_bad_state <- false
      end
      else if Prng.float t.prng < g.p_enter_bad then t.in_bad_state <- true;
      t.in_bad_state && Prng.float t.prng < g.loss_in_bad

let enqueue t dgram =
  let imp = t.imp in
  let extra =
    if imp.jitter_us > 0.0 then Prng.float t.prng *. imp.jitter_us else 0.0
  in
  let extra =
    if imp.delay_spike_rate > 0.0 && Prng.float t.prng < imp.delay_spike_rate
    then begin
      bump t c_delay_spikes;
      extra +. imp.delay_spike_us
    end
    else extra
  in
  ignore
    (Simclock.schedule t.clock ~after:(imp.delay_us +. extra) (fun () ->
         bump t c_delivered;
         t.deliver dgram))

(* Run one datagram through the impairment pipeline. *)
let send_one t dgram =
  if t.imp.loss_rate > 0.0 && Prng.float t.prng < t.imp.loss_rate then
    bump t c_dropped
  else if gilbert_drops t then begin
    bump t c_dropped;
    bump t c_burst_dropped
  end
  else begin
    let payload = mangle t dgram.Datagram.payload in
    let dgram =
      if payload == dgram.Datagram.payload then dgram
      else { dgram with Datagram.payload }
    in
    enqueue t dgram;
    if t.imp.dup_rate > 0.0 && Prng.float t.prng < t.imp.dup_rate then begin
      bump t c_duplicated;
      enqueue t dgram
    end
  end

let send t dgram =
  bump t c_sent;
  match t.tamper with
  | None -> send_one t dgram
  | Some f ->
      (* The tamper hook is a lying peer's NIC, not the wire: it runs
         before any impairment, may rewrite, drop ([]) or inject extra
         datagrams, and each of its outputs then takes the normal
         impairment path.  Only actual rewrites count as tampering. *)
      let out = f dgram in
      (match out with
      | [ d ] when d == dgram -> ()
      | _ -> bump t c_tampered);
      List.iter (send_one t) out

let stats t =
  let b = t.blk in
  { sent = b.(c_sent); delivered = b.(c_delivered); dropped = b.(c_dropped);
    duplicated = b.(c_duplicated); corrupted = b.(c_corrupted);
    truncated = b.(c_truncated); padded = b.(c_padded);
    burst_dropped = b.(c_burst_dropped); delay_spikes = b.(c_delay_spikes);
    tampered = b.(c_tampered) }
