(* Pending events sit in an array-backed binary min-heap.  It orders them
   by [Float.compare] on the due time (a nan sorts first), then by the
   sequence number, which is unique: a strict total order, so events fire
   in one sequence whatever shape the heap has.

   The heap moves numbers only.  Its three arrays hold each entry's due
   time, sequence number and slot, the index of its timer in [timers], so
   a sift stores no pointer.  A timer is built once by its owner and
   armed any number of times.  It holds its heap position ([pos], -1
   while it is not armed: never armed, fired or cancelled) and a slot
   only while armed; a freed slot goes back on the [free] stack and its
   entry becomes [vacant], so the clock keeps no fired closure
   reachable. *)

type timer = { clock : t; owner : int; fn : unit -> unit; mutable pos : int }

and t = {
  mutable now : float;
  mutable due : float array;
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
  mutable timers : timer array;
  mutable free : int array;
  mutable nfree : int;
  mutable next_seq : int;
  mutable next_owner : int;
  event_budget : int;
}

exception Livelock of int

let () =
  Printexc.register_printer (function
    | Livelock n ->
        Some (Printf.sprintf "Simclock.Livelock(%d events without going idle)" n)
    | _ -> None)

let anonymous = 0

(* The entry of every free slot; its clock [nowhere] never holds an
   event. *)
let rec vacant = { clock = nowhere; owner = anonymous; fn = ignore; pos = -1 }

and nowhere =
  { now = 0.0; due = [||]; seq = [||]; slot = [||]; size = 0; timers = [||];
    free = [||]; nfree = 0; next_seq = 0; next_owner = 1; event_budget = 1 }

let stopped = vacant
let initial_capacity = 16

let create ?(event_budget = 1_000_000) () =
  if event_budget <= 0 then invalid_arg "Simclock.create: event_budget";
  let n = initial_capacity in
  { now = 0.0;
    due = Array.make n 0.0;
    seq = Array.make n 0;
    slot = Array.make n 0;
    size = 0;
    timers = Array.make n vacant;
    free = Array.init n (fun i -> n - 1 - i);
    nfree = n;
    next_seq = 0;
    next_owner = 1;
    event_budget }

let now t = t.now

let fresh_owner t =
  let o = t.next_owner in
  t.next_owner <- t.next_owner + 1;
  o

(* Every slot is taken: double the heap and the table. *)
let grow t =
  let n = Array.length t.due in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.due <- extend t.due 0.0;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.timers <- extend t.timers vacant;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.nfree <- n

(* Due time [d] with sequence number [s] fires before [d'] with [s']. *)
let[@inline] precedes d (s : int) d' s' =
  match Float.compare d d' with 0 -> s < s' | c -> c < 0

(* Move the entry at heap position [i] up past every parent it precedes. *)
let sift_up t i =
  let due = t.due and seq = t.seq and slot = t.slot and timers = t.timers in
  let d = due.(i) and s = seq.(i) and sl = slot.(i) in
  let i = ref i and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let dp = due.(p) and sp = seq.(p) in
    if precedes d s dp sp then begin
      let lp = slot.(p) in
      due.(!i) <- dp;
      seq.(!i) <- sp;
      slot.(!i) <- lp;
      timers.(lp).pos <- !i;
      i := p
    end
    else rising := false
  done;
  due.(!i) <- d;
  seq.(!i) <- s;
  slot.(!i) <- sl;
  timers.(sl).pos <- !i

(* Move the entry at heap position [i] down past every child that
   precedes it. *)
let sift_down t i =
  let due = t.due and seq = t.seq and slot = t.slot and timers = t.timers in
  let n = t.size in
  let d = due.(i) and s = seq.(i) and sl = slot.(i) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let r = l + 1 in
      let c = if r < n && precedes due.(r) seq.(r) due.(l) seq.(l) then r else l in
      let dc = due.(c) and sc = seq.(c) in
      if precedes dc sc d s then begin
        let lc = slot.(c) in
        due.(!i) <- dc;
        seq.(!i) <- sc;
        slot.(!i) <- lc;
        timers.(lc).pos <- !i;
        i := c
      end
      else sinking := false
    end
  done;
  due.(!i) <- d;
  seq.(!i) <- s;
  slot.(!i) <- sl;
  timers.(sl).pos <- !i

(* Take the entry at heap position [i] out and free its slot. *)
let remove t i =
  let sl = t.slot.(i) in
  t.timers.(sl).pos <- -1;
  t.timers.(sl) <- vacant;
  t.free.(t.nfree) <- sl;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    t.due.(i) <- t.due.(last);
    t.seq.(i) <- t.seq.(last);
    t.slot.(i) <- t.slot.(last);
    let p = (i - 1) lsr 1 in
    (* the last entry may belong above the hole or below it *)
    if i > 0 && precedes t.due.(i) t.seq.(i) t.due.(p) t.seq.(p) then sift_up t i
    else sift_down t i
  end

let timer t ~owner fn = { clock = t; owner; fn; pos = -1 }

(* Put an unarmed timer into a free slot and the heap.  Takes the next
   sequence number, as every arming does. *)
let[@inline] insert tm ~after =
  let t = tm.clock in
  (* [Float.max 0.0 after] (a nan stays a nan), without boxing a float. *)
  let delay = if after > 0.0 || Float.is_nan after then after else 0.0 in
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let sl = t.free.(t.nfree) in
  let i = t.size in
  t.timers.(sl) <- tm;
  t.size <- i + 1;
  t.due.(i) <- t.now +. delay;
  t.seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.slot.(i) <- sl;
  sift_up t i

let cancel timer = if timer.pos >= 0 then remove timer.clock timer.pos

(* [stopped]'s clock is [nowhere], whose arrays are empty: checked
   first, so nothing indexes them. *)
let arm tm ~after =
  if tm == stopped then invalid_arg "Simclock.arm: a stopped timer";
  cancel tm;
  insert tm ~after

(* A fresh timer is neither stopped nor pending: straight to [insert]. *)
let schedule t ~after fn =
  let tm = timer t ~owner:anonymous fn in
  insert tm ~after;
  tm

let is_pending timer = timer.pos >= 0

(* Fire the first event.  It leaves the heap before its callback runs, so
   the callback sees it neither pending nor cancellable. *)
let fire_first t =
  let timer = t.timers.(t.slot.(0)) in
  let at = t.due.(0) in
  remove t 0;
  t.now <- Float.max t.now at;
  timer.fn ()

let advance t dt =
  if dt < 0.0 then invalid_arg "Simclock.advance: negative step";
  let horizon = t.now +. dt in
  while t.size > 0 && t.due.(0) <= horizon do
    fire_first t
  done;
  t.now <- horizon

let run_until_idle ?max_events t =
  let budget =
    match max_events with Some n -> n | None -> t.event_budget
  in
  let fired = ref 0 in
  while t.size > 0 do
    fire_first t;
    incr fired;
    if !fired > budget then raise (Livelock budget)
  done

let pending t = t.size

let pending_count t ~owner =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if t.timers.(t.slot.(i)).owner = owner then incr n
  done;
  !n
