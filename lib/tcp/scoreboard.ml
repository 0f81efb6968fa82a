type 'a seg = {
  seq : int;
  len : int;
  data : 'a;
  mutable sacked : bool;
  mutable resent : bool;
  mutable resent_at : float;
}

type sack_counts = {
  mutable accepted : int;
  mutable invalid : int;
  mutable spurious : int;
}

(* The queue is a ring of segments in sequence order: [ring.((head + i)
   land (capacity - 1))] is the [i]th oldest of [n], and the capacity is
   a power of two.  Every walk is a loop over it, so no walk builds a
   closure.  A free slot holds [vacant], so a segment that left the
   queue is garbage at once rather than kept reachable (and promoted by
   every minor collection) until its slot is reused.

   [acc_l]/[acc_r] hold the blocks one ack has accepted so far and
   [counts] what the ack amounted to: scratch of [process_sack], which
   returns [counts] itself. *)
type 'a t = {
  sack : bool;
  vacant : 'a seg;
  mutable ring : 'a seg array;
  mutable head : int;
  mutable n : int;
  mutable acc_l : int array;
  mutable acc_r : int array;
  counts : sack_counts;
}

let create ~sack ~vacant =
  { sack;
    vacant = { seq = 0; len = 0; data = vacant; sacked = false; resent = false; resent_at = 0.0 };
    ring = [||]; head = 0; n = 0; acc_l = Array.make 4 0; acc_r = Array.make 4 0;
    counts = { accepted = 0; invalid = 0; spurious = 0 } }

let get t i = t.ring.((t.head + i) land (Array.length t.ring - 1))

let add t ~seq ~len data =
  let s = { seq; len; data; sacked = false; resent = false; resent_at = 0.0 } in
  let cap = Array.length t.ring in
  if t.n = cap then begin
    let ring = Array.make (Int.max 8 (2 * cap)) t.vacant in
    for i = 0 to t.n - 1 do
      ring.(i) <- get t i
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.n) land (Array.length t.ring - 1)) <- s;
  t.n <- t.n + 1

let length t = t.n
let is_empty t = t.n = 0

let bytes t =
  let b = ref 0 in
  for i = 0 to t.n - 1 do
    b := !b + (get t i).len
  done;
  !b

let oldest t = if t.n = 0 then None else Some (get t 0)

let clear t =
  for i = 0 to t.n - 1 do
    t.ring.((t.head + i) land (Array.length t.ring - 1)) <- t.vacant
  done;
  t.n <- 0

let front_acked t ~ack =
  t.n > 0
  &&
  let s = get t 0 in
  s.seq + s.len <= ack

let pop t =
  if t.n = 0 then raise Queue.Empty;
  let s = get t 0 in
  t.ring.(t.head) <- t.vacant;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.n <- t.n - 1;
  s

(* A block of [rest] contains [l, r). *)
let rec contained (l : int) (r : int) = function
  | [] -> false
  | (al, ar) :: rest -> (al <= l && r <= ar) || contained l r rest

(* An accepted block of this ack overlaps [l, r). *)
let overlaps_accepted t l r =
  let hit = ref false in
  for i = 0 to t.counts.accepted - 1 do
    if l < t.acc_r.(i) && t.acc_l.(i) < r then hit := true
  done;
  !hit

let accept t l r =
  let k = t.counts.accepted in
  if k = Array.length t.acc_l then begin
    let grow a = Array.append a (Array.make k 0) in
    t.acc_l <- grow t.acc_l;
    t.acc_r <- grow t.acc_r
  end;
  t.acc_l.(k) <- l;
  t.acc_r.(k) <- r;
  t.counts.accepted <- k + 1;
  for i = 0 to t.n - 1 do
    let s = get t i in
    if (not s.sacked) && s.seq >= l && s.seq + s.len <= r then s.sacked <- true
  done

let rec apply_blocks t ~ack ~snd_nxt = function
  | [] -> ()
  | (l, r) :: rest ->
      let c = t.counts in
      if l >= r || r > snd_nxt then c.invalid <- c.invalid + 1
      else if r <= ack then c.spurious <- c.spurious + 1
      else if overlaps_accepted t l r then c.invalid <- c.invalid + 1
      else accept t (Int.max l ack) r;
      apply_blocks t ~ack ~snd_nxt rest

let process_sack t ~ack ~snd_nxt blocks =
  let c = t.counts in
  c.accepted <- 0;
  c.invalid <- 0;
  c.spurious <- 0;
  (* RFC 2883: a first block wholly contained in a later block of the
     same ack reports a duplicate arrival above the cumulative ack, not
     new information — strip it so the overlap rule below only condemns
     genuinely forged feedback.  (The duplicate-below-cumack form is the
     [r <= ack] case of [apply_blocks].) *)
  (match blocks with
  | (l, r) :: rest when l < r && r <= snd_nxt && contained l r rest ->
      c.spurious <- 1;
      apply_blocks t ~ack ~snd_nxt rest
  | _ -> apply_blocks t ~ack ~snd_nxt blocks);
  c

let rec unsacked_from t i =
  if i >= t.n then None
  else
    let s = get t i in
    if s.sacked then unsacked_from t (i + 1) else Some s

let first_unsacked t = unsacked_from t 0

let sacked_segments t =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if (get t i).sacked then incr k
  done;
  !k

let segments t = List.init t.n (get t)

let dupack_threshold t =
  let n = t.n in
  if t.sack && n > 0 && n < 1 + Cc.dupthresh && sacked_segments t = n - 1
  then Int.max 1 (n - 1)
  else Cc.dupthresh

let mark_resent s ~now =
  s.resent <- true;
  s.resent_at <- now

let eligible s ~now ~retry_after = (not s.resent) || now -. s.resent_at >= retry_after

let iter_holes t ~cap ~now ~retry_after f =
  let total_sacked = if t.sack then sacked_segments t else 0 in
  if total_sacked > 0 then begin
    let pipe = ref 0 and seen = ref 0 in
    for i = 0 to t.n - 1 do
      let s = get t i in
      if s.sacked then incr seen
      else begin
        let lost = total_sacked - !seen >= Cc.dupthresh in
        if (not lost) || not (eligible s ~now ~retry_after) then pipe := !pipe + s.len
      end
    done;
    seen := 0;
    for i = 0 to t.n - 1 do
      let s = get t i in
      if s.sacked then incr seen
      else if
        total_sacked - !seen >= Cc.dupthresh && eligible s ~now ~retry_after && !pipe < cap
      then begin
        f s;
        pipe := !pipe + s.len
      end
    done
  end

let clear_resent t =
  for i = 0 to t.n - 1 do
    (get t i).resent <- false
  done

let renege t =
  for i = 0 to t.n - 1 do
    let s = get t i in
    s.sacked <- false;
    s.resent <- false
  done
