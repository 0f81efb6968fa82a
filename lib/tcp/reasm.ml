type entry = Stashed of { slot : int; len : int } | Placed of { len : int; psh : bool }

type arrival = Beyond_window | Held | Place of int | Stash of int | No_slot

(* The held segments sit in sequence order in two arrays, [seqs] and
   [entries], of which the first [n] slots are live: a lookup is a
   binary search, the drain takes a prefix, and the SACK ranges are one
   ascending merge into the scratch arrays [mlo]/[mhi], so an ack builds
   only the blocks it carries.  Every array grows by doubling and is
   never shrunk. *)
type t = {
  window : int;
  sack : bool;
  free : bool array;
  mutable seqs : int array;
  mutable entries : entry array;
  mutable n : int;
  mutable mlo : int array;
  mutable mhi : int array;
  mutable last : int;
  mutable dsack : (int * int) option;
  mutable framing : bool;
  (* The current framed TSDU while [fr_elen >= 0]: [fr_base] is the
     sequence number of its prelude byte 0, [fr_plen] the prelude length,
     [fr_elen] its engine (post-prelude) wire length. *)
  mutable fr_base : int;
  mutable fr_plen : int;
  mutable fr_elen : int;
}

let vacant = Placed { len = 0; psh = false }

let create ~slots ~window ~sack =
  let cap = slots + 8 in
  { window; sack; free = Array.make slots true; seqs = Array.make cap 0;
    entries = Array.make cap vacant; n = 0; mlo = Array.make cap 0;
    mhi = Array.make cap 0; last = -1; dsack = None; framing = false;
    fr_base = 0; fr_plen = 0; fr_elen = -1 }

let capacity r = Array.length r.free
let entry_len = function Stashed { len; _ } | Placed { len; _ } -> len

(* The index of the first held segment at or above [seq] ([r.n] if
   none). *)
let search r seq =
  let lo = ref 0 and hi = ref r.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.seqs.(mid) < seq then lo := mid + 1 else hi := mid
  done;
  !lo

let mem r seq =
  let i = search r seq in
  i < r.n && r.seqs.(i) = seq

let grow r =
  let cap = 2 * Array.length r.seqs in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 r.n;
    b
  in
  r.seqs <- extend r.seqs 0;
  r.entries <- extend r.entries vacant;
  r.mlo <- Array.make cap 0;
  r.mhi <- Array.make cap 0

(* Hold [e] at [seq], replacing what is held there. *)
let hold r seq e =
  let i = search r seq in
  if i < r.n && r.seqs.(i) = seq then r.entries.(i) <- e
  else begin
    if r.n = Array.length r.seqs then grow r;
    Array.blit r.seqs i r.seqs (i + 1) (r.n - i);
    Array.blit r.entries i r.entries (i + 1) (r.n - i);
    r.seqs.(i) <- seq;
    r.entries.(i) <- e;
    r.n <- r.n + 1
  end

(* Forget the first [k] held segments. *)
let drop_prefix r k =
  if k > 0 then begin
    Array.blit r.seqs k r.seqs 0 (r.n - k);
    Array.blit r.entries k r.entries 0 (r.n - k);
    Array.fill r.entries (r.n - k) k vacant;
    r.n <- r.n - k
  end

let set_framing r on = r.framing <- on
let awaiting_prelude r = r.framing && r.fr_elen < 0

let open_frame r ~seq ~plen ~elen =
  r.fr_base <- seq;
  r.fr_plen <- plen;
  r.fr_elen <- elen

let close_frame r = r.fr_elen <- -1

let beyond_frame r ~dst_off ~len =
  r.framing && r.fr_elen >= 0 && dst_off + len > r.fr_elen

let duplicate r ~seq ~len =
  (* 1-byte persist and keepalive probes resend an acknowledged byte on
     purpose and are not reported. *)
  if r.sack && len > 1 then r.dsack <- Some (seq, seq + len)

(* The lowest free stash slot, or -1. *)
let free_slot r =
  let rec go i =
    if i = Array.length r.free then -1 else if r.free.(i) then i else go (i + 1)
  in
  go 0

let arrive r ~rcv_nxt ~seq ~len =
  (* A conforming sender never sends there: a segment that claims to
     start beyond the window had its sequence number corrupted. *)
  if seq >= rcv_nxt + r.window then Beyond_window
  else if mem r seq then begin
    duplicate r ~seq ~len;
    Held
  end
  else if
    r.framing && r.fr_elen >= 0 && len > 0
    && seq + len <= r.fr_base + r.fr_plen + r.fr_elen
  then Place (seq - r.fr_base - r.fr_plen)
  else
    let slot = free_slot r in
    if slot < 0 then No_slot
    else begin
      r.free.(slot) <- false;
      hold r seq (Stashed { slot; len });
      r.last <- seq;
      Stash slot
    end

let placed r ~seq ~len ~psh =
  hold r seq (Placed { len; psh });
  r.last <- seq

let release r = function Stashed { slot; _ } -> r.free.(slot) <- true | Placed _ -> ()

let pop r ~rcv_nxt =
  (* A segment held where no real segment starts (its sequence number
     was corrupted in flight) is never drained: forget it once [rcv_nxt]
     has passed it, or it would leak its slot and be reported forever.
     The held segments below [rcv_nxt] are a prefix. *)
  let stale = search r rcv_nxt in
  for i = 0 to stale - 1 do
    release r r.entries.(i)
  done;
  drop_prefix r stale;
  if r.n > 0 && r.seqs.(0) = rcv_nxt then begin
    let e = r.entries.(0) in
    drop_prefix r 1;
    release r e;
    Some e
  end
  else None

let clear r =
  Array.fill r.entries 0 r.n vacant;
  r.n <- 0;
  Array.fill r.free 0 (Array.length r.free) true;
  r.fr_elen <- -1

(* Merge the held segments, in ascending order, into maximal contiguous
   ranges [mlo.(j), mhi.(j)), ascending; returns their count. *)
let merge r =
  let m = ref 0 in
  for i = 0 to r.n - 1 do
    let l = r.seqs.(i) in
    let h = l + entry_len r.entries.(i) in
    if !m > 0 && l <= r.mhi.(!m - 1) then r.mhi.(!m - 1) <- Int.max r.mhi.(!m - 1) h
    else begin
      r.mlo.(!m) <- l;
      r.mhi.(!m) <- h;
      incr m
    end
  done;
  !m

(* The merged range holding the most recent arrival, or -1. *)
let recent_range r m =
  let found = ref (-1) in
  for j = 0 to m - 1 do
    if r.mlo.(j) <= r.last && r.last < r.mhi.(j) then found := j
  done;
  !found

(* The index of the [k]-th block when the [m] ranges are reported the
   recent one first, the rest by descending sequence. *)
let block_index ~m ~recent k =
  if recent < 0 then m - 1 - k
  else if k = 0 then recent
  else if m - k <= recent then m - k - 1
  else m - k

(* Held data merged into maximal contiguous ranges, the range holding the
   most recent arrival first (RFC 2018: "the first SACK block MUST
   specify the ... most recently received segment"), the rest by
   descending sequence; at most [cap] of them, so the list returned is
   the only allocation. *)
let blocks r ~cap =
  let m = merge r in
  let recent = recent_range r m in
  let acc = ref [] in
  for k = Int.min cap m - 1 downto 0 do
    let j = block_index ~m ~recent k in
    acc := (r.mlo.(j), r.mhi.(j)) :: !acc
  done;
  !acc

let ranges r = blocks r ~cap:max_int

let take_blocks r =
  let d = r.dsack in
  r.dsack <- None;
  if not r.sack then []
  else
    match d with
    | Some d -> d :: blocks r ~cap:(Tcp_header.max_sack_blocks - 1)
    | None -> blocks r ~cap:Tcp_header.max_sack_blocks

let slots_in_use r =
  Array.fold_left (fun n free -> if free then n else n + 1) 0 r.free

let held r =
  let acc = ref [] in
  for i = r.n - 1 downto 0 do
    acc := (r.seqs.(i), r.entries.(i)) :: !acc
  done;
  !acc
