(* Keyed by sequence number, hashed and compared as ints. *)
module Seq_table = Hashtbl.Make (Int)

type entry = Stashed of { slot : int; len : int } | Placed of { len : int; psh : bool }

type arrival = Beyond_window | Held | Place of int | Stash of int | No_slot

type t = {
  window : int;
  sack : bool;
  free : bool array;
  held : entry Seq_table.t;
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

let create ~slots ~window ~sack =
  { window; sack; free = Array.make slots true; held = Seq_table.create 8; last = -1;
    dsack = None; framing = false; fr_base = 0; fr_plen = 0; fr_elen = -1 }

let capacity r = Array.length r.free
let entry_len = function Stashed { len; _ } | Placed { len; _ } -> len

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

let free_slot r =
  let rec go i =
    if i = Array.length r.free then None
    else if r.free.(i) then Some i
    else go (i + 1)
  in
  go 0

let arrive r ~rcv_nxt ~seq ~len =
  (* A conforming sender never sends there: a segment that claims to
     start beyond the window had its sequence number corrupted. *)
  if seq >= rcv_nxt + r.window then Beyond_window
  else if Seq_table.mem r.held seq then begin
    duplicate r ~seq ~len;
    Held
  end
  else if
    r.framing && r.fr_elen >= 0 && len > 0
    && seq + len <= r.fr_base + r.fr_plen + r.fr_elen
  then Place (seq - r.fr_base - r.fr_plen)
  else
    match free_slot r with
    | None -> No_slot
    | Some slot ->
        r.free.(slot) <- false;
        Seq_table.replace r.held seq (Stashed { slot; len });
        r.last <- seq;
        Stash slot

let placed r ~seq ~len ~psh =
  Seq_table.replace r.held seq (Placed { len; psh });
  r.last <- seq

let release r = function Stashed { slot; _ } -> r.free.(slot) <- true | Placed _ -> ()

let pop r ~rcv_nxt =
  (* A segment held where no real segment starts (its sequence number
     was corrupted in flight) is never drained: forget it once [rcv_nxt]
     has passed it, or it would leak its slot and be reported forever. *)
  if
    Seq_table.length r.held > 0
    && Seq_table.fold (fun seq _ stale -> stale || seq < rcv_nxt) r.held false
  then
    Seq_table.filter_map_inplace
      (fun seq e ->
        if seq < rcv_nxt then begin
          release r e;
          None
        end
        else Some e)
      r.held;
  match Seq_table.find_opt r.held rcv_nxt with
  | None -> None
  | Some e as found ->
      Seq_table.remove r.held rcv_nxt;
      release r e;
      found

let clear r =
  Seq_table.reset r.held;
  Array.fill r.free 0 (Array.length r.free) true;
  r.fr_elen <- -1

(* Held data merged into maximal contiguous ranges, the range holding the
   most recent arrival first (RFC 2018: "the first SACK block MUST
   specify the ... most recently received segment"), the rest by
   descending sequence. *)
let ranges r =
  if Seq_table.length r.held = 0 then []
  else begin
    let spans =
      Seq_table.fold (fun seq e acc -> (seq, seq + entry_len e) :: acc) r.held []
    in
    let spans = List.sort (fun (a, _) (b, _) -> Int.compare a b) spans in
    let merged =
      List.fold_left
        (fun acc (l, hi) ->
          match acc with
          | (pl, ph) :: rest when l <= ph -> (pl, Int.max ph hi) :: rest
          | _ -> (l, hi) :: acc)
        [] spans
    in
    match List.partition (fun (l, hi) -> l <= r.last && r.last < hi) merged with
    | [ recent ], rest -> recent :: rest
    | _ -> merged
  end

let take_blocks r =
  let d = r.dsack in
  r.dsack <- None;
  if not r.sack then []
  else match d with Some d -> d :: ranges r | None -> ranges r

let slots_in_use r =
  Array.fold_left (fun n free -> if free then n else n + 1) 0 r.free

let held r =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Seq_table.fold (fun seq e acc -> (seq, e) :: acc) r.held [])
