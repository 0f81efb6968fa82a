type 'a seg = {
  seq : int;
  len : int;
  data : 'a;
  mutable sacked : bool;
  mutable resent : bool;
  mutable resent_at : float;
}

type 'a t = { sack : bool; q : 'a seg Queue.t }

let create ~sack = { sack; q = Queue.create () }

let add t ~seq ~len data =
  Queue.add
    { seq; len; data; sacked = false; resent = false; resent_at = 0.0 }
    t.q

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let bytes t = Queue.fold (fun acc s -> acc + s.len) 0 t.q
let oldest t = Queue.peek_opt t.q
let clear t = Queue.clear t.q

let front_acked t ~ack =
  (not (Queue.is_empty t.q))
  &&
  let s = Queue.peek t.q in
  s.seq + s.len <= ack

let pop t = Queue.pop t.q

type sack_counts = { accepted : int; invalid : int; spurious : int }

let no_blocks = { accepted = 0; invalid = 0; spurious = 0 }

let process_sack t ~ack ~snd_nxt = function
  | [] -> no_blocks
  | blocks ->
      let accepted = ref [] and invalid = ref 0 and spurious = ref 0 in
      (* RFC 2883: a first block wholly contained in a later block of the
         same ack reports a duplicate arrival above the cumulative ack,
         not new information — strip it so the overlap rule below only
         condemns genuinely forged feedback.  (The duplicate-below-cumack
         form is the [r <= ack] case in the loop.) *)
      let blocks =
        match blocks with
        | (l, r) :: rest
          when l < r && r <= snd_nxt
               && List.exists (fun (al, ar) -> al <= l && r <= ar) rest ->
            incr spurious;
            rest
        | _ -> blocks
      in
      List.iter
        (fun (l, r) ->
          if l >= r || r > snd_nxt then incr invalid
          else if r <= ack then incr spurious
          else if List.exists (fun (al, ar) -> l < ar && al < r) !accepted then
            incr invalid
          else begin
            let l = Int.max l ack in
            accepted := (l, r) :: !accepted;
            Queue.iter
              (fun s ->
                if (not s.sacked) && s.seq >= l && s.seq + s.len <= r then
                  s.sacked <- true)
              t.q
          end)
        blocks;
      { accepted = List.length !accepted; invalid = !invalid;
        spurious = !spurious }

let first_unsacked t = Seq.find (fun s -> not s.sacked) (Queue.to_seq t.q)

let sacked_segments t =
  Queue.fold (fun n s -> if s.sacked then n + 1 else n) 0 t.q

let segments t = List.of_seq (Queue.to_seq t.q)

let dupack_threshold t =
  let n = Queue.length t.q in
  if t.sack && n > 0 && n < 1 + Cc.dupthresh && sacked_segments t = n - 1
  then Int.max 1 (n - 1)
  else Cc.dupthresh

let mark_resent s ~now =
  s.resent <- true;
  s.resent_at <- now

let iter_holes t ~cap ~now ~retry_after f =
  let total_sacked = if t.sack then sacked_segments t else 0 in
  if total_sacked > 0 then begin
    let eligible s = (not s.resent) || now -. s.resent_at >= retry_after in
    let pipe = ref 0 in
    let seen = ref 0 in
    Queue.iter
      (fun s ->
        if s.sacked then incr seen
        else begin
          let lost = total_sacked - !seen >= Cc.dupthresh in
          if (not lost) || not (eligible s) then pipe := !pipe + s.len
        end)
      t.q;
    let seen = ref 0 in
    Queue.iter
      (fun s ->
        if s.sacked then incr seen
        else if
          total_sacked - !seen >= Cc.dupthresh && eligible s && !pipe < cap
        then begin
          f s;
          pipe := !pipe + s.len
        end)
      t.q
  end

let clear_resent t = Queue.iter (fun s -> s.resent <- false) t.q

let renege t =
  Queue.iter
    (fun s ->
      s.sacked <- false;
      s.resent <- false)
    t.q
