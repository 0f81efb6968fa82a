type entry = { addr : int; len : int; wasted : int (* tail skipped before this entry *) }

type t = {
  base : int;
  size : int;
  mutable head : int;  (* next write offset *)
  mutable used : int;  (* bytes consumed, including waste *)
  mutable wraps : int;  (* reservations that skipped a wasted tail *)
  entries : entry Queue.t;
}

let create (sim : Ilp_memsim.Sim.t) ~size =
  if size <= 0 then invalid_arg "Ring.create: size";
  let base = Ilp_memsim.Alloc.alloc sim.alloc ~align:64 size in
  { base; size; head = 0; used = 0; wraps = 0; entries = Queue.create () }

let size t = t.size
let available t = t.size - t.used
let wraps t = t.wraps

(* The tail a [len]-byte reservation would skip before wrapping, or -1
   when it does not fit (an int, not an option: [reserve] runs once per
   transmitted segment and stays allocation-free). *)
let waste_for t len =
  if len <= 0 || len > t.size then -1
  else
    let to_end = t.size - t.head in
    let wasted = if len <= to_end then 0 else to_end in
    if t.used + wasted + len > t.size then -1 else wasted

let fits t len = waste_for t len >= 0

(* An address, or -1: an option would be a box per segment sent. *)
let reserve t len =
  let wasted = waste_for t len in
  if wasted < 0 then -1
  else begin
    let off = if wasted > 0 then 0 else t.head in
    if wasted > 0 then t.wraps <- t.wraps + 1;
    t.head <- (off + len) mod t.size;
    t.used <- t.used + wasted + len;
    Queue.add { addr = t.base + off; len; wasted } t.entries;
    t.base + off
  end

(* [Queue.take] behind an emptiness test, not [Queue.take_opt]: an ack
   releases a reservation per segment it frees, and an option would be a
   box each. *)
let release t =
  if Queue.is_empty t.entries then Error `Empty
  else begin
    let e = Queue.take t.entries in
    t.used <- t.used - e.len - e.wasted;
    Ok ()
  end

let release_exn t =
  match release t with
  | Ok () -> ()
  | Error `Empty -> failwith "Ring.release: empty"

let peek_oldest t =
  match Queue.peek_opt t.entries with
  | None -> None
  | Some e -> Some (e.addr, e.len)

let in_flight t = Queue.length t.entries
