(* Size-classed reusable buffer pool.  Each class keeps its free
   power-of-two-sized Bytes values in a fixed stack of [class_cap] slots;
   acquire rounds the request up to its class and reuses the buffer
   released last when there is one, falling back to a fresh allocation
   when the class is empty (pool exhaustion is a performance event, never
   a failure).  Release returns a buffer to its class, dropping it to the
   GC when the class is already at capacity.  The acquired/released
   counters make leak assertions one subtraction. *)

module M = Ilp_obs.Metrics

(* Each pool's counters are one block of the registry's [pool.*]
   family: the registry sums them over every pool. *)
let family =
  M.family M.default
    [| "pool.acquired"; "pool.released"; "pool.fresh_allocs"; "pool.dropped" |]

let c_acquired = 0
let c_released = 1
let c_fresh = 2
let c_dropped = 3
let m_acquire_bytes = M.histogram M.default "pool.acquire_bytes"

let min_size = 64
let n_classes = 19 (* 64 B .. 16 MiB *)

let max_size = min_size lsl (n_classes - 1)

type stats = {
  acquired : int;
  released : int;
  outstanding : int;
  fresh_allocs : int;  (* acquires no free buffer could serve *)
  dropped : int;  (* releases past class capacity (or oversized) *)
}

(* Class [i]'s free buffers are [free.(i * class_cap)] up to its depth
   [counts.(i)], the top one released last; every other slot holds
   [Bytes.empty], so the pool keeps nothing it handed out alive.  A
   release and an acquire move one buffer and allocate nothing. *)
type t = {
  free : Bytes.t array;
  counts : int array;
  class_cap : int;
  blk : int array;
}

let create ?(class_cap = 8) () =
  if class_cap < 0 then invalid_arg "Pool.create: class_cap must be >= 0";
  { free = Array.make (n_classes * class_cap) Bytes.empty;
    counts = Array.make n_classes 0;
    class_cap;
    blk = M.block family }

let bump t i = t.blk.(i) <- t.blk.(i) + 1

let class_size i = min_size lsl i

(* Smallest class from [i] up holding [len] bytes.  Top level, not a
   local closure over [len], so a search allocates nothing. *)
let rec class_from i len =
  if class_size i >= len || i = n_classes - 1 then i else class_from (i + 1) len

let class_index len = class_from 0 len

let fresh t len =
  bump t c_fresh;
  Memtraffic.alloc Memtraffic.Pool len;
  Bytes.create len

let acquire t len =
  if len < 0 then invalid_arg "Pool.acquire: negative length";
  bump t c_acquired;
  M.observe m_acquire_bytes len;
  if len > max_size then fresh t len
  else
    let i = class_index len in
    let depth = t.counts.(i) in
    if depth = 0 then fresh t (class_size i)
    else begin
      let k = (i * t.class_cap) + depth - 1 in
      let b = t.free.(k) in
      t.free.(k) <- Bytes.empty;
      t.counts.(i) <- depth - 1;
      b
    end

let release t b =
  bump t c_released;
  let n = Bytes.length b in
  if n < min_size || n > max_size then bump t c_dropped
  else
    let i = class_index n in
    (* Only exact class-sized buffers rejoin their class: an odd-sized
       stranger would silently shrink the class's capacity guarantee. *)
    let depth = t.counts.(i) in
    if n <> class_size i || depth >= t.class_cap then bump t c_dropped
    else begin
      t.free.((i * t.class_cap) + depth) <- b;
      t.counts.(i) <- depth + 1
    end

let outstanding t = t.blk.(c_acquired) - t.blk.(c_released)

let stats t =
  { acquired = t.blk.(c_acquired);
    released = t.blk.(c_released);
    outstanding = outstanding t;
    fresh_allocs = t.blk.(c_fresh);
    dropped = t.blk.(c_dropped) }
