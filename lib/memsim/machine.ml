type t = {
  cfg : Config.t;
  l1d_write_through : bool;
  l1d : Cache.t;
  (* What the last span or walk of the L1d left to charge, read by
     field. *)
  tally : Cache.tally;
  l1i : Cache.t;
  (* Read on every [exec]: a field load, where [Cache.id] would be a
     call ([-opaque] builds inline nothing across modules). *)
  l1i_id : int;
  l2 : Cache.t option;
  stats : Stats.t;
  (* The counters are ints: stalls in quarter cycles, ALU work in ops.
     Every stall term is an integer latency or a write-buffer drain of
     [store_buffer_cycles * size / 4] cycles, a whole number of
     quarters, so the counts come out the same in any order and in any
     batching; the readers form [cycles = stall / 4 + ops * compute_scale]
     when called.  An int field also updates in place, where a mutable
     float field boxes every update. *)
  mutable stall : int;
  mutable ifetch_stall : int;
  mutable ops : int;
  (* Latencies in quarter cycles; a [size]-byte store drains
     [drain * size] of them. *)
  l1_hit : int;
  l2_hit : int;
  mem : int;
  drain : int;
  compute_scale : float;
}

let create cfg =
  let l1i = Cache.create cfg.Config.l1i in
  { cfg;
    l1d_write_through =
      cfg.Config.l1d.Cache.write_policy = Cache.Write_through;
    l1d = Cache.create cfg.Config.l1d;
    tally = Cache.tally ();
    l1i;
    l1i_id = Cache.id l1i;
    l2 = Option.map Cache.create cfg.Config.l2;
    stats = Stats.create ();
    stall = 0;
    ifetch_stall = 0;
    ops = 0;
    l1_hit = 4 * Config.l1_hit_cycles cfg;
    l2_hit = 4 * Config.l2_hit_cycles cfg;
    mem = 4 * Config.mem_cycles cfg;
    drain = Config.store_buffer_cycles cfg;
    compute_scale = cfg.Config.compute_scale }

let charge_stall t kind q =
  t.stall <- t.stall + q;
  if kind = Stats.Ifetch then t.ifetch_stall <- t.ifetch_stall + q

(* Cost of reaching below the first-level cache: either an L2 access (with
   its own possible miss to memory) or memory directly.  [kind]/[size] are
   only used to attribute second-level misses in the ledger. *)
let below_l1 t kind ~size ~addr ~write =
  match t.l2 with
  | None -> charge_stall t kind t.mem
  | Some l2 ->
      let o = Cache.access l2 ~addr ~write in
      if o >= 0 then charge_stall t kind t.l2_hit
      else begin
        Stats.record_miss t.stats kind ~size ~level:2;
        charge_stall t kind t.mem;
        if Cache.writeback o then charge_stall t kind t.mem
      end

(* The fills a span or walk of the L1d logged, in order: each is an L1
   miss of its side's kind and reads its line from below, and a dirty
   victim is written back there at its own line. *)
let replay t (r : Cache.tally) ~unit =
  let writes = ref 0 in
  for j = 0 to r.Cache.fills - 1 do
    let write = r.Cache.fill_write.(j) and victim = r.Cache.fill_victim.(j) in
    if write then incr writes;
    let kind = if write then Stats.Write else Stats.Read in
    below_l1 t kind ~size:unit ~addr:r.Cache.fill_line.(j) ~write:false;
    if victim >= 0 then below_l1 t Stats.Write ~size:unit ~addr:victim ~write:true
  done;
  let reads = r.Cache.fills - !writes in
  if reads > 0 then Stats.record_misses t.stats Stats.Read ~size:unit ~level:1 ~n:reads;
  if !writes > 0 then Stats.record_misses t.stats Stats.Write ~size:unit ~level:1 ~n:!writes

(* Charges what the last span or walk of the L1d left in [t.tally]: a
   line that hit costs the L1 latency; a store-around is an L1 write miss
   and, unless the L1 is write-through (its stores drain anyway), a
   write-buffer drain; the fills are replayed below the L1.  Charging
   the counts once and the fills after the walk is exact: no L1d outcome
   depends on the L2, the stalls and the ledger are integer sums, and
   the L2 gets the same accesses in the same order as line by line. *)
let[@inline] charge t ~unit =
  let r = t.tally in
  t.stall <- t.stall + (r.Cache.hits * t.l1_hit);
  if r.Cache.arounds > 0 then begin
    Stats.record_misses t.stats Stats.Write ~size:unit ~level:1 ~n:r.Cache.arounds;
    if not t.l1d_write_through then t.stall <- t.stall + (r.Cache.arounds * t.drain * unit)
  end;
  if r.Cache.fills > 0 then replay t r ~unit

let read t ~addr ~size =
  Stats.record_access t.stats Stats.Read ~size;
  Cache.span t.l1d t.tally ~addr ~size ~write:false;
  charge t ~unit:size

(* In a write-through cache every store drains through the write buffer
   whether it hits or misses; the buffer merges consecutive stores to a
   line, so the amortised cost scales with the bytes written
   (store_buffer_ns is the drain cost of a 4-byte store).  A store miss
   is additionally counted in the ledger — that is the quantity the
   paper's cachesim reports — but a byte-wise store stream is only
   marginally slower than a word-wise one, not 4x. *)
let write t ~addr ~size =
  Stats.record_access t.stats Stats.Write ~size;
  if t.l1d_write_through then t.stall <- t.stall + (t.drain * size);
  Cache.span t.l1d t.tally ~addr ~size ~write:true;
  charge t ~unit:size

let compute t ops = if ops > 0 then t.ops <- t.ops + ops

(* A run of [n] iterations, iteration [i] being: read [unit] bytes at
   [src + i*unit]; unless [dst < 0], write [unit] bytes at
   [dst + i*unit]; charge [ops] ALU ops.  What every iteration charges
   alike (the accesses in [Stats], the ops, a write-through drain per
   write) is charged once, times [n]; the L1d is walked in one call, and
   what the walk counted and logged is charged once. *)
let run t ~src ~dst ~len ~unit ~ops =
  let shift =
    match unit with
    | 1 -> 0
    | 2 -> 1
    | 4 -> 2
    | 8 -> 3
    | _ -> invalid_arg "Machine: run unit"
  in
  let n = len asr shift in
  if n > 0 then begin
    Stats.record_accesses t.stats Stats.Read ~size:unit ~n;
    compute t (n * ops);
    if dst >= 0 then begin
      Stats.record_accesses t.stats Stats.Write ~size:unit ~n;
      if t.l1d_write_through then t.stall <- t.stall + (n * t.drain * unit)
    end;
    Cache.walk t.l1d t.tally ~read:src ~write:dst ~n ~shift;
    charge t ~unit
  end

let read_run t ~addr ~len ~unit ~ops = run t ~src:addr ~dst:(-1) ~len ~unit ~ops
let copy_run t ~src ~dst ~len ~unit = run t ~src ~dst ~len ~unit ~ops:1

(* Instruction fetch.  Only [exec] touches the L1i, and a line leaves it
   only through a fill or a flush, each of which moves [Cache.fills].  So
   while the count stands where it was when a walk over a region, on this
   very L1i, left all the region's lines resident, they are still there
   in the same ways: every line hits, and a hit here charges no cycles.
   The walk then reduces to n Ifetch accesses and a hit on each
   remembered way in line order.  Otherwise the lines are walked one by
   one, and the region remembers where each was left. *)
let exec t (region : Code.region) =
  let len = region.Code.len and memo = region.Code.memo and l1i = t.l1i in
  if len > 0 then
    if memo.Code.cache = t.l1i_id && memo.Code.fills = Cache.fills l1i then begin
      Stats.record_accesses t.stats Stats.Ifetch ~size:4 ~n:(Array.length memo.Code.ways);
      Cache.touch_ways l1i memo.Code.ways
    end
    else begin
      let line = Cache.line_size l1i in
      let first = region.Code.base land lnot (line - 1) in
      let n = ((((region.Code.base + len - 1) land lnot (line - 1)) - first) / line) + 1 in
      memo.Code.cache <- -1;
      if Array.length memo.Code.ways <> n then memo.Code.ways <- Array.make n 0;
      let ways = memo.Code.ways in
      Stats.record_accesses t.stats Stats.Ifetch ~size:4 ~n;
      for j = 0 to n - 1 do
        let a = first + (j * line) in
        let o = Cache.access l1i ~addr:a ~write:false in
        if o >= 0 then ways.(j) <- o
        else begin
          ways.(j) <- Cache.way_of o;
          Stats.record_miss t.stats Stats.Ifetch ~size:4 ~level:1;
          below_l1 t Stats.Ifetch ~size:4 ~addr:a ~write:false
        end
      done;
      if Cache.holds_all l1i ways then begin
        memo.Code.cache <- t.l1i_id;
        memo.Code.fills <- Cache.fills l1i
      end
    end

let cycles t = (float_of_int t.stall *. 0.25) +. (float_of_int t.ops *. t.compute_scale)

(* Not [cycles t /. clock]: each reader returns a boxed float, and a
   reader calling another allocates twice.  Inlined, [micros_of] boxes
   nothing: [micros] boxes its result once, and [store_micros] stores
   it into a float array, which holds its floats flat. *)
let[@inline] micros_of t =
  ((float_of_int t.stall *. 0.25) +. (float_of_int t.ops *. t.compute_scale))
  /. t.cfg.Config.clock_mhz

let micros t = micros_of t
let store_micros t (a : float array) i = a.(i) <- micros_of t

let stall_cycles t = float_of_int t.stall *. 0.25
let stall_micros t = float_of_int t.stall *. 0.25 /. t.cfg.Config.clock_mhz
let ifetch_stall_cycles t = float_of_int t.ifetch_stall *. 0.25
let stats t = t.stats

let reset_counters t =
  t.stall <- 0;
  t.ifetch_stall <- 0;
  t.ops <- 0;
  Stats.reset t.stats

let flush_caches t =
  Cache.flush t.l1d;
  Cache.flush t.l1i;
  Option.iter Cache.flush t.l2
