type t = {
  cfg : Config.t;
  l1d_write_through : bool;
  l1d : Cache.t;
  (* Read on every data access: a field load, where [Cache.line_size]
     would be a call ([-opaque] builds inline nothing across modules). *)
  l1d_line : int;
  l1i : Cache.t;
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
  { cfg;
    l1d_write_through =
      cfg.Config.l1d.Cache.write_policy = Cache.Write_through;
    l1d = Cache.create cfg.Config.l1d;
    l1d_line = cfg.Config.l1d.Cache.line;
    l1i = Cache.create cfg.Config.l1i;
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
      if (Cache.hit o) then charge_stall t kind t.l2_hit
      else begin
        Stats.record_miss t.stats kind ~size ~level:2;
        charge_stall t kind t.mem;
        if (Cache.writeback o) then charge_stall t kind t.mem
      end

(* Charges [n] accesses that end at the L1: hits on the resident line
   in [way], or, for [way < 0], store-arounds of a line the
   no-write-allocate L1 does not hold (a write-through L1 drains every
   store anyway).  The cache state is the caller's.  Inlined: it runs
   for nearly every line a data access touches. *)
let[@inline] charge_l1 t ~size ~n way =
  if way >= 0 then t.stall <- t.stall + (n * t.l1_hit)
  else begin
    Stats.record_misses t.stats Stats.Write ~size ~level:1 ~n;
    if not t.l1d_write_through then t.stall <- t.stall + (n * t.drain * size)
  end

(* The cache side of one data access: every line it covers, in order,
   through the L1 and, on a miss that fills, below it.  Returns the
   outcome of the last line. *)
let lines t kind ~addr ~size =
  let write = kind = Stats.Write in
  let line = t.l1d_line in
  let first = addr land lnot (line - 1) in
  let last = (addr + size - 1) land lnot (line - 1) in
  (* [next] and [last_o] never escape, so the compiler keeps them in
     registers: no allocation on this path, which runs for every
     simulated access. *)
  let next = ref first and last_o = ref 0 in
  while !next <= last do
    let a = !next in
    let o = Cache.access t.l1d ~addr:a ~write in
    if Cache.hit o || not (Cache.filled o) then charge_l1 t ~size ~n:1 (Cache.way_of o)
    else begin
      Stats.record_miss t.stats kind ~size ~level:1;
      below_l1 t kind ~size ~addr:a ~write:false;
      if Cache.writeback o then below_l1 t Stats.Write ~size ~addr:a ~write:true
    end;
    last_o := o;
    next := a + line
  done;
  !last_o

let data_access t kind ~addr ~size =
  Stats.record_access t.stats kind ~size;
  (* In a write-through cache every store drains through the write buffer
     whether it hits or misses; the buffer merges consecutive stores to a
     line, so the amortised cost scales with the bytes written
     (store_buffer_ns is the drain cost of a 4-byte store).  A store miss
     is additionally counted in the ledger — that is the quantity the
     paper's cachesim reports — but a byte-wise store stream is only
     marginally slower than a word-wise one, not 4x. *)
  if kind = Stats.Write && t.l1d_write_through then
    t.stall <- t.stall + (t.drain * size);
  ignore (lines t kind ~addr ~size)

let read t ~addr ~size = data_access t Stats.Read ~addr ~size
let write t ~addr ~size = data_access t Stats.Write ~addr ~size
let compute t ops = if ops > 0 then t.ops <- t.ops + ops

(* A run of [n] iterations, iteration [i] being: read [unit] bytes at
   [src + i*unit]; when [copy], write [unit] bytes at [dst + i*unit];
   charge [ops] ALU ops.  What every iteration charges alike (the
   accesses in [Stats], the ops, a write-through drain per write) is
   charged once, times [n].  The rest goes line by line:

   - [rl]/[wl] are the lines the last iteration's read and write ended
     in, [rw]/[ww] the ways they are known to be in after it ([rw < 0]:
     not known; [ww < 0]: a store-around, the line not resident in a
     no-write-allocate L1; [wl = -1]: not known).
   - A side whose access stays inside its known line is a known hit (or
     store-around) and needs no tag search; a side that crosses into a
     new line is simulated in full, misses, fills and writebacks in run
     order as the per-access path makes them.
   - A full access may evict the other side's line.  A read or write
     confined to one line does so only by filling into that line's
     way, which its outcome shows; one that straddles two lines is not
     reported line by line, so after it the write line is searched
     again, or the read line looked up.  A read that touches a
     store-around write line allocates it.
   - The iterations after that stay inside both lines form a stretch
     of known hits and store-arounds, which change no residency; it is
     applied at once: the [Stats] misses, the stall, the LRU clock and
     the two lines' final ages and the dirty bit
     ([Cache.repeat_hits]). *)
let run t ~copy ~src ~dst ~len ~unit ~ops =
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
    if copy then begin
      Stats.record_accesses t.stats Stats.Write ~size:unit ~n;
      if t.l1d_write_through then t.stall <- t.stall + (n * t.drain * unit)
    end;
    let line = t.l1d_line in
    let mask = lnot (line - 1) in
    let rl = ref (-1) and rw = ref (-1) and wl = ref (-1) and ww = ref (-1) in
    let i = ref 0 in
    while !i < n do
      let s = src + (!i lsl shift) and d = dst + (!i lsl shift) in
      let sl = (s + unit - 1) land mask in
      if sl = !rl && !rw >= 0 then begin
        Cache.hit_way t.l1d ~way:!rw ~write:false;
        charge_l1 t ~size:unit ~n:1 !rw
      end
      else begin
        let o = lines t Stats.Read ~addr:s ~size:unit in
        if s land mask <> sl
           || (if !ww >= 0 then Cache.filled o && Cache.way_of o = !ww else sl = !wl)
        then wl := -1;
        rl := sl;
        rw := Cache.way_of o
      end;
      if copy then begin
        let dl = (d + unit - 1) land mask in
        if dl = !wl then begin
          if !ww >= 0 then Cache.hit_way t.l1d ~way:!ww ~write:true;
          charge_l1 t ~size:unit ~n:1 !ww
        end
        else begin
          let o = lines t Stats.Write ~addr:d ~size:unit in
          if d land mask <> dl then rw := Cache.way t.l1d ~addr:!rl
          else if Cache.filled o && Cache.way_of o = !rw then rw := -1;
          wl := dl;
          ww := Cache.way_of o
        end
      end;
      incr i;
      (* The iterations after this one that stay inside [rl] (and [wl]). *)
      let k = (!rl + line - s - unit) lsr shift in
      let k = if copy then Int.min k ((!wl + line - d - unit) lsr shift) else k in
      let k = Int.min k (n - !i) in
      if k > 0 && !rw >= 0 then begin
        Cache.repeat_hits t.l1d ~read_way:!rw ~write_way:(if copy then !ww else -1) ~n:k;
        charge_l1 t ~size:unit ~n:k !rw;
        if copy then charge_l1 t ~size:unit ~n:k !ww;
        i := !i + k
      end
    done
  end

let read_run t ~addr ~len ~unit ~ops = run t ~copy:false ~src:addr ~dst:addr ~len ~unit ~ops
let copy_run t ~src ~dst ~len ~unit = run t ~copy:true ~src ~dst ~len ~unit ~ops:1

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
    if memo.Code.cache = Cache.id l1i && memo.Code.fills = Cache.fills l1i then begin
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
      for j = 0 to n - 1 do
        let a = first + (j * line) in
        Stats.record_access t.stats Stats.Ifetch ~size:4;
        let o = Cache.access l1i ~addr:a ~write:false in
        ways.(j) <- Cache.way_of o;
        if not (Cache.hit o) then begin
          Stats.record_miss t.stats Stats.Ifetch ~size:4 ~level:1;
          below_l1 t Stats.Ifetch ~size:4 ~addr:a ~write:false
        end
      done;
      if Cache.holds_all l1i ways then begin
        memo.Code.cache <- Cache.id l1i;
        memo.Code.fills <- Cache.fills l1i
      end
    end

let cycles t = (float_of_int t.stall *. 0.25) +. (float_of_int t.ops *. t.compute_scale)

(* Not [cycles t /. clock]: each reader returns a boxed float, and a
   reader calling another allocates twice. *)
let micros t =
  ((float_of_int t.stall *. 0.25) +. (float_of_int t.ops *. t.compute_scale))
  /. t.cfg.Config.clock_mhz

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
