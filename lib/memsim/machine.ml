type t = {
  cfg : Config.t;
  l1d_write_through : bool;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t option;
  stats : Stats.t;
  (* [cycles; stall; ifetch_stall] — a flat float array is unboxed, so
     charging cycles on the per-byte hot path allocates nothing, where a
     [mutable ... : float] record field boxes every update. *)
  counters : float array;
  l1_hit_cycles : float;
  l2_hit_cycles : float;
  mem_cycles : float;
  store_buffer_cycles : float;
  compute_scale : float;
}

let create cfg =
  { cfg;
    l1d_write_through =
      cfg.Config.l1d.Cache.write_policy = Cache.Write_through;
    l1d = Cache.create cfg.Config.l1d;
    l1i = Cache.create cfg.Config.l1i;
    l2 = Option.map Cache.create cfg.Config.l2;
    stats = Stats.create ();
    counters = Array.make 3 0.0;
    l1_hit_cycles = float_of_int (Config.l1_hit_cycles cfg);
    l2_hit_cycles = float_of_int (Config.l2_hit_cycles cfg);
    mem_cycles = float_of_int (Config.mem_cycles cfg);
    store_buffer_cycles = float_of_int (Config.store_buffer_cycles cfg);
    compute_scale = cfg.Config.compute_scale }

(* Cost of reaching below the first-level cache: either an L2 access (with
   its own possible miss to memory) or memory directly.  [kind]/[size] are
   only used to attribute second-level misses in the ledger. *)
let charge_stall t kind c =
  let ctr = t.counters in
  ctr.(0) <- ctr.(0) +. c;
  ctr.(1) <- ctr.(1) +. c;
  if kind = Stats.Ifetch then ctr.(2) <- ctr.(2) +. c

(* Write-buffer drain cost for a [size]-byte store.  Computed and charged
   inside one function: a float computed at a call site is boxed to be
   passed as an argument, and on a write-through cache this runs for every
   simulated store. *)
let charge_store_drain t size =
  let c = t.store_buffer_cycles *. float_of_int size /. 4.0 in
  let ctr = t.counters in
  ctr.(0) <- ctr.(0) +. c;
  ctr.(1) <- ctr.(1) +. c

let below_l1 t kind ~size ~addr ~write =
  match t.l2 with
  | None -> charge_stall t kind t.mem_cycles
  | Some l2 ->
      let o = Cache.access l2 ~addr ~write in
      if (Cache.hit o) then charge_stall t kind t.l2_hit_cycles
      else begin
        Stats.record_miss t.stats kind ~size ~level:2;
        charge_stall t kind t.mem_cycles;
        if (Cache.writeback o) then charge_stall t kind t.mem_cycles
      end

(* Returns the way the access left its last line in ([-1] for a
   store-around). *)
let data_access t kind ~addr ~size =
  Stats.record_access t.stats kind ~size;
  let write = kind = Stats.Write in
  (* In a write-through cache every store drains through the write buffer
     whether it hits or misses; the buffer merges consecutive stores to a
     line, so the amortised cost scales with the bytes written
     (store_buffer_ns is the drain cost of a 4-byte store).  A store miss
     is additionally counted in the ledger — that is the quantity the
     paper's cachesim reports — but a byte-wise store stream is only
     marginally slower than a word-wise one, not 4x. *)
  if write && t.l1d_write_through then charge_store_drain t size;
  let line = Cache.line_size t.l1d in
  let first = addr land lnot (line - 1) in
  let last = (addr + size - 1) land lnot (line - 1) in
  (* [way] never escapes, so the compiler keeps it in a register: no
     allocation on this path, which runs for every simulated access. *)
  let way = ref (-1) in
  for j = 0 to (last - first) / line do
    let a = first + (j * line) in
    let o = Cache.access t.l1d ~addr:a ~write in
    if Cache.hit o then charge_stall t kind t.l1_hit_cycles
    else begin
      Stats.record_miss t.stats kind ~size ~level:1;
      if write && not (Cache.filled o) then
        (* Store-around: the drain charge above covers it. *)
        (if not t.l1d_write_through then charge_store_drain t size)
      else begin
        below_l1 t kind ~size ~addr:a ~write:false;
        if Cache.writeback o then below_l1 t Stats.Write ~size ~addr:a ~write:true
      end
    end;
    way := Cache.way_of o
  done;
  !way

let read t ~addr ~size = ignore (data_access t Stats.Read ~addr ~size)
let write t ~addr ~size = ignore (data_access t Stats.Write ~addr ~size)

let compute t ops =
  if ops > 0 then
    t.counters.(0) <- t.counters.(0) +. (float_of_int ops *. t.compute_scale)

(* A run of [n] iterations, iteration [i] being: read [unit] bytes at
   [src + i*unit]; when [copy], write [unit] bytes at [dst + i*unit];
   charge [ops] ALU ops.  An iteration that reaches a new line is
   simulated in full.  The iterations after it that stay inside the lines
   it touched last, [ls] and [ld], are charged in bulk, which is exact:

   - Provided [ls] is still resident when the full iteration ends (a
     write-allocating write may have evicted it; the outcomes of the
     accesses tell), each later read of [ls] is a hit.  Each later
     write of [ld] is a hit if [ld] is resident, and otherwise a
     store-around miss into a no-write-allocate L1 ([ld] was just
     written, so a write-allocating L1 holds it).
     Neither kind of access changes which lines are resident, so the
     next iteration meets the same state.
   - Such hits and store-arounds never reach L2, so the bulk sets the
     [Stats] counts, the LRU clock and ages and the dirty bit directly,
     and adds to the float counters exactly the terms [data_access] and
     [compute] would add, one by one and in the same order.  A term that
     the per-access path skips is added as +0.0, which leaves the
     counters bit-identical: they start at +0.0 and a sum is -0.0 only
     when both operands are. *)
let run t ~copy ~src ~dst ~n ~unit ~ops =
  (match unit with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg "Machine: run unit");
  let line = Cache.line_size t.l1d in
  let drain = t.store_buffer_cycles *. float_of_int unit /. 4.0 in
  let op_cycles = if ops > 0 then float_of_int ops *. t.compute_scale else 0.0 in
  let i = ref 0 in
  while !i < n do
    let s = src + (!i * unit) and d = dst + (!i * unit) in
    let rw = data_access t Stats.Read ~addr:s ~size:unit in
    let ww = if copy then data_access t Stats.Write ~addr:d ~size:unit else -1 in
    compute t ops;
    incr i;
    let ls = (s + unit - 1) land lnot (line - 1) in
    let ld = (d + unit - 1) land lnot (line - 1) in
    let k = (ls + line - s - unit) / unit in
    let k = if copy then min k ((ld + line - d - unit) / unit) else k in
    let k = min k (n - !i) in
    (* The read left [ls] in way [rw].  A write confined to [ld] evicts
       it only by filling into [rw]; a write that straddles two lines may
       have filled [rw] from its first line, so look it up again. *)
    let rw =
      if (not copy) || k = 0 then rw
      else if d land lnot (line - 1) <> ld then Cache.way t.l1d ~addr:ls
      else if ww = rw && ld <> ls then -1
      else rw
    in
    if k > 0 && rw >= 0 then begin
      Stats.record_accesses t.stats Stats.Read ~size:unit ~n:k;
      if copy then begin
        Stats.record_accesses t.stats Stats.Write ~size:unit ~n:k;
        if ww < 0 then Stats.record_misses t.stats Stats.Write ~size:unit ~level:1 ~n:k
      end;
      Cache.repeat_hits t.l1d ~read_way:rw ~write_way:ww ~n:k;
      let hit = t.l1_hit_cycles in
      let wt_drain = if copy && t.l1d_write_through then drain else 0.0 in
      let w =
        if not copy then 0.0
        else if ww >= 0 then hit
        else if t.l1d_write_through then 0.0
        else drain
      in
      let ctr = t.counters in
      for _ = 1 to k do
        ctr.(0) <- ctr.(0) +. hit +. wt_drain +. w +. op_cycles;
        ctr.(1) <- ctr.(1) +. hit +. wt_drain +. w
      done;
      i := !i + k
    end
  done

let read_run t ~addr ~len ~unit ~ops =
  run t ~copy:false ~src:addr ~dst:addr ~n:(len / unit) ~unit ~ops

let copy_run t ~src ~dst ~len ~unit =
  run t ~copy:true ~src ~dst ~n:(len / unit) ~unit ~ops:1

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

let charge_micros t us =
  if us <> 0.0 then
    t.counters.(0) <- t.counters.(0) +. (us *. t.cfg.Config.clock_mhz)

let cycles t = t.counters.(0)
let stall_cycles t = t.counters.(1)
let ifetch_stall_cycles t = t.counters.(2)
let stall_micros t = t.counters.(1) /. t.cfg.Config.clock_mhz
let micros t = t.counters.(0) /. t.cfg.Config.clock_mhz
let stats t = t.stats

let reset_counters t =
  Array.fill t.counters 0 3 0.0;
  Stats.reset t.stats

let flush_caches t =
  Cache.flush t.l1d;
  Cache.flush t.l1i;
  Option.iter Cache.flush t.l2
