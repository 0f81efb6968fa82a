type write_policy = Write_back | Write_through

type config = {
  size : int;
  line : int;
  assoc : int;
  write_policy : write_policy;
  write_allocate : bool;
}

let direct_mapped ~size ~line =
  { size; line; assoc = 1; write_policy = Write_back; write_allocate = true }

let set_associative ~size ~line ~assoc =
  { size; line; assoc; write_policy = Write_back; write_allocate = true }

type t = {
  cfg : config;
  sets : int;
  assoc : int;
  line_shift : int;
  (* The set of [addr] is [(addr lsr line_shift) land set_mask], its tag
     [addr lsr tag_shift]: the set count is a power of two, so neither
     takes a division. *)
  set_mask : int;
  tag_shift : int;
  write_back : bool;
  write_allocate : bool;
  (* Way state, indexed [set * assoc + way].  An invalid way holds the
     tag [-1]; an address's tag never is (addresses are non-negative),
     so a tag match alone finds a resident line. *)
  tags : int array;
  dirty : bool array;
  age : int array; (* larger = more recently used *)
  mutable tick : int;
  id : int;
  mutable fills : int;
  (* The line a fill last evicted dirty: see [access]. *)
  mutable victim : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Creation is the only global state: a cache's [id] tells it apart from
   every other cache of the process, whatever their configs. *)
let next_id = Atomic.make 0

let create cfg =
  if not (is_power_of_two cfg.line) then invalid_arg "Cache.create: line size";
  if cfg.assoc < 1 then invalid_arg "Cache.create: associativity";
  if cfg.size mod (cfg.line * cfg.assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = cfg.size / (cfg.line * cfg.assoc) in
  if not (is_power_of_two sets) then invalid_arg "Cache.create: set count";
  let ways = sets * cfg.assoc in
  { cfg;
    sets;
    assoc = cfg.assoc;
    line_shift = log2 cfg.line;
    set_mask = sets - 1;
    tag_shift = log2 cfg.line + log2 sets;
    write_back = cfg.write_policy = Write_back;
    write_allocate = cfg.write_allocate;
    tags = Array.make ways (-1);
    dirty = Array.make ways false;
    age = Array.make ways 0;
    tick = 0;
    id = Atomic.fetch_and_add next_id 1;
    fills = 0;
    victim = -1 }

let config t = t.cfg
let id t = t.id
let fills t = t.fills

(* Outcomes are plain ints so that [access] — the innermost loop of every
   simulated byte — allocates nothing.  A record here costs one
   minor-heap block per cache-line touch, which at ~19M words per 64 KiB
   message drowns the data-path allocation signal the memory-traffic
   benchmark exists to measure.  An access that filled nothing is its
   own way: [o >= 0] a hit on way [o], [-1] a store-around, so a caller
   tells those apart with one comparison.  A fill is [-2 - (way * 2 +
   writeback)]. *)
type outcome = int

let[@inline] writeback (o : outcome) = o < -1 && (-2 - o) land 1 = 1
let[@inline] way_of (o : outcome) = if o >= -1 then o else (-2 - o) asr 1

(* No tuples, options or refs escape below: [access] and [walk] run
   once per cache line of every simulated byte.  The tag search, the LRU
   touch and the hit are inlined into their callers, a loop over ints
   with no call; the tag array is typed [int] (left to inference it is
   ['a array], and [=] on an ['a] is a C call into the generic
   comparison per way). *)

(* The index of the way holding [tag] among the [assoc] ways from
   [base] (one set's), or -1. *)
let[@inline] find t base (tag : int) =
  let stop = base + t.assoc in
  let i = ref base in
  while !i < stop && t.tags.(!i) <> tag do
    incr i
  done;
  if !i < stop then !i else -1

(* Victim selection: an invalid way if any, otherwise the least recently
   used one.  It runs only on a fill. *)
let rec victim_from (tags : int array) age base assoc w best best_key =
  if w = assoc then best
  else
    let i = base + w in
    let key = if tags.(i) >= 0 then age.(i) else min_int + w in
    if key < best_key then victim_from tags age base assoc (w + 1) i key
    else victim_from tags age base assoc (w + 1) best best_key

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  t.age.(i) <- t.tick

let[@inline] hit_way t ~way ~write =
  touch t way;
  if write && t.write_back then t.dirty.(way) <- true

(* The one tag search and fill: the L1i and the L2 call it, and [lines]
   (so [span] and [walk]) inlines it.  A fill that evicts a dirty line
   leaves the victim's own line address (its old tag in this set) in
   [t.victim]. *)
let[@inline] access t ~addr ~write =
  let base = ((addr lsr t.line_shift) land t.set_mask) * t.assoc in
  let tag = addr lsr t.tag_shift in
  let i = find t base tag in
  if i >= 0 then begin
    hit_way t ~way:i ~write;
    i
  end
  else if write && not t.write_allocate then
    (* Store-around: the write goes straight to the next level. *)
    -1
  else begin
    let i = victim_from t.tags t.age base t.assoc 0 base max_int in
    (* Only a valid line is ever dirty: a flush clears both. *)
    let wb = t.dirty.(i) in
    if wb then
      t.victim <- (t.tags.(i) lsl t.tag_shift) lor (addr land (t.set_mask lsl t.line_shift));
    t.tags.(i) <- tag;
    t.dirty.(i) <- write && t.write_back;
    t.fills <- t.fills + 1;
    touch t i;
    -2 - ((i lsl 1) lor if wb then 1 else 0)
  end

let present t ~addr =
  find t (((addr lsr t.line_shift) land t.set_mask) * t.assoc) (addr lsr t.tag_shift) >= 0

type tally = {
  mutable hits : int;
  mutable arounds : int;
  mutable fills : int;
  mutable fill_line : int array;
  mutable fill_write : bool array;
  mutable fill_victim : int array;
}

(* Room for 64 fills: a 2 KiB pass over 32-byte lines.  A longer walk
   doubles it as often as it needs, and the tally keeps the larger log. *)
let tally () =
  { hits = 0;
    arounds = 0;
    fills = 0;
    fill_line = Array.make 64 0;
    fill_write = Array.make 64 false;
    fill_victim = Array.make 64 0 }

(* Twice as long; the copied second half is overwritten before it is
   read. *)
let grow a = Array.append a a

let log_fill r ~line ~write victim =
  let j = r.fills in
  if j = Array.length r.fill_line then begin
    r.fill_line <- grow r.fill_line;
    r.fill_write <- grow r.fill_write;
    r.fill_victim <- grow r.fill_victim
  end;
  r.fill_line.(j) <- line;
  r.fill_write.(j) <- write;
  r.fill_victim.(j) <- victim;
  r.fills <- j + 1

let[@inline] clear r =
  r.hits <- 0;
  r.arounds <- 0;
  r.fills <- 0

(* The access to the line at [addr] (a line address), counted or logged
   in [r]: returns the way the line is left in, or -1 for a
   store-around. *)
let[@inline] line_access t r ~addr ~write =
  let x = access t ~addr ~write in
  if x >= 0 then begin
    r.hits <- r.hits + 1;
    x
  end
  else if x = -1 then begin
    r.arounds <- r.arounds + 1;
    -1
  end
  else begin
    log_fill r ~line:addr ~write (if writeback x then t.victim else -1);
    way_of x
  end

(* The lines from [a] to [stop], in order. *)
let rec lines_from t r ~a ~stop ~write =
  let w = line_access t r ~addr:a ~write in
  if a = stop then w else lines_from t r ~a:(a + t.cfg.line) ~stop ~write

(* One side's access in full: every line from [addr]'s to [last]'s, in
   order, counted in [r].  Returns the way the last line is left in, or
   -1 for a store-around.  An access inside one line (every single
   access the benchmark makes, and every run access that does not
   straddle) is one line access, with no loop. *)
let[@inline] lines t r ~addr ~last ~write =
  let mask = lnot (t.cfg.line - 1) in
  let first = addr land mask and stop = last land mask in
  if first = stop then line_access t r ~addr:first ~write
  else lines_from t r ~a:first ~stop ~write

let span t r ~addr ~size ~write =
  clear r;
  ignore (lines t r ~addr ~last:(addr + size - 1) ~write)

(* A run's reads alone, one iteration per line they reach: the read
   that reaches it, in full, then the reads after it that stay inside
   the line, a stretch of known hits applied at once (the count and the
   LRU clock by k, the line's final age).  Nothing else touches the
   cache in between, so the line is still where the full read left
   it. *)
let read_walk t r ~src ~n ~shift =
  let unit = 1 lsl shift and line = t.cfg.line in
  let mask = lnot (line - 1) in
  let s = ref src and i = ref 0 in
  while !i < n do
    let sl = (!s + unit - 1) land mask in
    let w = lines t r ~addr:!s ~last:sl ~write:false in
    let k = Int.min ((sl + line - !s - unit) asr shift) (n - !i - 1) in
    if k > 0 then begin
      t.tick <- t.tick + k;
      r.hits <- r.hits + k;
      t.age.(w) <- t.tick
    end;
    s := !s + ((k + 1) lsl shift);
    i := !i + k + 1
  done

(* A copy, one iteration per line either side reaches.  Each side
   remembers the line its last access ended in ([rl], [wl]; -1: none
   yet) and the way that line was left in ([rw], [ww]; for the write
   side -1 is a store-around: the line is not resident in a
   no-write-allocate cache).

   - An access confined to its side's remembered line is a known hit on
     that way, if the way still holds the line's tag (the other side's
     full access may have filled into it since), or a known store-around
     again, if no read since has covered the line (a read allocates).
     No tag search.
   - Any other access goes through [lines], in full.
   - The iterations after it that stay inside both remembered lines are
     a stretch of known hits and store-arounds, which fill nothing: it
     is applied at once, the counts by k, the LRU clock by k or 2k, the
     lines' final ages (the write line last) and the dirty bit.  It
     needs the read line still resident: only a write-allocate cache's
     write fill can have evicted it. *)
let copy_walk t r ~src ~dst ~n ~shift =
  let unit = 1 lsl shift and line = t.cfg.line and tag_shift = t.tag_shift in
  let mask = lnot (line - 1) in
  let rl = ref (-1) and rw = ref (-1) and wl = ref (-1) and ww = ref (-1) in
  let s = ref src and d = ref dst and i = ref 0 in
  while !i < n do
    let sl = (!s + unit - 1) land mask in
    if sl = !rl && t.tags.(!rw) = sl lsr tag_shift then begin
      touch t !rw;
      r.hits <- r.hits + 1
    end
    else begin
      rw := lines t r ~addr:!s ~last:sl ~write:false;
      rl := sl;
      if !ww < 0 && !wl >= !s land mask && !wl <= sl then wl := -1
    end;
    let dl = (!d + unit - 1) land mask in
    if dl = !wl && (!ww < 0 || t.tags.(!ww) = dl lsr tag_shift) then
      if !ww >= 0 then begin
        hit_way t ~way:!ww ~write:true;
        r.hits <- r.hits + 1
      end
      else r.arounds <- r.arounds + 1
    else begin
      ww := lines t r ~addr:!d ~last:dl ~write:true;
      wl := dl
    end;
    let k =
      Int.min
        (Int.min ((!rl + line - !s - unit) asr shift) ((!wl + line - !d - unit) asr shift))
        (n - !i - 1)
    in
    let k = if k > 0 && t.tags.(!rw) = !rl lsr tag_shift then k else 0 in
    if k > 0 then
      if !ww >= 0 then begin
        t.tick <- t.tick + (2 * k);
        r.hits <- r.hits + (2 * k);
        t.age.(!rw) <- t.tick - 1;
        t.age.(!ww) <- t.tick;
        if t.write_back then t.dirty.(!ww) <- true
      end
      else begin
        t.tick <- t.tick + k;
        r.hits <- r.hits + k;
        r.arounds <- r.arounds + k;
        t.age.(!rw) <- t.tick
      end;
    s := !s + ((k + 1) lsl shift);
    d := !d + ((k + 1) lsl shift);
    i := !i + k + 1
  done

let walk t r ~read ~write ~n ~shift =
  clear r;
  if write < 0 then read_walk t r ~src:read ~n ~shift
  else copy_walk t r ~src:read ~dst:write ~n ~shift

(* The LRU clock read once and stored once: way [j]'s age is the clock
   plus [j + 1], as [j + 1] touches in order leave it. *)
let touch_ways t (ways : int array) =
  let tick = t.tick and age = t.age and n = Array.length ways in
  for j = 0 to n - 1 do
    age.(Array.unsafe_get ways j) <- tick + j + 1
  done;
  t.tick <- tick + n

(* [ways.(j)] is where a walk over consecutive lines left line [j].  A
   line is evicted only by a later fill into its way, and only lines [j]
   apart by a multiple of [sets] share a set (and so could share a way). *)
let rec distinct_from (ways : int array) sets j k =
  k < 0 || (ways.(k) <> ways.(j) && distinct_from ways sets j (k - sets))

let rec all_distinct ways sets j =
  j >= Array.length ways
  || (distinct_from ways sets j (j - sets) && all_distinct ways sets (j + 1))

let holds_all t ways = all_distinct ways t.sets t.sets

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.fills <- t.fills + 1

let line_size t = t.cfg.line
