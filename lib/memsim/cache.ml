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
    fills = 0 }

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

let writeback (o : outcome) = o < -1 && (-2 - o) land 1 = 1
let way_of (o : outcome) = if o >= -1 then o else (-2 - o) asr 1

(* No tuples, options or refs escape below: [access] runs once per cache
   line of every simulated byte.  The tag search, [touch] and [hit_way]
   are inlined into their callers, a loop over ints with no call; the
   tag array is typed [int] (left to inference it is ['a array], and [=]
   on an ['a] is a C call into the generic comparison per way). *)

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

let access t ~addr ~write =
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
    t.tags.(i) <- tag;
    t.dirty.(i) <- write && t.write_back;
    t.fills <- t.fills + 1;
    touch t i;
    -2 - ((i lsl 1) lor if wb then 1 else 0)
  end

let way t ~addr =
  find t (((addr lsr t.line_shift) land t.set_mask) * t.assoc) (addr lsr t.tag_shift)

let present t ~addr = way t ~addr >= 0

(* [n] rounds of (read hit on [read_way]; write hit on [write_way]) leave
   only the last round's ages behind: the read line one tick behind the
   write line, or both on the last tick when they are the same way. *)
let repeat_hits t ~read_way ~write_way ~n =
  if n > 0 then
    if write_way < 0 then begin
      t.tick <- t.tick + n;
      t.age.(read_way) <- t.tick
    end
    else begin
      t.tick <- t.tick + (2 * n);
      t.age.(read_way) <- t.tick - 1;
      t.age.(write_way) <- t.tick;
      if t.write_back then t.dirty.(write_way) <- true
    end

let touch_ways t ways =
  for j = 0 to Array.length ways - 1 do
    touch t ways.(j)
  done

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
