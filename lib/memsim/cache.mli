(** Set-associative cache model with true-LRU replacement.

    Models a single cache level as tag state only — data contents live in
    {!Mem}; the cache decides hit/miss and eviction.  Both the SuperSPARC
    caches (16 KB 4-way data, 20 KB 5-way instruction) and the Alpha 21064
    caches (8 KB direct-mapped) are instances. *)

type write_policy = Write_back | Write_through

type config = {
  size : int;            (** total capacity in bytes *)
  line : int;            (** line size in bytes, a power of two *)
  assoc : int;           (** ways per set; [size / (line * assoc)] sets,
                             a power of two *)
  write_policy : write_policy;
  write_allocate : bool; (** allocate a line on a write miss *)
}

(** [direct_mapped ~size ~line] is a convenience write-back, write-allocate
    direct-mapped configuration. *)
val direct_mapped : size:int -> line:int -> config

val set_associative : size:int -> line:int -> assoc:int -> config

type t

(** Raises [Invalid_argument] if the geometry is inconsistent: a line
    size that is not a power of two, [assoc < 1], a [size] not divisible
    by [line * assoc], or a set count [size / (line * assoc)] that is not
    a power of two (the set is found by mask, not division).  Neither
    [size] nor [assoc] need be one: the SuperSPARC's 20 KB 5-way
    instruction cache has 64 sets. *)
val create : config -> t

val config : t -> config

(** A number that tells this cache apart from every other cache created
    in the process, whatever their configurations. *)
val id : t -> int

(** The number of lines {!access}, {!span} and {!walk} have filled, plus
    one per {!flush}: a line leaves the cache only through one of those,
    so while the count stands still every resident line stays resident,
    in its way. *)
val fills : t -> int

(** Access outcome, an immediate so the per-line hot path allocates
    nothing.  It is read by comparison: [o >= 0] is a hit (the line was
    resident before the access) on way [o]; [o = -1] a store-around (a
    write miss without allocate, the line not resident); [o < -1] a fill
    (a miss that allocated a line, so the next level must be read to
    fill it).  An access that filled no line is thus its own way, and a
    caller needs no call to tell it from a fill.  Query a fill with
    {!writeback} and {!way_of}. *)
type outcome = int

(** The access was a fill that evicted a dirty line, which must be
    written to the next level. *)
val writeback : outcome -> bool

(** The way the access left the line in: the way it hit or filled, or
    [-1] for a store-around. *)
val way_of : outcome -> int

(** [access t ~addr ~write] touches the single line containing [addr].
    The caller is responsible for splitting accesses that straddle lines. *)
val access : t -> addr:int -> write:bool -> outcome

(** [present t ~addr] reports whether the line holding [addr] is resident,
    without updating LRU state. *)
val present : t -> addr:int -> bool

(** What a {!span} or {!walk} leaves for its caller to charge.  Its
    fields are read directly, so a caller charges it with no further
    call. *)
type tally = {
  mutable hits : int;     (** line accesses that hit *)
  mutable arounds : int;  (** store-arounds *)
  mutable fills : int;    (** fills, in order, logged below *)
  mutable fill_line : int array;    (** fill [j]'s line address *)
  mutable fill_write : bool array;  (** whether a write made fill [j] *)
  mutable fill_victim : int array;
  (** the dirty line fill [j] evicted (its old tag in the same set), or
      [-1].  The three arrays grow when a walk needs more room and are
      kept. *)
}

(** A tally with room for 64 fills. *)
val tally : unit -> tally

(** [span t r ~addr ~size ~write] leaves [t] as one [size]-byte access at
    [addr] leaves it, each line it covers being one {!access}, and it
    leaves in [r] how many of those line accesses hit, how many were
    store-arounds, and every fill, in line order.  An access inside one
    line is a single line access, with no loop. *)
val span : t -> tally -> addr:int -> size:int -> write:bool -> unit

(** [walk t r ~read ~write ~n ~shift] is [n] iterations of a
    [1 lsl shift]-byte read at [read + i * (1 lsl shift)] followed by a
    write of as many bytes at [write + i * (1 lsl shift)], or by none if
    [write < 0].  A source is always given ([read >= 0]): a run reads
    every unit, and a copy writes it too.  It leaves [t] as those
    accesses, each one {!span}, leave it, and [r] counting and logging
    all of them, in order.  It takes one step per line either side
    reaches, searching tags only there, and applies the iterations that
    stay inside both sides' lines at once. *)
val walk : t -> tally -> read:int -> write:int -> n:int -> shift:int -> unit

(** [touch_ways t ways] leaves the state that a read hit on the line in
    each of [ways], in array order, leaves: the LRU clock advances once
    per way. *)
val touch_ways : t -> int array -> unit

(** [holds_all t ways] is, when [ways.(j)] is the way an in-order walk
    over consecutive lines left line [j] in, whether every line is still
    resident after the walk: no later line of the walk filled an earlier
    one's way. *)
val holds_all : t -> int array -> bool

(** Invalidate every line (loses dirtiness; used between experiments). *)
val flush : t -> unit

val line_size : t -> int
