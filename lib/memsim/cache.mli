(** Set-associative cache model with true-LRU replacement.

    Models a single cache level as tag state only — data contents live in
    {!Mem}; the cache decides hit/miss and eviction.  Both the SuperSPARC
    caches (16 KB 4-way data, 20 KB 5-way instruction) and the Alpha 21064
    caches (8 KB direct-mapped) are instances. *)

type write_policy = Write_back | Write_through

type config = {
  size : int;            (** total capacity in bytes *)
  line : int;            (** line size in bytes, a power of two *)
  assoc : int;           (** ways per set; [size / (line * assoc)] sets *)
  write_policy : write_policy;
  write_allocate : bool; (** allocate a line on a write miss *)
}

(** [direct_mapped ~size ~line] is a convenience write-back, write-allocate
    direct-mapped configuration. *)
val direct_mapped : size:int -> line:int -> config

val set_associative : size:int -> line:int -> assoc:int -> config

type t

(** Raises [Invalid_argument] if the geometry is inconsistent (sizes not
    powers of two, or [size] not divisible by [line * assoc]). *)
val create : config -> t

val config : t -> config

(** A number that tells this cache apart from every other cache created
    in the process, whatever their configurations. *)
val id : t -> int

(** The number of lines {!access} has filled, plus one per {!flush}: a
    line leaves the cache only through one of those, so while the count
    stands still every resident line stays resident, in its way. *)
val fills : t -> int

(** Access outcome, packed into an immediate so the per-line hot path
    allocates nothing.  Query it with {!hit}, {!writeback}, {!filled}
    and {!way_of}. *)
type outcome = int

(** The line was resident before the access. *)
val hit : outcome -> bool

(** A dirty line was evicted and must be written to the next level. *)
val writeback : outcome -> bool

(** The access allocated a line (miss with allocate), so the next level
    must be read to fill it. *)
val filled : outcome -> bool

(** The way the access left the line in, as {!way} would report it right
    after: the way it hit or filled, or [-1] for a store-around. *)
val way_of : outcome -> int

(** [access t ~addr ~write] touches the single line containing [addr].
    The caller is responsible for splitting accesses that straddle lines. *)
val access : t -> addr:int -> write:bool -> outcome

(** [present t ~addr] reports whether the line holding [addr] is resident,
    without updating LRU state. *)
val present : t -> addr:int -> bool

(** [way t ~addr] is the way holding the line of [addr], or [-1] when the
    line is not resident; LRU state is not updated. *)
val way : t -> addr:int -> int

(** [hit_way t ~way ~write] leaves the state that a hit ({!access}) on
    the resident line in [way] leaves: the LRU clock advances to it, and
    a write into a write-back cache marks it dirty.  The caller knows the
    line is there; no tag is searched. *)
val hit_way : t -> way:int -> write:bool -> unit

(** [repeat_hits t ~read_way ~write_way ~n] leaves the state that [n]
    rounds of a read hit on the resident line in [read_way] followed by a
    write hit on the resident line in [write_way] leave ([write_way < 0]:
    reads only), as [n] (or [2n]) calls of {!access} would: the LRU clock
    advances once per hit, the two lines become the most recently used
    (the write line last), and a write-back cache marks the written line
    dirty. *)
val repeat_hits : t -> read_way:int -> write_way:int -> n:int -> unit

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
