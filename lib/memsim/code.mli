(** Code regions for instruction-cache modelling.

    Every data-manipulation function owns a region in a dedicated
    instruction address space.  Executing the function on one processing
    unit "fetches" its region through the instruction cache, so a fused
    ILP loop — which interleaves all its stages' regions on every unit —
    thrashes a small direct-mapped instruction cache while the non-ILP
    implementation runs each region hot for a whole buffer pass. *)

(** {!Machine.exec}'s memo of where a region's lines sit in an
    instruction cache, taken at the end of a fetch that left all of them
    resident and valid while that cache's {!Cache.fills} stands still.
    Only {!Machine.exec} reads or writes it. *)
type memo = {
  mutable cache : int;  (** {!Cache.id} of that cache; [-1]: no memo *)
  mutable fills : int;  (** its {!Cache.fills} when the memo was taken *)
  mutable ways : int array;
      (** the way of each line, in line order; allocated on the first
          full fetch *)
}

type region = private { base : int; len : int; memo : memo }

type allocator

val allocator : unit -> allocator

(** [alloc a ~len] reserves [len] contiguous bytes of instruction space,
    64-byte aligned.  Regions never overlap within an allocator, and two
    regions never share a first-level line on the modelled machines (at
    most 64 bytes); they can share a SPARC second-level line (128
    bytes).  Replaying the same [alloc] calls on a fresh allocator gives
    regions with the same bases and lengths and no memo. *)
val alloc : allocator -> len:int -> region

(** [image a ~name ~len] is the one region called [name] in [a]'s
    instruction space: code that every instance of a component runs,
    the way one host runs one copy of its kernel however many sockets it
    has.  The first request allocates it exactly as [alloc a ~len]
    would; every later one returns that same region, memo included.
    Raises [Invalid_argument] if [name] was first requested with another
    [len]. *)
val image : allocator -> name:string -> len:int -> region

(** A zero-length region: executing it touches no instruction lines.
    Used for stages whose footprint is folded into another stage's. *)
val none : region
