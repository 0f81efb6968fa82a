(** Typed metrics registry: counters, gauges and log2-bucketed histograms.

    One process-wide registry ([default]) is the single home of every
    count the stack keeps.  Counters come in {e families}: a component
    ([Link], [Tcp.Socket], [Rpc.Server], [Pool], [Memtraffic], ...)
    registers its counter names once at module initialisation, and each
    instance takes a zeroed {!block} — a plain [int array] with one slot
    per name, in registration order — and bumps its slots directly.  The
    component's public stats accessors read the same block, so the
    registry and the component cannot disagree.  [snapshot] reports each
    counter name as the sum of its slot over every block of its family.

    The registry keeps every block it hands out for its own lifetime, so
    instruments are monotonic for the life of the process (counters and
    histograms only ever grow).  Callers that want per-run figures take
    a snapshot before and after and [diff]. *)

type t
(** A registry. *)

type family
(** An ordered set of counter names whose values live in blocks. *)

type counter
(** A single counter: the block of a one-name family.  [inc] never
    allocates. *)

type gauge
(** Point-in-time integer level; [set]/[add] overwrite or adjust it. *)

type histogram
(** Fixed log2 buckets: bucket 0 holds values [<= 0]; bucket [i >= 1]
    holds values in [[2^(i-1), 2^i - 1]].  [observe] never allocates. *)

val create : unit -> t
val default : t
(** The process-wide registry used by all stack components. *)

val family : t -> string array -> family
(** [family t names] registers [names], in order, as counters whose
    values are summed over the family's blocks.  Registering the same
    names in the same order again returns the existing family.  Raises
    [Invalid_argument] if [names] is empty or any name is already
    registered otherwise (as a gauge, a histogram, or in another
    family). *)

val block : family -> int array
(** A fresh zeroed block: slot [i] counts the family's [i]th name.
    Bump it in place ([b.(i) <- b.(i) + n]); the registry keeps it for
    its own lifetime. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram
(** Find-or-create by name ([counter] registers a one-name family and
    takes its block).  Raises [Invalid_argument] if the name is already
    registered as a different instrument kind. *)

val inc : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> int -> unit
val add_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val observe : histogram -> int -> unit

val n_buckets : int
val bucket_of : int -> int
(** Bucket index a value falls into. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] range of a bucket. *)

(* ---- snapshots ---- *)

type hist = { count : int; sum : int; buckets : int array }

type value = Counter of int | Gauge of int | Histogram of hist

type snapshot = (string * value) list
(** Registration order; stable across snapshots of the same registry. *)

val snapshot : t -> snapshot
val find : snapshot -> string -> value option
val percentile : hist -> float -> int
(** [percentile h q] estimates the [q]-quantile ([0.0 <= q <= 1.0]) of
    the observations recorded in [h]: the bucket holding the q-th
    ranked observation is located and the estimate interpolated
    linearly across its [(lo, hi)] span.  Returns [0] for an empty
    histogram.  Raises [Invalid_argument] if [q] is out of range. *)

val counter_diff : snapshot -> snapshot -> string -> int
(** [counter_diff later earlier name]: delta of a counter between two
    snapshots; a name absent from a snapshot counts as 0. *)

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms add; for gauges the second snapshot wins.
    Names keep the first snapshot's order, new names append. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counters and histograms subtract, gauges keep
    the later value.  Names ordered as in [later]. *)

val render : snapshot -> string
(** Stable plain-text rendering, one instrument per line (histograms add
    an indented bucket line when non-empty). *)

val to_json : snapshot -> string
(** Hand-rolled JSON object keyed by instrument name. *)
