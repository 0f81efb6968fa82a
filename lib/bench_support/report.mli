(** Console reporting for the reproduction harness: aligned tables and
    paper-versus-measured cells. *)

(** Section banner ("==== Figure 6 ... ===="). *)
val banner : string -> unit

(** Free-form note line. *)
val note : ('a, out_channel, unit) format -> 'a

(** [table ~header rows] prints an aligned table. *)
val table : header:string list -> string list list -> unit

(** [vs ~paper ~ours] renders "369.0 -> 342.1 (-7%)". *)
val vs : paper:float -> ours:float -> string

(** [vs_abs_pct ~paper ~ours] is the absolute whole-percent deviation
    that [vs] prints, e.g. 7 for "369.0 -> 342.1 (-7%)". *)
val vs_abs_pct : paper:float -> ours:float -> int

(** [percentile_sorted sorted q] is the nearest-rank [q]-quantile of an
    already-sorted array ([q = 0.5] picks index [n/2], the upper-median
    convention of the wall benchmark).  Raises [Invalid_argument] on an
    empty array or out-of-range [q]. *)
val percentile_sorted : float array -> float -> float

val us : float -> string
val mbps : float -> string
val millions : float -> string

(** [pct_gain ~base ~better] is the relative improvement of [better] over
    [base] in percent (positive = better is smaller/faster for times). *)
val pct_gain : base:float -> better:float -> float
