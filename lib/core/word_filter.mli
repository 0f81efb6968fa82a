(** Word filters (Abbott & Peterson, section 2.1 of the paper).

    A word filter adapts the unit size between two manipulation functions:
    it accepts input in one unit size and emits output in another,
    buffering the remainder in registers.  The paper's refinement
    (section 2.2) is to size the exchanged unit as the LCM of the adjacent
    functions' units rather than a fixed word, to avoid extra write
    operations.

    Nothing on the measured path uses this module: {!Pipeline} hands
    blocks between its stages in the exchange unit
    ({!Units.exchange_unit}) without a filter, and the A2 ablation
    measures the engine's [coalesce_writes] store schedule.  It is the
    standalone filter of [examples/custom_pipeline.ml] and of its own
    tests. *)

type t

(** [create ~out_len ~emit] builds a filter that calls [emit block off] once
    per complete [out_len]-byte output unit. *)
val create : out_len:int -> emit:(Bytes.t -> int -> unit) -> t

(** [push t b ~off ~len] feeds input bytes (any length). *)
val push : t -> Bytes.t -> off:int -> len:int -> unit

val push_string : t -> string -> unit

(** Bytes buffered but not yet emitted (< [out_len]). *)
val pending : t -> int

(** [flush t ~pad] pads the remainder with [pad] bytes to complete a final
    unit (no-op when empty), and returns how many pad bytes were added. *)
val flush : t -> pad:char -> int

(** Total bytes emitted so far. *)
val emitted : t -> int
