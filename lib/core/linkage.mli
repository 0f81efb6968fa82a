(** Macro inlining versus function calls (section 3.2.1).

    The paper found that replacing the macro-inlined manipulation code with
    function calls (for dynamic adaptability) "results in the loss of all
    performance benefits gained by ILP in the first place": per processing
    unit, per stage, the call sequence (argument setup, save/restore,
    call/return) costs real cycles that the inlined loop does not pay. *)

type t =
  | Macro  (** inlined: no per-call overhead, larger code footprint *)
  | Function_calls of int
      (** indirect calls: the given number of ALU ops per stage invocation
          (register save/restore, argument marshalling, call/return) *)

(** [Function_calls 15]: 15 ops is roughly a SPARC V8 call with window
    overflow amortised. *)
val function_calls : t

(** Overhead ops charged per stage invocation. *)
val call_ops : t -> int

(** Code-size multiplier for the fused loop region: macro expansion
    duplicates every stage's body at each expansion site, function calls
    share one copy. *)
val code_scale : t -> expansion_sites:int -> int -> int
