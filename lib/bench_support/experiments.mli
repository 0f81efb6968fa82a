(** One runner per reproduced table/figure/ablation (the experiment index
    of DESIGN.md).  Each prints a paper-versus-measured table on stdout.
    Runs are cached, so regenerating several figures that share a
    configuration costs one simulation. *)

(** E0: the intro micro-experiment (simulated and wall-clock). *)
val e0 : unit -> unit

(** Figure 6: receive packet processing, 1 kB packets, all machines. *)
val f6 : unit -> unit

(** Figure 7: send packet processing, 1 kB packets, all machines. *)
val f7 : unit -> unit

(** Figure 8: throughput, 1 kB packets, all machines. *)
val f8 : unit -> unit

(** Figure 9: throughput versus packet size, four machines. *)
val f9 : unit -> unit

(** Figure 10: packet processing versus packet size, four machines. *)
val f10 : unit -> unit

(** Figure 11: processing with simplified SAFER vs simple encryption. *)
val f11 : unit -> unit

(** Figure 12: throughput including the kernel-TCP profile. *)
val f12 : unit -> unit

(** Figure 13: memory accesses, normalised to the paper's 10.7 MB. *)
val f13 : unit -> unit

(** Figure 14: cache misses and miss ratios. *)
val f14 : unit -> unit

(** Table 1: the full machines x sizes grid. *)
val t1 : unit -> unit

(** Ablation: macro inlining vs function calls (section 3.2.1). *)
val a1 : unit -> unit

(** Ablation: LCM-sized stores vs the cipher's natural byte stores
    (section 2.2). *)
val a2 : unit -> unit

(** Ablation: trailer-placed length field (section 5). *)
val a4 : unit -> unit

(** Ablation: receive-side manipulation placement (section 3.2.3). *)
val a5 : unit -> unit

(** Ablation: uniform processing-unit sizes (section 5). *)
val a6 : unit -> unit

(** Wall-clock benchmark of the pure cipher kernels, timed with
    {!Wallbench}'s harness.  The native fast path's separate-versus-fused
    trajectory is [ilpbench wall], the one writer of BENCH_wall.json. *)
val wall : unit -> unit

(** The full Table 1 grid, paper and measured, as CSV (for plotting). *)
val t1_csv : unit -> string

(** All of the above, in order. *)
val all : unit -> unit

(** Names accepted by {!run_named}. *)
val names : string list

val run_named : string -> (unit, string) result
