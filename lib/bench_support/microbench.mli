(** The introduction's micro-experiment (E0): XDR-marshalling a 20-integer
    array combined with the TCP checksum, sequential versus fused — the
    Clark & Tennenhouse-style loop experiment whose ~40-50% gain the rest
    of the paper deflates.

    Two versions are provided: a {e simulated} one on the SS10-30 model
    (same cost accounting as the main experiments) and a {e wall-clock}
    one in plain OCaml timed with {!Wallbench}'s harness.  The wall-clock
    version is a sanity check only: OCaml boxing/GC and a 2020s memory
    hierarchy dampen word-level fusion (the repro caveat), so its
    absolute ratio is expected to be smaller. *)

type outcome = { sequential_mbps : float; fused_mbps : float }

(** Simulated, on the given machine (default SS10-30). *)
val simulated : ?machine:Ilp_memsim.Config.t -> unit -> outcome

(** Wall-clock ([quota_s] seconds per case, default 0.5, over
    {!Wallbench.ns_per_call}'s median of 5 calibrated samples). *)
val wall_clock : ?quota_s:float -> unit -> outcome

(** Wall-clock throughput of the pure cipher kernels (timed like
    {!wall_clock}, one case per cipher): name and Mbit/s on the host
    machine.
    The paper's ordering — simple >> simplified SAFER >> full SAFER >>
    DES — should survive three decades of hardware. *)
val ciphers_wall_clock : ?quota_s:float -> unit -> (string * float) list
