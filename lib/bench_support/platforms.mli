(** The per-platform system-overhead model.

    The paper's throughput includes work the simulator deliberately does
    not model — sockets and system calls, IP and driver processing, task
    switches, interrupt handling, background load.  The paper itself
    treats this as a roughly size-linear platform cost ("data
    manipulations of the ILP implementation consume approximately the
    same time as the system operations").

    For each platform we fit [overhead(size) = base + per_byte * size] by
    least squares over the paper's own Table 1 ILP rows:
    [overhead_i = packet_bits_i / throughput_i - (send_i + recv_i)].
    The fit uses only paper data — none of our measurements — so measured
    processing-time deviations show up honestly in the reproduced
    throughput figures. *)

type overhead = { base_us : float; per_byte_us : float }

(** Raises [Not_found] for a machine absent from Table 1. *)
val overhead : Ilp_memsim.Config.t -> overhead

(** [throughput_mbps machine ~size ~proc_us] converts measured per-packet
    processing (send + receive, microseconds) into end-to-end Mbit/s
    under the platform's overhead model. *)
val throughput_mbps : Ilp_memsim.Config.t -> size:int -> proc_us:float -> float

(** The kernel-TCP profile of figure 12: same data manipulations, but the
    protocol runs in the kernel, so acknowledgements never cross the
    user/kernel boundary and per-packet overhead shrinks by a factor
    fitted once against the figure's SS10-30 bars. *)
val kernel_throughput_mbps :
  Ilp_memsim.Config.t -> size:int -> proc_us:float -> float
