(** The complete measured system: file transfer over
    marshalling/encryption/user-level TCP on a simulated workstation,
    reproducing the experiment of the paper's section 4.

    One {!run} builds a {!World} — machine, clock, link, demultiplexer,
    an engine per process and the paper's four endpoints
    ({!World.connect}), with measurement probes on the two data ports —
    transfers [copies] copies of a [file_len]-byte file in
    [max_reply]-byte messages, verifies every payload byte, and returns
    its {!World.verdict}, per-packet processing times and the
    memory-access ledgers attributed to the send path, the receive path
    and everything else.  Both engines run the single-copy host data
    path over the world's one buffer pool, audited by
    {!World.pool_leaks} after teardown.  Counts beyond the two data
    sockets' (drops per reason, wire impairments, abandoned replies)
    are in the {!Ilp_obs.Metrics} registry.

    The module also holds the one cipher table and benchmark key the
    command line, the soaks and the benchmarks share. *)

type cipher_choice =
  | Safer_simplified  (** the paper's main experiment *)
  | Simple_encryption  (** the section 4.1 comparison *)
  | Safer_full of int  (** real SAFER K-64 with this many rounds *)
  | Des  (** the "too complex to benefit" baseline *)

(** The key every cipher of this module and of the benchmarks is keyed
    with. *)
val key : string

(** The command-line name: ["safer-simplified"], ["simple"],
    ["safer-k64"] (any round count) or ["des"]. *)
val cipher_name : cipher_choice -> string

(** Every cipher, SAFER K-64 at 6 rounds, in the order the chaos soak
    cycles through them. *)
val ciphers : cipher_choice list

(** A {!cipher_name} of {!ciphers}, or the alias ["simplified"] or
    ["safer"]. *)
val cipher_of_name : string -> (cipher_choice, string) Stdlib.result

(** The same cipher and {!key} on the un-simulated fast path. *)
val fastpath_cipher : cipher_choice -> Ilp_fastpath.Cipher.t

type setup = {
  machine : Ilp_memsim.Config.t;
  cipher : cipher_choice;
  mode : Ilp_core.Engine.mode;
  linkage : Ilp_core.Linkage.t;
  coalesce_writes : bool;  (** the section 2.2 LCM store-sizing remedy *)
  header_style : Ilp_core.Engine.header_style;
      (** leading length field (the paper's system) or the section 5
          trailer alternative *)
  rx_placement : Ilp_core.Engine.rx_placement;
      (** receive manipulations right after the system copy (the paper's
          choice) or deferred to delivery time (section 3.2.3) *)
  uniform_units : bool;
      (** widen marshalling to the cipher block (section 5's "uniform
          processing unit sizes") *)
  native : bool;
      (** run the data manipulations through the un-simulated
          {!Ilp_fastpath} kernels; wire bytes are identical but the
          simulated cycle counters only cover the protocol machinery *)
  crc : bool;
      (** enable the end-to-end CRC32 TSDU trailer on both engines
          (closes the 16-bit checksum collision hole) *)
  pool : Ilp_fastpath.Pool.t option;
      (** share a caller-owned buffer pool between both engines; [None]
          (the default) creates a fresh pool, making [pool_leaks] a
          self-contained audit *)
  framing : bool;
      (** negotiate the v2 ("Reverso") framed receive: the client flags
          its control messages, the server prefixes each reply TSDU with
          an {!Ilp_tcp.Framing} prelude, and the client's data socket
          lands out-of-order segments at their final TSDU offset; off
          (the default) keeps every wire byte identical to the unframed
          protocol *)
  file_len : int;
  copies : int;
  max_reply : int;  (** application payload bytes per message *)
  mss : int option;
      (** TCP maximum segment size: [None] (the default) sizes segments to
          the engine's maximum message so every reply is one TPDU (the
          paper's ALF shape); [Some m] caps segments at [m] wire bytes, so
          replies wider than that travel as pipelined MSS-sized segments
          through {!Ilp_tcp.Socket.send_stream} *)
  loss_rate : float;
  seed : int;
  impairments : Ilp_netsim.Link.impairments option;
      (** full adversarial wire model; [None] (the default) is the legacy
          50 us loopback with [loss_rate] applied *)
  deadline_us : float;
      (** virtual-time budget for the transfer (default 2e9 us); a
          transfer still running then stops, and its [verdict] says
          whether any endpoint reported a failure *)
}

(** The paper's configuration: simplified SAFER, 15 kB file, 1 kB
    messages, 8 copies, no loss, on the given machine and mode. *)
val default_setup :
  machine:Ilp_memsim.Config.t -> mode:Ilp_core.Engine.mode -> setup

type result = {
  verdict : World.verdict;
      (** {!World.verdict} of the client and the server's endpoints:
          [Complete] when every byte was verified, [Typed] when a
          client, server or setup failure was reported, [Silent] when
          the transfer stalled (the clock went idle or [deadline_us]
          passed) with nothing reported *)
  n_replies : int;
  payload_bytes : int;  (** application bytes transferred (all copies) *)
  wire_bytes : int;  (** encrypted message bytes carried by TCP *)
  send_us : float array;
      (** per-reply send packet processing: marshal, encrypt, copy/ILP
          loop, checksum, header, and the synchronous user-to-kernel
          system copy that [tcp_output] triggers *)
  send_syscopy_us : float array;
      (** the system-copy portion of [send_us], also available alone *)
  recv_us : float array;
      (** per-reply receive packet processing (system copy, checksum,
          decrypt, unmarshal, TCP control) *)
  send_stall_us : float;
      (** total memory-system time of the send path (the paper's "atom"
          quantity) *)
  recv_stall_us : float;
  ifetch_stall_us : float;
      (** total instruction-fetch stall time (whole run) *)
  total_machine_us : float;  (** every cycle spent during the transfer *)
  send_stats : Ilp_memsim.Stats.t;  (** ledger of the send path *)
  recv_stats : Ilp_memsim.Stats.t;  (** ledger of the receive path *)
  total_stats : Ilp_memsim.Stats.t;
  retransmissions : int;  (** by the server's data socket *)
  checksum_failures : int;  (** at the client's data socket *)
  pool_leaks : int;
      (** buffers still outstanding from the run's pool after both engines
          were destroyed — must be 0 (every acquired buffer released)
          unless the caller shared its own [pool] *)
}

val run : setup -> result

(** Mean of an array (0 when empty) — convenience for reporting. *)
val mean : float array -> float
