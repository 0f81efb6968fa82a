(** A loopback link with programmable impairments.

    The paper ran client and server on the same machine over UDP in
    loopback mode, so the fault-free configuration is a fixed small delay.
    The adversarial configurations model everything a hostile wire can do
    to a datagram: independent loss, bursty loss (a two-state
    Gilbert–Elliott channel), duplication, jitter-induced reordering,
    seeded bit corruption, truncation, trailing-garbage padding, and delay
    spikes.  All randomness comes from one seeded deterministic generator,
    so a given seed produces exactly one delivery trace, and every
    impairment applied is counted. *)

type t

(** Two-state Gilbert–Elliott burst-loss channel.  The link starts in the
    good state (no extra loss); each packet first draws a state transition
    ([p_enter_bad] from good, [p_exit_bad] from bad) and is then lost with
    probability [loss_in_bad] while the channel is bad. *)
type gilbert = {
  p_enter_bad : float;
  p_exit_bad : float;
  loss_in_bad : float;
}

(** The full impairment model.  Rates are per-datagram probabilities in
    [0, 1].  A corrupted datagram has [corrupt_bits] (≥ 1) uniformly chosen
    bits flipped; a truncated one is cut to a uniform length below its own;
    a padded one gains 1..[pad_max] random trailing bytes; a delay spike
    adds [delay_spike_us] on top of the base delay and jitter. *)
type impairments = {
  delay_us : float;
  jitter_us : float;
  loss_rate : float;
  dup_rate : float;
  corrupt_rate : float;
  corrupt_bits : int;
  truncate_rate : float;
  pad_rate : float;
  pad_max : int;
  delay_spike_rate : float;
  delay_spike_us : float;
  gilbert : gilbert option;
}

(** 50 us fixed delay and no impairments — the paper's loopback wire.
    [Link.create clock ~impairments:Link.fault_free] behaves exactly like
    [Link.create clock] with default arguments. *)
val fault_free : impairments

(** [create clock ~deliver] builds a link whose packets are handed to
    [deliver] after [delay_us] (default 50).  [loss_rate], [dup_rate]
    (defaults 0) are probabilities per packet; [jitter_us] (default 0) adds
    uniform random extra delay, which reorders packets when larger than the
    inter-packet gap.  [seed] fixes the random stream.  [impairments], when
    given, supersedes the individual rate arguments and enables the full
    adversarial model.

    [impair_only] (default: everything) scopes the impairment model to
    matching datagrams — e.g. only the ack direction of a connection;
    non-matching datagrams consume no random draws and are delivered
    after the base delay, so the impaired direction's trace for a given
    seed is independent of the other direction's traffic.

    [tamper] models a lying peer's NIC rather than the wire: it runs on
    every datagram before any impairment draw and returns the datagrams
    actually offered to the network (identity to pass through, [[]] to
    swallow, a rewritten copy or extra injected datagrams to forge).
    Each output then takes the normal impairment path.  Every
    non-identity outcome is counted in [stats.tampered].

    Raises [Invalid_argument] on out-of-range rates. *)
val create :
  Simclock.t ->
  ?delay_us:float ->
  ?jitter_us:float ->
  ?loss_rate:float ->
  ?dup_rate:float ->
  ?seed:int ->
  ?impairments:impairments ->
  ?impair_only:(Datagram.t -> bool) ->
  ?tamper:(Datagram.t -> Datagram.t list) ->
  deliver:(Datagram.t -> unit) ->
  unit ->
  t

(** [send t dgram] queues a datagram for (possible, possibly mangled)
    delivery. *)
val send : t -> Datagram.t -> unit

(** Counters for assertions in tests. *)
val sent : t -> int

val delivered : t -> int
val dropped : t -> int
val duplicated : t -> int

(** Every impairment the link has applied, by kind.  [dropped] counts all
    losses; [burst_dropped] is the subset due to the Gilbert–Elliott
    channel; [tampered] counts datagrams the [tamper] hook rewrote,
    swallowed or multiplied (forged injections included). *)
type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  truncated : int;
  padded : int;
  burst_dropped : int;
  delay_spikes : int;
  tampered : int;
}

val stats : t -> stats
