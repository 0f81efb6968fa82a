(** Process-level fault injection: kill and restart a simulated host.

    A crash plan models one host's lifecycle against the virtual clock:
    at each scheduled moment (an absolute list of times, or the Nth
    packet the host receives) the host {e crashes} — the [kill] callback
    tears down its sockets, servers and timers — and after [down_us] of
    downtime it {e restarts} via the [revive] callback.  While the host
    is down its address either black-holes traffic or answers every
    segment with RST (the restarted-kernel behaviour), selected by
    {!down_behaviour}.

    The plan never touches protocol state itself: the harness supplies
    [kill]/[revive], and wires {!guard} in front of the host's demux
    handlers.  The plan builds its timers once (the revive timer, and
    one per crash time, armed at creation), all tagged with a private
    {!Simclock.fresh_owner} id so harnesses can audit them. *)

type schedule =
  | At_times of float list
      (** crash at each offset (microseconds from creation) *)
  | On_packet of int
      (** crash when the guarded host receives its Nth packet (counted
          since the last restart, so the plan re-arms after a revive);
          the triggering packet dies with the host *)

type down_behaviour =
  | Blackhole  (** segments to a dead host vanish *)
  | Respond of {
      reply : Datagram.t -> Datagram.t option;
          (** e.g. [Tcp.Socket.reset_for]: the RST for an arriving
              segment, [None] to stay silent *)
      send : Datagram.t -> unit;  (** path back toward the sender *)
    }

type t

(** [create clock ?max_crashes ~schedule ~down_us ~behaviour ~kill
    ~revive ()].  [max_crashes] (default unlimited) bounds how many times
    the host dies; [down_us] must be positive. *)
val create :
  Simclock.t ->
  ?max_crashes:int ->
  schedule:schedule ->
  down_us:float ->
  behaviour:down_behaviour ->
  kill:(unit -> unit) ->
  revive:(unit -> unit) ->
  unit ->
  t

(** [seeded_times ~seed ~crashes ~horizon_us] draws [crashes] crash
    offsets in [0.1, 1.0) of the horizon from a 30-bit xorshift (shifts
    13/17/5) of its own — the same seed always yields the same
    schedule. *)
val seeded_times : seed:int -> crashes:int -> horizon_us:float -> float list

(** [guard t ~deliver] wraps a demux handler for one of the host's
    ports: packets reach [deliver] only while the host is up (and feed
    the [On_packet] trigger); while it is down they are swallowed and,
    under [Respond], answered. *)
val guard : t -> deliver:(Datagram.t -> unit) -> Datagram.t -> unit

val is_up : t -> bool

val crashes : t -> int
(** Crashes executed so far. *)

val swallowed : t -> int
(** Datagrams that died with the host (including the [On_packet]
    trigger packet). *)

val resets : t -> int
(** RST replies sent while down (always 0 under [Blackhole]). *)

val timer_owner : t -> int
(** The owner id tagging the plan's own crash/revive timers. *)

val stop : t -> unit
(** Cancel every pending crash and revive timer (end of a soak
    iteration); the host stays in whatever state it is in. *)
