(** The [ilpbench trace] driver: run traced simulated transfers (one ILP,
    one separate, one ILP with replies streamed as pipelined MSS-sized
    segments) and export the {!Ilp_obs.Trace} ring as Chrome
    [trace_event] JSON plus a plain-text timeline.

    Chain validation: a send chain is complete when one packet id carries
    all four send manipulation spans (marshal, encrypt, checksum,
    ring-copy), a receive chain when one id carries all three receive
    spans (checksum, decrypt, unmarshal).  [complete] requires at least
    one of each, plus at least one pair of overlapping [tcp.segment]
    spans from the streamed leg (the visual signature of the pipelined
    window) — the gate [ilpbench trace] exits on, which
    [dune build @oracles] runs. *)

type result = {
  recorded : int;  (** spans recorded, including evicted *)
  dropped : int;  (** spans evicted by ring wrap-around *)
  packets : int;  (** distinct traced packet ids *)
  send_chains : int;
  recv_chains : int;
  segment_spans : int;  (** [tcp.segment] lifetimes recorded *)
  pipelined_overlaps : int;
      (** segment spans overlapping another — in flight together *)
  json : string;  (** Chrome trace_event JSON *)
  timeline : string list;  (** plain-text tail of the span timeline *)
  metrics : Ilp_obs.Metrics.snapshot;
      (** registry delta over the traced run *)
}

(** Raises [Failure] if a transfer fails.  [quick] shrinks the transfers
    for CI.  Tracing is disabled again on exit. *)
val run : ?quick:bool -> unit -> result

val complete : result -> bool

val summary_lines : result -> string list
