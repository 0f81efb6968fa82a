module Link = Ilp_netsim.Link
module Simclock = Ilp_netsim.Simclock
module Datagram = Ilp_netsim.Datagram
module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine
module M = Ilp_obs.Metrics

type mode = Pipelined | Stop_and_wait

let mode_name = function
  | Pipelined -> "pipelined"
  | Stop_and_wait -> "stop-and-wait"

type config = {
  total_bytes : int;
  mss : int;
  rtt_us : float;
  loss_rate : float;
  seed : int;
  mode : mode;
  sack : bool;
}

let default_config =
  { total_bytes = 2 * 1024 * 1024;
    mss = 1448;
    rtt_us = 10_000.0;
    loss_rate = 0.0;
    seed = 1;
    mode = Pipelined;
    sack = true }

(* Every transfer moves 32 KiB TSDUs on the SS10/30 model with the
   native kernels, within 300 s of simulated time. *)
let tsdu_payload = 32 * 1024
let deadline_us = 300_000_000.0

type outcome = {
  ok : bool;
  error : string option;
  payload_bytes : int;
  tsdus : int;
  elapsed_us : float;
  goodput_mbps : float;
  segments : int;
  retransmissions : int;
  fast_retransmits : int;
  rto_fallbacks : int;
  peak_in_flight : int;
  ring_wraps : int;
  final_cwnd : int;
  wire_digest : int;
}

let key = "strmBENC"

(* The pipelined receive window.  8-aligned and within the 16-bit field
   the TCP header can carry, so what the peer sees is what we set. *)
let wide_window = 65528

let validate cfg =
  if cfg.total_bytes <= 0 then invalid_arg "Streambench: total_bytes must be positive";
  if cfg.mss < 64 || cfg.mss mod 8 <> 0 then
    invalid_arg "Streambench: mss must be a multiple of 8, >= 64";
  if cfg.rtt_us <= 0.0 then invalid_arg "Streambench: rtt_us must be positive";
  if cfg.loss_rate < 0.0 || cfg.loss_rate >= 1.0 then
    invalid_arg "Streambench: loss_rate must be in [0, 1)"

let transfer cfg =
  validate cfg;
  (* Rolling FNV-1a-style digest over every datagram offered to the wire
     (ports and payload, both directions, send order).  Two transfers
     whose wires are byte-identical have equal digests — the SACK-off vs
     SACK-on clean-link gate. *)
  let digest = ref 0x1505 in
  let tap d =
    let h = ref !digest in
    let mix b = h := (!h lxor b) * 0x01000193 land 0x3FFFFFFFFFFFFFF in
    mix d.Datagram.src_port;
    mix d.Datagram.dst_port;
    String.iter (fun c -> mix (Char.code c)) d.Datagram.payload;
    digest := !h
  in
  let w =
    Ilp_app.World.create ~mem_size:(cfg.total_bytes + (4 * 1024 * 1024)) ~tap
      Ilp_memsim.Config.ss10_30 ~link:(fun clock ~deliver ->
        Link.create clock ~delay_us:(cfg.rtt_us /. 2.0) ~loss_rate:cfg.loss_rate
          ~seed:cfg.seed ~deliver ())
  in
  let sim = Ilp_app.World.sim w and clock = Ilp_app.World.clock w in
  (* One TSDU per engine message; the engine's [max_message] bounds both
     the send staging and the receiver's reassembly area. *)
  let max_message = tsdu_payload + 64 in
  let mk_engine () =
    let backend =
      Engine.Native
        (Ilp_fastpath.Cipher.Safer_simplified
           (Ilp_cipher.Safer_simplified.expand_key key))
    in
    Ilp_app.World.engine w (fun sim ~pool ->
        Engine.create sim
          ~cipher:(Ilp_cipher.Safer_simplified.charged sim ~key ())
          ~mode:Engine.Ilp ~backend ~max_message ~pool ())
  in
  let tx_eng = mk_engine () and rx_eng = mk_engine () in
  let tx_cfg =
    { Socket.default_config with
      mss = cfg.mss;
      send_buffer = 128 * 1024;
      recv_window = wide_window;
      (* The default RTO floor suits the paper's 50 us loopback.  On a
         long constant-delay path the RTT estimator's variance decays to
         zero and the timeout converges on srtt = RTT exactly — racing
         every ack and retransmitting spuriously.  Real stacks impose a
         minimum RTO far above the RTT (RFC 6298 suggests one full
         second); scale ours with the configured RTT. *)
      rto_initial_us = Float.max Socket.default_config.Socket.rto_initial_us (3.0 *. cfg.rtt_us);
      rto_min_us = Float.max Socket.default_config.Socket.rto_min_us (1.5 *. cfg.rtt_us);
      sack = cfg.sack }
  in
  let rx_cfg =
    { tx_cfg with
      recv_window =
        (* Stop-and-wait is the degenerate window: the receiver never
           lets more than one MSS be outstanding. *)
        (match cfg.mode with Pipelined -> wide_window | Stop_and_wait -> cfg.mss)
    }
  in
  let tx = Ilp_app.World.socket w tx_cfg ~port:7001 in
  let rx = Ilp_app.World.socket w rx_cfg ~port:7002 in
  Socket.set_rx_processing rx (Engine.rx_processing rx_eng);
  let contents = Ilp_app.Workload.generate ~len:cfg.total_bytes ~seed:cfg.seed in
  let addr = Ilp_app.Workload.install sim contents in
  let n = (cfg.total_bytes + tsdu_payload - 1) / tsdu_payload in
  let chunk_len i = min tsdu_payload (cfg.total_bytes - (i * tsdu_payload)) in
  let failed = ref None in
  let fail msg = if !failed = None then failed := Some msg in
  Socket.set_on_abort tx (fun r -> fail ("sender: " ^ Socket.abort_reason_to_string r));
  Socket.set_on_abort rx (fun r -> fail ("receiver: " ^ Socket.abort_reason_to_string r));
  let delivered = ref 0 and payload = ref 0 in
  let t_done = ref 0.0 in
  (* Single-copy receive: the TSDU is compared in its pool buffer, which
     goes back to the pool on every path. *)
  Socket.set_on_message rx (fun ~len ->
      match Engine.read_plaintext rx_eng ~len with
      | Error e -> fail ("decode: " ^ e)
      | Ok (buf, off, blen) ->
          let i = !delivered in
          (if i >= n then fail "receiver: TSDU past the end of the transfer"
           else begin
             let cl = chunk_len i in
             (* The body is the chunk itself. *)
             if
               blen <> cl
               || not
                    (Ilp_rpc.Client.slice_matches contents
                       ~off:(i * tsdu_payload) (Bytes.unsafe_to_string buf)
                       ~doff:off ~len:cl)
             then fail (Printf.sprintf "receiver: TSDU %d not byte-exact" i)
             else begin
               delivered := i + 1;
               payload := !payload + cl;
               if !delivered = n then t_done := Simclock.now clock
             end
           end);
          Engine.release_plaintext rx_eng buf);
  let next = ref 0 in
  let send_next () =
    let i = !next in
    let ps =
      Engine.prepare_stream_segments tx_eng
        [ Ilp_codec.Stub_ilp.App
            { addr = addr + (i * tsdu_payload); len = chunk_len i } ]
    in
    match
      Socket.send_stream tx ~seg_unit:ps.Engine.seg_unit ~len:ps.Engine.stream_len
        ~fill:ps.Engine.fill_range
    with
    | Ok () ->
        incr next;
        true
    | Error Socket.Buffer_full -> false
    | Error e ->
        fail
          ("sender: "
          ^ (match e with
            | Socket.Not_established -> "not established"
            | Socket.Message_too_big -> "message too big"
            | Socket.Buffer_full -> "buffer full"
            | Socket.Window_full -> "window full"));
        false
  in
  (* Handshake (not measured). *)
  Socket.listen rx;
  Socket.connect tx ~remote_port:7002;
  Simclock.run_until_idle clock;
  if Socket.state tx <> Socket.Established then
    fail "handshake did not complete";
  let t0 = Simclock.now clock in
  let step = 200.0 in
  let guard = ref (int_of_float (deadline_us /. step) + 16) in
  while
    !failed = None && !delivered < n && !guard > 0
    && Simclock.now clock -. t0 < deadline_us
  do
    decr guard;
    while !next < n && send_next () do () done;
    Simclock.advance clock step
  done;
  if !failed = None && !delivered < n then fail "deadline exceeded";
  let stats = Socket.stats tx in
  let elapsed = if !delivered = n then !t_done -. t0 else Simclock.now clock -. t0 in
  let final_cwnd = Socket.congestion_window tx in
  let ring_wraps = Socket.ring_wraps tx in
  (* Teardown only: the stream bench reports no pool audit. *)
  ignore (Ilp_app.World.pool_leaks w : int);
  { ok = !failed = None && !delivered = n;
    error = !failed;
    payload_bytes = !payload;
    tsdus = !delivered;
    elapsed_us = elapsed;
    goodput_mbps =
      (if elapsed > 0.0 then float_of_int !payload *. 8.0 /. elapsed else 0.0);
    segments = stats.Socket.segments_sent;
    retransmissions = stats.Socket.retransmissions;
    fast_retransmits = stats.Socket.fast_retransmits;
    rto_fallbacks = stats.Socket.rto_fallbacks;
    peak_in_flight = stats.Socket.peak_in_flight;
    ring_wraps;
    final_cwnd;
    wire_digest = !digest }

type point = {
  p_mode : mode;
  p_sack : bool;
  p_rtt_us : float;
  p_loss : float;
  p_out : outcome;
}

type result = {
  cfg : config;
  points : point list;
  gate_ratio : float;
  sack_ratio : float;
}

let gate_rtt_us = 10_000.0
let sack_gate_loss = 0.05

let run ?(quick = false) ?(sack_compare = false) ?config () =
  let cfg =
    match config with
    | Some c -> c
    | None ->
        if quick then { default_config with total_bytes = 256 * 1024 }
        else default_config
  in
  let grid =
    if quick then [ (gate_rtt_us, 0.0); (gate_rtt_us, sack_gate_loss) ]
    else
      [ (2_000.0, 0.0); (gate_rtt_us, 0.0); (gate_rtt_us, 0.01);
        (gate_rtt_us, sack_gate_loss); (gate_rtt_us, 0.10) ]
  in
  (* The base matrix runs both modes with the configured SACK setting;
     [sack_compare] adds a pipelined NewReno (SACK-off) sweep so the SACK
     gates have their baseline. *)
  let cells =
    List.concat_map
      (fun mode -> List.map (fun (r, l) -> (mode, cfg.sack, r, l)) grid)
      [ Pipelined; Stop_and_wait ]
    @
    if sack_compare then
      List.map (fun (r, l) -> (Pipelined, not cfg.sack, r, l)) grid
    else []
  in
  let points =
    List.map
      (fun (mode, sack, rtt_us, loss) ->
        let out = transfer { cfg with mode; sack; rtt_us; loss_rate = loss } in
        { p_mode = mode; p_sack = sack; p_rtt_us = rtt_us; p_loss = loss;
          p_out = out })
      cells
  in
  let cell mode sack loss =
    List.find_opt
      (fun p ->
        p.p_mode = mode && p.p_sack = sack && p.p_rtt_us = gate_rtt_us
        && p.p_loss = loss)
      points
  in
  let gate_ratio =
    match (cell Pipelined cfg.sack 0.0, cell Stop_and_wait cfg.sack 0.0) with
    | Some p, Some s when s.p_out.goodput_mbps > 0.0 ->
        p.p_out.goodput_mbps /. s.p_out.goodput_mbps
    | _ -> 0.0
  in
  let sack_ratio =
    match (cell Pipelined true sack_gate_loss, cell Pipelined false sack_gate_loss) with
    | Some w, Some wo when wo.p_out.goodput_mbps > 0.0 ->
        w.p_out.goodput_mbps /. wo.p_out.goodput_mbps
    | _ -> 0.0
  in
  { cfg; points; gate_ratio; sack_ratio }

let min_ratio = 4.0
let min_sack_ratio = 2.0

let check r =
  let failures = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun p ->
      let tag =
        Printf.sprintf "%s%s rtt=%.0fms loss=%.0f%%" (mode_name p.p_mode)
          (if p.p_sack then "+sack" else "")
          (p.p_rtt_us /. 1000.0) (p.p_loss *. 100.0)
      in
      if not p.p_out.ok then
        bad "%s: not byte-exact: %s" tag
          (Option.value p.p_out.error ~default:"unknown");
      (match p.p_mode with
      | Stop_and_wait ->
          if p.p_out.peak_in_flight > r.cfg.mss then
            bad "%s: %d bytes in flight under a one-MSS window" tag
              p.p_out.peak_in_flight
      | Pipelined ->
          if p.p_out.ok && p.p_out.peak_in_flight <= r.cfg.mss then
            bad "%s: never had more than one segment in flight" tag))
    r.points;
  if r.gate_ratio < min_ratio then
    bad "pipelined goodput is %.2fx stop-and-wait at %.0f ms RTT (floor %.2fx)"
      r.gate_ratio (gate_rtt_us /. 1000.0) min_ratio;
  (* The SACK gates bind only when the run carried the NewReno baseline
     (run ~sack_compare:true). *)
  let cell mode sack loss =
    List.find_opt
      (fun p ->
        p.p_mode = mode && p.p_sack = sack && p.p_rtt_us = gate_rtt_us
        && p.p_loss = loss)
      r.points
  in
  (match (cell Pipelined true sack_gate_loss, cell Pipelined false sack_gate_loss) with
  | Some w, Some wo ->
      if r.sack_ratio < min_sack_ratio then
        bad
          "SACK goodput is %.2fx NewReno at %.0f ms RTT / %.0f%% loss (floor \
           %.2fx)"
          r.sack_ratio (gate_rtt_us /. 1000.0) (sack_gate_loss *. 100.0)
          min_sack_ratio;
      if w.p_out.rto_fallbacks >= wo.p_out.rto_fallbacks then
        bad
          "SACK took %d RTO fallbacks vs NewReno's %d at %.0f%% loss (must be \
           strictly fewer)"
          w.p_out.rto_fallbacks wo.p_out.rto_fallbacks (sack_gate_loss *. 100.0)
  | _ -> ());
  (match (cell Pipelined true 0.0, cell Pipelined false 0.0) with
  | Some w, Some wo ->
      if w.p_out.wire_digest <> wo.p_out.wire_digest then
        bad
          "clean-link wire differs with SACK on vs off (digest %x vs %x): \
           options leaked onto an unimpaired connection"
          w.p_out.wire_digest wo.p_out.wire_digest
  | _ -> ());
  if !failures = [] then Ok () else Error (List.rev !failures)

let print_table r =
  Report.banner "streaming TCP goodput (simulated time)";
  Report.table
    ~header:
      [ "mode"; "sack"; "rtt ms"; "loss %"; "goodput Mbit/s"; "rexmit";
        "fast rx"; "rto"; "peak flight"; "wraps"; "ok" ]
    (List.map
       (fun p ->
         [ mode_name p.p_mode;
           (if p.p_sack then "on" else "off");
           Printf.sprintf "%.0f" (p.p_rtt_us /. 1000.0);
           Printf.sprintf "%.0f" (p.p_loss *. 100.0);
           Printf.sprintf "%.3f" p.p_out.goodput_mbps;
           string_of_int p.p_out.retransmissions;
           string_of_int p.p_out.fast_retransmits;
           string_of_int p.p_out.rto_fallbacks;
           string_of_int p.p_out.peak_in_flight;
           string_of_int p.p_out.ring_wraps;
           (if p.p_out.ok then "yes"
            else "NO: " ^ Option.value p.p_out.error ~default:"?") ])
       r.points);
  Report.note "pipelined / stop-and-wait at %.0f ms RTT, no loss: %.2fx\n"
    (gate_rtt_us /. 1000.0) r.gate_ratio;
  if r.sack_ratio > 0.0 then
    Report.note "SACK / NewReno at %.0f ms RTT, %.0f%% loss: %.2fx\n"
      (gate_rtt_us /. 1000.0) (sack_gate_loss *. 100.0) r.sack_ratio

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"benchmark\": \"stream\",\n  \"unit\": \"mbit_per_s\",\n\
       \  \"total_bytes\": %d,\n  \"tsdu_payload\": %d,\n  \"mss\": %d,\n\
       \  \"gate_ratio\": %.3f,\n  \"sack_ratio\": %.3f,\n  \"points\": [\n"
       r.cfg.total_bytes tsdu_payload r.cfg.mss r.gate_ratio
       r.sack_ratio);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"mode\": \"%s\", \"sack\": %b, \"rtt_us\": %.0f, \
            \"loss\": %.3f, \"ok\": %b, \"goodput_mbps\": %.4f, \
            \"elapsed_us\": %.0f, \"payload_bytes\": %d, \"tsdus\": %d, \
            \"segments\": %d, \"retransmissions\": %d, \
            \"fast_retransmits\": %d, \"rto_fallbacks\": %d, \
            \"peak_in_flight\": %d, \"ring_wraps\": %d, \"final_cwnd\": %d, \
            \"wire_digest\": %d}"
           (mode_name p.p_mode) p.p_sack p.p_rtt_us p.p_loss p.p_out.ok
           p.p_out.goodput_mbps p.p_out.elapsed_us p.p_out.payload_bytes
           p.p_out.tsdus p.p_out.segments p.p_out.retransmissions
           p.p_out.fast_retransmits p.p_out.rto_fallbacks
           p.p_out.peak_in_flight p.p_out.ring_wraps p.p_out.final_cwnd
           p.p_out.wire_digest))
    r.points;
  Buffer.add_string b "\n  ],\n  \"obs\": ";
  Buffer.add_string b (M.to_json (M.snapshot M.default));
  Buffer.add_string b "\n}\n";
  Buffer.contents b
