open Ilp_memsim
module Engine = Ilp_core.Engine
module Workload = Ilp_app.Workload
module Mt = Ilp_fastpath.Memtraffic
module Pool = Ilp_fastpath.Pool
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics
module Recorder = Ilp_obs.Recorder

type point = {
  len : int;
  wire_len : int;
  mode : Engine.mode;
  native : bool;
  msgs : int;
  copied : float;
  copied_tx : float;
  copied_rx : float;
  allocated : float;
  alloc_blocks : float;
  minor_words : float;
  major_words : float;
  pool_balanced : bool;
}

type result = {
  points : point list;
  disabled_trace_minor_words : float;
      (* minor-heap words per instrumentation call with tracing disabled *)
}

type config = { sizes : int list; native_msgs : int; sim_msgs : int }

let default_config = { sizes = [ 1024; 8192; 65536 ]; native_msgs = 64; sim_msgs = 4 }
let quick_config = { sizes = [ 1024; 65536 ]; native_msgs = 16; sim_msgs = 2 }

(* One (payload size, mode, backend) cell: a fresh world, one engine, one
   staged message sent and received [msgs] times.  Returns the
   per-message averages of the Memtraffic ledger (host bytes the data path
   actually moved) and of the GC counters (allocation pressure).  Direct
   major-heap allocation is [Gc.counters]' major words minus promoted
   words; [Gc.allocated_bytes] cannot stand in for it, because on OCaml
   5.1 it counts minor allocation in words and major allocation in
   bytes. *)
let measure_lane ~mode ~native ~payload_len ~msgs =
  let sim = Sim.create Config.ss10_30 in
  let cipher =
    Ilp_cipher.Safer_simplified.charged sim ~key:Ilp_app.File_transfer.key ()
  in
  let backend =
    if native then
      Engine.Native
        (Ilp_app.File_transfer.fastpath_cipher Ilp_app.File_transfer.Safer_simplified)
    else Engine.Simulated
  in
  let eng =
    Engine.create sim ~cipher ~mode ~backend ~max_message:(payload_len + 256) ()
  in
  let payload = Workload.generate ~len:payload_len ~seed:7 in
  let payload_addr = Workload.install sim payload in
  let ps =
    Engine.prepare_stream_segments eng
      [| Ilp_codec.Stub_ilp.App { addr = payload_addr; len = payload_len } |] ~n:1
  in
  let wire_len = ps.Engine.stream_len in
  let dst = Alloc.alloc sim.Sim.alloc ~align:64 wire_len in
  let mem = sim.Sim.mem in
  let one () =
    ignore (ps.Engine.fill_range mem ~dst ~off:0 ~len:wire_len);
    (match mode with
    | Engine.Ilp -> (
        match Engine.rx_integrated eng mem ~src:dst ~dst_off:0 ~len:wire_len with
        | Ok _ -> ()
        | Error e -> failwith ("Memtrace: rx_integrated: " ^ e))
    | Engine.Separate -> (
        match Engine.rx_separate eng mem ~src:dst ~dst_off:0 ~len:wire_len with
        | Ok () -> ()
        | Error e -> failwith ("Memtrace: rx_separate: " ^ e)));
    match Engine.read_plaintext eng ~len:wire_len with
    | Ok { Engine.buf; _ } ->
        ignore (Sys.opaque_identity (Bytes.length buf));
        Engine.release_plaintext eng buf
    | Error e -> failwith ("Memtrace: read_plaintext: " ^ e)
  in
  (* Warm-up message: draws the staging buffer, populates the pool's size
     classes and forces lazy tables, so the measured window sees the
     steady state. *)
  one ();
  let mt0 = Mt.snapshot () in
  let _, promoted0, major0 = Gc.counters () in
  let mw0 = Gc.minor_words () in
  for _ = 1 to msgs do
    one ()
  done;
  let minor_words = (Gc.minor_words () -. mw0) /. float_of_int msgs in
  let _, promoted1, major1 = Gc.counters () in
  let major_words =
    (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int msgs
  in
  let snap = Mt.diff (Mt.snapshot ()) mt0 in
  Engine.destroy eng;
  let pool_balanced = Pool.outstanding (Engine.pool eng) = 0 in
  let per total = float_of_int total /. float_of_int msgs in
  { len = payload_len;
    wire_len;
    mode;
    native;
    msgs;
    copied = per (Mt.copied_total snap);
    copied_tx = per (Mt.copied_tx_total snap);
    copied_rx = per (Mt.copied_rx_total snap);
    allocated = per (Mt.allocated_total snap);
    alloc_blocks = per (Mt.alloc_blocks_total snap);
    minor_words;
    major_words;
    pool_balanced }

(* The observability overhead probe: with tracing disabled, a burst of
   representative instrumentation calls (guarded clock read, span,
   instant, begin_packet, counter-block bump, histogram observe, and a
   flight recorder note — which is always on — must allocate nothing.
   [Gc.minor_words] itself boxes its float result, so the per-call
   figure is gated against a small epsilon rather than exact zero. *)
let measure_disabled_tracing () =
  if Trace.enabled () then Trace.disable ();
  let blk = M.block (M.family M.default [| "memtrace.disabled_probe" |]) in
  let h = M.histogram M.default "memtrace.disabled_probe_hist" in
  let n = 10_000 in
  let one () =
    let t0 = if Trace.enabled () then Trace.now () else 0.0 in
    Trace.span Trace.Send_marshal ~packet:(Trace.current_packet ()) ~ts:t0
      ~dur:0.0;
    Trace.instant Trace.Retransmit ~packet:0 ~ts:0.0 ~arg:0;
    ignore (Trace.begin_packet ());
    Recorder.note Trace.State ~conn:0 ~arg:0 ~ts:t0;
    blk.(0) <- blk.(0) + 1;
    M.observe h 42
  in
  for _ = 1 to 64 do
    one ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    one ()
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  (* The probe filled the flight-recorder ring with synthetic notes;
     clear them so a later dump shows real connection events only. *)
  Recorder.clear ();
  per_call

let run ?(config = default_config) () =
  if config.sizes = [] then invalid_arg "Memtrace.run: no sizes";
  List.iter
    (fun n ->
      if n < 64 || n mod 8 <> 0 then
        invalid_arg
          (Printf.sprintf
             "Memtrace.run: size %d must be a multiple of 8, at least 64" n))
    config.sizes;
  if config.native_msgs < 1 || config.sim_msgs < 1 then
    invalid_arg "Memtrace.run: message counts must be positive";
  let points =
    List.concat_map
      (fun len ->
        List.concat_map
          (fun mode ->
            List.map
              (fun native ->
                let msgs =
                  if native then config.native_msgs else config.sim_msgs
                in
                measure_lane ~mode ~native ~payload_len:len ~msgs)
              [ false; true ])
          [ Engine.Separate; Engine.Ilp ])
      (List.sort compare config.sizes)
  in
  { points; disabled_trace_minor_words = measure_disabled_tracing () }

let mode_name = function Engine.Ilp -> "ilp" | Engine.Separate -> "separate"
let backend_name native = if native then "native" else "sim"

let copied_per_wire_byte p = p.copied /. float_of_int p.wire_len
let rx_copied_per_wire_byte p = p.copied_rx /. float_of_int p.wire_len

(* Host copies per wire byte the native lanes may make: the ILP send
   gathers straight into the ring (one copy) where the separate send
   stages the plaintext first (two), and the receive decrypts into the
   TSDU buffer the caller is handed (one).  Simulated lanes move bytes
   through the charged simulator, so only their allocation is gated. *)
let max_copied_per_wire_byte = function Engine.Ilp -> 2.0 | Engine.Separate -> 3.0
let max_rx_copied_per_wire_byte = 1.0

(* The acceptance gates, absolute bounds on every lane: native copies per
   wire byte within the bounds above; no ledger allocation and no direct
   major-heap allocation; minor words per message no higher than the same
   mode and backend at the smallest size (allocation must not grow with
   the message); every pool balanced (an rx placement buffer acquired but
   never released — e.g. leaked across an abort — shows up here); and
   disabled-path tracing allocation-free. *)
let check r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.disabled_trace_minor_words > 0.01 then
    fail
      "disabled tracing allocates %.4f minor words per instrumentation call \
       (must be allocation-free)"
      r.disabled_trace_minor_words;
  let smallest = List.fold_left (fun a p -> min a p.len) max_int r.points in
  List.iter
    (fun p ->
      let lane =
        Printf.sprintf "%d/%s/%s" p.len (mode_name p.mode) (backend_name p.native)
      in
      if p.native then begin
        let bound = max_copied_per_wire_byte p.mode in
        if copied_per_wire_byte p > bound then
          fail "%s: %.2f host copies per wire byte > %.0f" lane
            (copied_per_wire_byte p) bound;
        if rx_copied_per_wire_byte p > max_rx_copied_per_wire_byte then
          fail "%s: %.2f receive copies per wire byte > %.0f" lane
            (rx_copied_per_wire_byte p) max_rx_copied_per_wire_byte
      end;
      if p.allocated > 0.0 then
        fail "%s: %.1f ledger bytes allocated per message (must be 0)" lane p.allocated;
      if p.major_words > 0.0 then
        fail "%s: %.1f direct major-heap words per message (must be 0)" lane
          p.major_words;
      (match
         List.find_opt
           (fun q -> q.len = smallest && q.mode = p.mode && q.native = p.native)
           r.points
       with
      | Some q when p.minor_words > q.minor_words ->
          fail "%s: %.1f minor words per message > %.1f at %d bytes" lane
            p.minor_words q.minor_words smallest
      | _ -> ());
      if not p.pool_balanced then fail "%s: pool not balanced at exit" lane)
    r.points;
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)

(* ------------------------------------------------------------------ *)
(* JSON trajectory (hand-rolled; the container has no JSON library).  *)

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\n  \"benchmark\": \"mem\",\n  \"unit\": \"per_msg\",\n  \"points\": [\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"len\": %d, \"wire_len\": %d, \"mode\": \"%s\", \
            \"backend\": \"%s\", \"msgs\": %d, \"copied_bytes\": %.1f, \
            \"copied_tx_bytes\": %.1f, \"copied_rx_bytes\": %.1f, \
            \"allocated_bytes\": %.1f, \"alloc_blocks\": %.2f, \
            \"minor_words\": %.2f, \"major_words\": %.1f, \
            \"pool_balanced\": %b, \"copied_per_wire_byte\": %.2f, \
            \"rx_copied_per_wire_byte\": %.2f}"
           p.len p.wire_len (mode_name p.mode) (backend_name p.native) p.msgs
           p.copied p.copied_tx p.copied_rx p.allocated p.alloc_blocks
           p.minor_words p.major_words p.pool_balanced
           (copied_per_wire_byte p) (rx_copied_per_wire_byte p)))
    r.points;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"disabled_trace_minor_words_per_call\": %.4f,\n"
       r.disabled_trace_minor_words);
  Buffer.add_string b "  \"obs\": ";
  Buffer.add_string b (M.to_json (M.snapshot M.default));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let print_table r =
  let f0 = Printf.sprintf "%.0f" and f2 = Printf.sprintf "%.2f" in
  Report.table
    ~header:
      [ "bytes"; "mode"; "backend"; "copy B"; "copy/wire B"; "rx B";
        "rx/wire B"; "alloc B"; "minor w"; "major w" ]
    (List.map
       (fun p ->
         [ string_of_int p.len;
           mode_name p.mode;
           backend_name p.native;
           f0 p.copied;
           f2 (copied_per_wire_byte p);
           f0 p.copied_rx;
           f2 (rx_copied_per_wire_byte p);
           f0 p.allocated;
           f0 p.minor_words;
           f0 p.major_words ])
       r.points);
  Report.note
    "host bytes copied per message (Memtraffic ledger; total and receive \
     direction, and per wire byte), ledger bytes allocated, GC minor words \
     and direct major-heap words per message\n"
