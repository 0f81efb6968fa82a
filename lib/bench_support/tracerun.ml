open Ilp_memsim
module Ft = Ilp_app.File_transfer
module Engine = Ilp_core.Engine
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics

type result = {
  recorded : int;
  dropped : int;
  packets : int;
  send_chains : int;
  recv_chains : int;
  segment_spans : int;
  pipelined_overlaps : int;
  json : string;
  timeline : string list;
  metrics : M.snapshot;  (* diff over the traced run *)
}

(* Stage-presence bitmask per packet; a send chain is complete when all
   four send manipulation spans carry the same packet id, a receive chain
   when all three receive spans do. *)
let bit = function
  | Trace.Send_marshal -> 1
  | Trace.Send_encrypt -> 2
  | Trace.Send_checksum -> 4
  | Trace.Send_ring_copy -> 8
  | Trace.Recv_checksum -> 16
  | Trace.Recv_decrypt -> 32
  | Trace.Recv_unmarshal -> 64
  | _ -> 0

let send_full = 1 lor 2 lor 4 lor 8
let recv_full = 16 lor 32 lor 64

(* Overlapping tcp.segment spans witness the pipelined window: a segment
   transmitted before an earlier one was acknowledged. *)
let analyse_segments () =
  let segs =
    List.filter
      (fun (s : Trace.span_rec) ->
        s.Trace.stage = Trace.Tcp_segment && not s.Trace.is_instant)
      (Trace.spans ())
  in
  let overlapping (s1 : Trace.span_rec) =
    List.exists
      (fun (s2 : Trace.span_rec) ->
        s1 != s2
        && s2.Trace.ts <= s1.Trace.ts
        && s1.Trace.ts < s2.Trace.ts +. s2.Trace.dur)
      segs
  in
  ( List.length segs,
    List.fold_left (fun acc s -> if overlapping s then acc + 1 else acc) 0 segs )

let analyse () =
  let masks = Hashtbl.create 128 in
  List.iter
    (fun (s : Trace.span_rec) ->
      if s.Trace.packet > 0 && not s.Trace.is_instant then begin
        let b = bit s.Trace.stage in
        if b <> 0 then
          let cur = try Hashtbl.find masks s.Trace.packet with Not_found -> 0 in
          Hashtbl.replace masks s.Trace.packet (cur lor b)
      end)
    (Trace.spans ());
  Hashtbl.fold
    (fun _ m (p, sc, rc) ->
      ( p + 1,
        (if m land send_full = send_full then sc + 1 else sc),
        if m land recv_full = recv_full then rc + 1 else rc ))
    masks (0, 0, 0)

(* One ILP and one separate transfer on the simulated SS10/30, traced end
   to end, so the exported ring shows both the fused and the four-pass
   span shapes.  Timestamps are simulated microseconds ([Machine.micros])
   throughout — the transfers run on the simulated backend. *)
let run ?(quick = false) () =
  let machine = Config.ss10_30 in
  let before = M.snapshot M.default in
  Trace.enable ~capacity:(if quick then 8192 else 65536) ();
  let go ?mss mode =
    let setup =
      { (Ft.default_setup ~machine ~mode) with
        Ft.file_len = (if quick then 1024 else 4096);
        copies = (if quick then 2 else 4);
        max_reply = 512;
        mss }
    in
    let r = Ft.run setup in
    if r.Ft.verdict <> Ilp_app.World.Complete then begin
      Trace.disable ();
      failwith
        ("Tracerun: transfer failed: "
        ^ Ilp_app.World.verdict_to_string r.Ft.verdict)
    end
  in
  go Engine.Ilp;
  go Engine.Separate;
  (* A streamed leg: replies wider than the MSS travel as pipelined
     segments, so the exported trace shows overlapping tcp.segment
     lifetimes — the visual signature of the sliding window. *)
  go ~mss:128 Engine.Ilp;
  Trace.disable ();
  let segment_spans, pipelined_overlaps = analyse_segments () in
  let packets, send_chains, recv_chains = analyse () in
  { recorded = Trace.recorded ();
    dropped = Trace.dropped ();
    packets;
    send_chains;
    recv_chains;
    segment_spans;
    pipelined_overlaps;
    json = Trace.to_chrome_json ();
    timeline = Trace.timeline ~tail:24 ();
    metrics = M.diff (M.snapshot M.default) before }

let complete r =
  r.send_chains > 0 && r.recv_chains > 0 && r.segment_spans > 0
  && r.pipelined_overlaps > 0

let write_json r ~path =
  let oc = open_out path in
  output_string oc r.json;
  close_out oc

let summary_lines r =
  [ Printf.sprintf "spans recorded   %d (%d evicted by ring wrap)" r.recorded
      r.dropped;
    Printf.sprintf "packets traced   %d" r.packets;
    Printf.sprintf
      "send chains      %d complete (marshal+encrypt+checksum+ring-copy)"
      r.send_chains;
    Printf.sprintf
      "recv chains      %d complete (checksum+decrypt+unmarshal)"
      r.recv_chains;
    Printf.sprintf "segment spans    %d (%d overlapping: pipelined window)"
      r.segment_spans r.pipelined_overlaps ]
