module Internet = Ilp_checksum.Internet
module Mt = Memtraffic
module Trace = Ilp_obs.Trace

type t = {
  cipher : Cipher.t;
  pool : Pool.t option;
  (* The separate path's intermediate protocol buffer, drawn lazily (the
     ILP paths never touch it) and returned on {!release}. *)
  mutable staging : Bytes.t option;
  max_len : int;
}

let create ~cipher ?pool ~max_len () =
  if max_len < 0 then invalid_arg "Wire.create: max_len";
  { cipher; pool; staging = None; max_len }

let cipher t = t.cipher

let staging t =
  match t.staging with
  | Some b -> b
  | None ->
      let b =
        match t.pool with
        | Some p -> Pool.acquire p t.max_len
        | None ->
            Mt.alloc Mt.Marshal t.max_len;
            Bytes.create t.max_len
      in
      t.staging <- Some b;
      b

let release t =
  match t.staging with
  | None -> ()
  | Some b ->
      t.staging <- None;
      (match t.pool with Some p -> Pool.release p b | None -> ())

(* The send's gather chunk: big enough to amortise a seal's setup,
   small enough that the gathered bytes are still in L1 when the seal
   reads them back. *)
let chunk = 4096

let check name ~src ~src_off ~len ~dst ~dst_off =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > Bytes.length src
    || dst_off + len > Bytes.length dst
  then invalid_arg (name ^ ": out of bounds");
  if len mod 8 <> 0 then invalid_arg (name ^ ": length not a multiple of 8")

(* Trace helpers for the native passes: timestamps come from the
   installed wall clock ([Trace.set_clock]; constant 0 when none), packet
   correlation from the engine's [Trace.begin_packet].  Fused loops emit
   the full stage set with [arg = 1] marking stages whose work happened
   inside the single traversal. *)

let trace_send_passes ~pkt ~t0 ~t1 ~t2 ~t3 ~t4 =
  Trace.span Trace.Send_marshal ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
  Trace.span Trace.Send_encrypt ~packet:pkt ~ts:t1 ~dur:(t2 -. t1);
  Trace.span Trace.Send_ring_copy ~packet:pkt ~ts:t2 ~dur:(t3 -. t2);
  Trace.span Trace.Send_checksum ~packet:pkt ~ts:t3 ~dur:(t4 -. t3)

let trace_send_fused ~pkt ~t0 ~t1 =
  Trace.span ~arg:1 Trace.Send_marshal ~packet:pkt ~ts:t0 ~dur:0.0;
  Trace.span ~arg:1 Trace.Send_encrypt ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
  Trace.span ~arg:1 Trace.Send_checksum ~packet:pkt ~ts:t1 ~dur:0.0;
  Trace.span ~arg:1 Trace.Send_ring_copy ~packet:pkt ~ts:t1 ~dur:0.0

let recv_separate t ~src ~src_off ~len ~dst ~dst_off =
  check "Wire.recv_separate" ~src ~src_off ~len ~dst ~dst_off;
  let tr = Trace.enabled () in
  let t0 = if tr then Trace.now () else 0.0 in
  (* Pass 1: the tcp_input checksum walk. *)
  let acc = Internet.add_bytes_unsafe Internet.empty src ~off:src_off ~len in
  Mt.read_rx Mt.Checksum len;
  let t1 = if tr then Trace.now () else 0.0 in
  (* Pass 2: decrypt the staged segment in place. *)
  Cipher.decrypt_blocks t.cipher src ~off:src_off ~count:(len / 8);
  Mt.inplace_rx Mt.Cipher len;
  let t2 = if tr then Trace.now () else 0.0 in
  (* Pass 3: unmarshal — copy the plaintext up to the application. *)
  Words.blit ~src ~src_off ~dst ~dst_off ~len;
  Mt.copied_rx Mt.Marshal len;
  if tr then begin
    let pkt = Trace.current_packet () and t3 = Trace.now () in
    Trace.span Trace.Recv_checksum ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
    Trace.span Trace.Recv_decrypt ~packet:pkt ~ts:t1 ~dur:(t2 -. t1);
    Trace.span Trace.Recv_unmarshal ~packet:pkt ~ts:t2 ~dur:(t3 -. t2)
  end;
  acc

let recv_ilp t ~src ~src_off ~len ~dst ~dst_off =
  check "Wire.recv_ilp" ~src ~src_off ~len ~dst ~dst_off;
  let tr = Trace.enabled () in
  let t0 = if tr then Trace.now () else 0.0 in
  (* One pass: each ciphertext word is loaded once, folded into the
     checksum, decrypted in registers and stored once at [dst]. *)
  let acc =
    Cipher.decrypt_fold t.cipher ~src ~src_off ~dst ~dst_off ~count:(len / 8)
      Internet.empty
  in
  Mt.read_rx Mt.Checksum len;
  Mt.copied_rx Mt.Marshal len;
  Mt.inplace_rx Mt.Cipher len;
  if tr then begin
    let pkt = Trace.current_packet () and t1 = Trace.now () in
    Trace.span ~arg:1 Trace.Recv_checksum ~packet:pkt ~ts:t0 ~dur:0.0;
    Trace.span ~arg:1 Trace.Recv_decrypt ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
    Trace.span ~arg:1 Trace.Recv_unmarshal ~packet:pkt ~ts:t1 ~dur:0.0
  end;
  acc

(* ------------------------------------------------------------------ *)
(* Scatter-gather sends: the stub compiler's segment array, gathered
   window by window directly at [dst] — the single-copy path.  Segment
   boundaries are arbitrary; only the window must be block-aligned. *)

module Stub_ilp = Ilp_codec.Stub_ilp

(* The message length, checking every [App] run against [src] on the
   way.  A loop, not a fold: a closure over [name] would allocate on
   every send. *)
let message_len name segs ~src =
  let total = ref 0 in
  for i = 0 to Array.length segs - 1 do
    match segs.(i) with
    | Stub_ilp.Gen s -> total := !total + String.length s
    | Stub_ilp.App a ->
        if a.addr < 0 || a.len < 0 || a.addr > Bytes.length src - a.len then
          invalid_arg (name ^ ": App run outside src");
        total := !total + a.len
  done;
  !total

let checkv name segs ~src ~off ~len ~dst ~dst_off =
  if off < 0 || len < 0 || off + len > message_len name segs ~src then
    invalid_arg (name ^ ": window outside the message");
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg (name ^ ": out of bounds");
  if off mod 8 <> 0 || len mod 8 <> 0 then
    invalid_arg (name ^ ": window not aligned to 8 bytes")

(* Encrypt [len] gathered bytes at [dst+off] in place and fold the
   ciphertext into [acc], in one pass over the words. *)
let seal t dst ~off ~len acc = Cipher.encrypt_fold t.cipher dst ~off ~count:(len / 8) acc

(* Gather message bytes [off, off+len) at [dst+dst_off] in chunks of
   [chunk] bytes.  When [fused], each full chunk, and then the tail, is
   sealed at [dst] while still cache-resident, and the result is the
   checksum of the sealed bytes; otherwise it is [Internet.empty].  One
   loop over the segments with the cursors in locals and no closure, so
   a send allocates nothing. *)
let gather t segs ~src ~off ~len ~dst ~dst_off ~fused =
  let acc = ref Internet.empty and pos = ref 0 and flushed = ref 0 in
  (* Segment [i] starts at message offset [seg_start]. *)
  let i = ref 0 and seg_start = ref 0 in
  while !pos < len do
    let seg = segs.(!i) in
    let seg_end = !seg_start + Stub_ilp.segment_len seg and cur = off + !pos in
    if cur >= seg_end then begin
      seg_start := seg_end;
      incr i
    end
    else begin
      let n = Int.min (seg_end - cur) (Int.min (len - !pos) (chunk - (!pos - !flushed))) in
      let d = dst_off + !pos and o = cur - !seg_start in
      (match seg with
      | Stub_ilp.Gen s -> Bytes.blit_string s o dst d n
      | Stub_ilp.App a -> Bytes.blit src (a.addr + o) dst d n);
      pos := !pos + n;
      if !pos - !flushed = chunk then begin
        if fused then acc := seal t dst ~off:(dst_off + !flushed) ~len:chunk !acc;
        flushed := !pos
      end
    end
  done;
  if fused && !pos > !flushed then
    seal t dst ~off:(dst_off + !flushed) ~len:(!pos - !flushed) !acc
  else !acc

let sendv_ilp t ~segs ~src ~off ~len ~dst ~dst_off =
  checkv "Wire.sendv_ilp" segs ~src ~off ~len ~dst ~dst_off;
  let tr = Trace.enabled () in
  let t0 = if tr then Trace.now () else 0.0 in
  (* Each gathered chunk is sealed at [dst] while it is in L1: one
     encrypt-and-fold pass over its words. *)
  let acc = gather t segs ~src ~off ~len ~dst ~dst_off ~fused:true in
  Mt.copied Mt.Marshal len;
  Mt.inplace Mt.Cipher len;
  Mt.read Mt.Checksum len;
  if tr then
    trace_send_fused ~pkt:(Trace.current_packet ()) ~t0 ~t1:(Trace.now ());
  acc

let sendv_separate t ~segs ~src ~off ~len ~dst ~dst_off =
  checkv "Wire.sendv_separate" segs ~src ~off ~len ~dst ~dst_off;
  if len > t.max_len then invalid_arg "Wire.sendv_separate: longer than max_len";
  let tr = Trace.enabled () in
  let buf = staging t in
  let t0 = if tr then Trace.now () else 0.0 in
  (* Pass 1: marshal — gather the window into the protocol buffer. *)
  ignore (gather t segs ~src ~off ~len ~dst:buf ~dst_off:0 ~fused:false);
  Mt.copied Mt.Marshal len;
  let t1 = if tr then Trace.now () else 0.0 in
  (* Pass 2: encrypt the protocol buffer in place. *)
  Cipher.encrypt_blocks t.cipher buf ~off:0 ~count:(len / 8);
  Mt.inplace Mt.Cipher len;
  let t2 = if tr then Trace.now () else 0.0 in
  (* Pass 3: the TCP send copy into the ring. *)
  Words.blit ~src:buf ~src_off:0 ~dst ~dst_off ~len;
  Mt.copied Mt.Tcp len;
  let t3 = if tr then Trace.now () else 0.0 in
  (* Pass 4: the tcp_output checksum walk. *)
  Mt.read Mt.Checksum len;
  let acc = Internet.add_bytes_unsafe Internet.empty dst ~off:dst_off ~len in
  if tr then
    trace_send_passes ~pkt:(Trace.current_packet ()) ~t0 ~t1 ~t2 ~t3
      ~t4:(Trace.now ());
  acc
