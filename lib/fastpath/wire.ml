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

(* Chunk of the fused loop: big enough to amortise loop setup, small
   enough that a chunk written by one manipulation is still cache-resident
   when the next one reads it — the ILP premise applied at L1 scale. *)
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
  let acc = ref Internet.empty in
  let pos = ref 0 in
  while !pos < len do
    let n = Int.min chunk (len - !pos) in
    let s = src_off + !pos and d = dst_off + !pos in
    acc := Internet.add_bytes_unsafe !acc src ~off:s ~len:n;
    Words.blit ~src ~src_off:s ~dst ~dst_off:d ~len:n;
    Cipher.decrypt_blocks t.cipher dst ~off:d ~count:(n / 8);
    pos := !pos + n
  done;
  Mt.read_rx Mt.Checksum len;
  Mt.copied_rx Mt.Marshal len;
  Mt.inplace_rx Mt.Cipher len;
  if tr then begin
    let pkt = Trace.current_packet () and t1 = Trace.now () in
    Trace.span ~arg:1 Trace.Recv_checksum ~packet:pkt ~ts:t0 ~dur:0.0;
    Trace.span ~arg:1 Trace.Recv_decrypt ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
    Trace.span ~arg:1 Trace.Recv_unmarshal ~packet:pkt ~ts:t1 ~dur:0.0
  end;
  !acc

(* ------------------------------------------------------------------ *)
(* Scatter-gather sends: the marshal output described as an iovec list
   and assembled directly at [dst] — the single-copy path.  Segment
   boundaries are arbitrary; only the total must be a block multiple. *)

type iovec =
  | Io_bytes of { buf : Bytes.t; off : int; len : int }
  | Io_string of { s : string; off : int; len : int }

let iovec_len iov =
  List.fold_left
    (fun acc io ->
      acc + match io with Io_bytes b -> b.len | Io_string s -> s.len)
    0 iov

let check_iovec name iov =
  List.iter
    (fun io ->
      let ok =
        match io with
        | Io_bytes b -> b.off >= 0 && b.len >= 0 && b.off + b.len <= Bytes.length b.buf
        | Io_string s -> s.off >= 0 && s.len >= 0 && s.off + s.len <= String.length s.s
      in
      if not ok then invalid_arg (name ^ ": iovec out of bounds"))
    iov

let checkv name iov ~dst ~dst_off =
  check_iovec name iov;
  let total = iovec_len iov in
  if dst_off < 0 || dst_off + total > Bytes.length dst then
    invalid_arg (name ^ ": out of bounds");
  if total mod 8 <> 0 then invalid_arg (name ^ ": length not a multiple of 8");
  total

(* Gather [iov] at [dst+dst_off], invoking [flush pos] whenever a full
   chunk has been gathered since the last flush (and [pos] is therefore
   chunk-aligned relative to the flush cursor). *)
let gather iov ~dst ~dst_off ~flushed ~flush =
  let pos = ref 0 in
  let copy_slices blit len =
    let off = ref 0 in
    while !off < len do
      let room = chunk - (!pos - !flushed) in
      let n = Int.min (len - !off) room in
      blit !off (dst_off + !pos) n;
      pos := !pos + n;
      off := !off + n;
      if !pos - !flushed = chunk then flush !pos
    done
  in
  List.iter
    (fun io ->
      match io with
      | Io_bytes b -> copy_slices (fun o d n -> Bytes.blit b.buf (b.off + o) dst d n) b.len
      | Io_string s ->
          copy_slices (fun o d n -> Bytes.blit_string s.s (s.off + o) dst d n) s.len)
    iov;
  !pos

let sendv_ilp t ~iov ~dst ~dst_off =
  let total = checkv "Wire.sendv_ilp" iov ~dst ~dst_off in
  let tr = Trace.enabled () in
  let t0 = if tr then Trace.now () else 0.0 in
  (* One traversal: each gathered chunk is encrypted and checksummed at
     [dst] while still cache-resident. *)
  let acc = ref Internet.empty in
  let flushed = ref 0 in
  let flush upto =
    if upto > !flushed then begin
      let n = upto - !flushed in
      let d = dst_off + !flushed in
      Cipher.encrypt_blocks t.cipher dst ~off:d ~count:(n / 8);
      acc := Internet.add_bytes_unsafe !acc dst ~off:d ~len:n;
      flushed := upto
    end
  in
  let gathered = gather iov ~dst ~dst_off ~flushed ~flush in
  flush gathered;
  Mt.copied Mt.Marshal total;
  Mt.inplace Mt.Cipher total;
  Mt.read Mt.Checksum total;
  if tr then
    trace_send_fused ~pkt:(Trace.current_packet ()) ~t0 ~t1:(Trace.now ());
  !acc

let sendv_separate t ~iov ~dst ~dst_off =
  let total = checkv "Wire.sendv_separate" iov ~dst ~dst_off in
  if total > t.max_len then invalid_arg "Wire.sendv_separate: longer than max_len";
  let tr = Trace.enabled () in
  let buf = staging t in
  let t0 = if tr then Trace.now () else 0.0 in
  (* Pass 1: marshal — gather the message into the protocol buffer. *)
  let flushed = ref 0 in
  ignore (gather iov ~dst:buf ~dst_off:0 ~flushed ~flush:(fun p -> flushed := p));
  Mt.copied Mt.Marshal total;
  let t1 = if tr then Trace.now () else 0.0 in
  (* Pass 2: encrypt the protocol buffer in place. *)
  Cipher.encrypt_blocks t.cipher buf ~off:0 ~count:(total / 8);
  Mt.inplace Mt.Cipher total;
  let t2 = if tr then Trace.now () else 0.0 in
  (* Pass 3: the TCP send copy into the ring. *)
  Words.blit ~src:buf ~src_off:0 ~dst ~dst_off ~len:total;
  Mt.copied Mt.Tcp total;
  let t3 = if tr then Trace.now () else 0.0 in
  (* Pass 4: the tcp_output checksum walk. *)
  Mt.read Mt.Checksum total;
  let acc = Internet.add_bytes_unsafe Internet.empty dst ~off:dst_off ~len:total in
  if tr then
    trace_send_passes ~pkt:(Trace.current_packet ()) ~t0 ~t1 ~t2 ~t3
      ~t4:(Trace.now ());
  acc
