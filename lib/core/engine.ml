open Ilp_memsim
module Internet = Ilp_checksum.Internet
module Crc32 = Ilp_checksum.Crc32
module Wire = Ilp_fastpath.Wire
module Pool = Ilp_fastpath.Pool
module Mt = Ilp_fastpath.Memtraffic
module Trace = Ilp_obs.Trace
module M = Ilp_obs.Metrics
module Stub_ilp = Ilp_codec.Stub_ilp

let m_sends = M.counter M.default "engine.sends"
let m_stream_fills = M.counter M.default "engine.stream_fills"
let m_rx_rejects = M.counter M.default "engine.rx_rejects"

type mode = Ilp | Separate

type header_style = Leading | Trailer

type rx_placement = Early | Late

type backend = Simulated | Native of Ilp_fastpath.Cipher.t

type data_path = Pooled

type plaintext = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

type t = {
  sim : Sim.t;
  cipher : Ilp_cipher.Block_cipher.t;
  fastpath : Wire.t option;
  mode : mode;
  header_style : header_style;
  rx_placement : rx_placement;
  linkage : Linkage.t;
  max_message : int;
  coalesce_writes : bool;
  pool : Pool.t;
  marshal_dmf : Dmf.t;
  unmarshal_dmf : Dmf.t;
  encrypt_dmf : Dmf.t;
  decrypt_dmf : Dmf.t;
  (* Fused-loop code regions: one per macro expansion site on the send
     side (parts B, C, A), one for the receive loop. *)
  send_loops : Code.region array;
  recv_loop : Code.region;
  marshal_buf : int;  (* separate-mode intermediate buffer *)
  app_rx : int;  (* receive-side plaintext area *)
  (* Optional end-to-end CRC32 trailer over the marshalled body — closes
     the 16-bit Internet-checksum collision hole.  The CRC is
     ordering-constrained (section 2.2), so the B/C/A part reordering
     cannot produce it in flight; like the length field, its value is
     computed at stream-build time and carried as one more generated
     segment, while its serial fold cost is charged in whichever style the
     engine runs. *)
  crc : Crc32.t option;
  (* Receive-side placement buffer (native pooled path only): the fused rx
     pass decrypts each arriving segment directly into this pool buffer at
     its final TSDU offset, and [read_plaintext] hands the buffer
     itself to the caller (ownership transfer, no delivery copy).  [None]
     between TSDUs; drawn lazily from the pool on the first rx call. *)
  mutable rx_dst : Bytes.t option;
  (* What [read_plaintext] hands over, and the [Ok] it answers with:
     one record per engine, refilled by every read. *)
  rx_span : plaintext;
  rx_ok : (plaintext, string) result;
  (* Per-stage simulated-microsecond accumulators for the fused loops
     (slot 0 marshal, slot 1 checksum).  Preallocated so tracing adds no
     per-message allocation; float-array stores are unboxed. *)
  tr_acc : float array;
}

let glue_code = 384 (* loop tests, pointer updates, part dispatch *)

let create (sim : Sim.t) ~cipher ~mode ?(backend = Simulated)
    ?(linkage = Linkage.Macro)
    ?(max_message = 2048) ?(coalesce_writes = false) ?(header_style = Leading)
    ?(rx_placement = Early) ?(uniform_units = false) ?(crc32 = false)
    ?data_path:(_ : data_path option) ?pool () =
  (* Section 5: "uniform processing unit sizes for different data
     manipulation functions could be advantageous" — widen marshalling to
     the cipher's block so the fused loop runs one invocation per block. *)
  let munit = if uniform_units then cipher.Ilp_cipher.Block_cipher.block_len else 4 in
  let marshal_dmf = Dmf.marshalling sim ~name:"xdr-marshal" ~unit_len:munit () in
  let unmarshal_dmf = Dmf.marshalling sim ~name:"xdr-unmarshal" ~unit_len:munit () in
  let encrypt_dmf = Dmf.of_cipher_encrypt cipher in
  let decrypt_dmf = Dmf.of_cipher_decrypt cipher in
  let stage_code (d : Dmf.t) = d.Dmf.code.Code.len in
  let send_body = stage_code marshal_dmf + stage_code encrypt_dmf + glue_code in
  let recv_body = stage_code unmarshal_dmf + stage_code decrypt_dmf + glue_code in
  (* Under macro linkage every expansion site carries its own copy of the
     stage bodies; under function calls the loop region is just glue.  The
     trailer layout needs no part reordering, hence a single expansion
     site — one of its advantages. *)
  let site_len body =
    match linkage with Linkage.Macro -> body | Linkage.Function_calls _ -> glue_code
  in
  (* Part B has its own expansion; the single-block tail parts C and A
     share one specialised expansion. *)
  let n_sites = match header_style with Leading -> 2 | Trailer -> 1 in
  let send_loops =
    Array.init n_sites (fun _ -> Code.alloc sim.code ~len:(site_len send_body))
  in
  let recv_loop = Code.alloc sim.code ~len:(site_len recv_body) in
  let marshal_buf = Alloc.alloc sim.alloc ~align:64 max_message in
  let app_rx = Alloc.alloc sim.alloc ~align:64 max_message in
  let pool = match pool with Some p -> p | None -> Pool.create () in
  let fastpath =
    match backend with
    | Simulated -> None
    | Native fc -> Some (Wire.create ~cipher:fc ~pool ~max_len:max_message ())
  in
  let crc = if crc32 then Some (Crc32.create sim.mem sim.alloc) else None in
  let rx_span = { buf = Bytes.empty; off = 0; len = 0 } in
  { sim; cipher; fastpath; mode; header_style; rx_placement; linkage;
    max_message; coalesce_writes; pool;
    marshal_dmf; unmarshal_dmf; encrypt_dmf; decrypt_dmf;
    send_loops; recv_loop; marshal_buf; app_rx; crc; rx_dst = None;
    rx_span; rx_ok = Ok rx_span; tr_acc = Array.make 2 0.0 }

let mode t = t.mode
let pool t = t.pool
let sim t = t.sim
let app_rx_base t = t.app_rx
let machine t = t.sim.Sim.machine
let mem t = t.sim.Sim.mem
let block_len t = t.cipher.Ilp_cipher.Block_cipher.block_len

(* Engine teardown: return the fast path's staging buffer and any
   in-flight rx placement buffer to the pool (a TSDU abandoned mid-
   reassembly by an abort or crash must not leak its buffer).  The
   simulated-memory areas belong to the bump allocator and stay. *)
let destroy t =
  (match t.rx_dst with
  | Some b ->
      t.rx_dst <- None;
      Pool.release t.pool b
  | None -> ());
  match t.fastpath with Some fp -> Wire.release fp | None -> ()

(* Bytes the framing adds beyond the marshalled body: the CRC32 trailer
   when enabled (the 4-byte length field is part of the plan itself). *)
let framing_extra t = if t.crc = None then 0 else 4

let wire_len t ~prefix_len ~payload_len =
  let p =
    Parts.plan ~block_len:(block_len t)
      ~body_len:(prefix_len + payload_len + framing_extra t)
  in
  p.Parts.total

(* The inverse of [wire_len]: the plan adds the 4-byte length field and
   pads to 8-byte blocks, so a body fits exactly when length field, body
   and trailer fit the largest block multiple within [max_message]. *)
let max_payload t ~prefix_len =
  (t.max_message land lnot 7) - 4 - framing_extra t - prefix_len

(* The marshalled body's place in a plaintext whose length field reads
   [enc_len]: after the leading length field (first under the trailer
   style), up to the CRC32 trailer word when enabled.  The one body-span
   rule: the CRC covers this span on send and on receive, and
   [read_plaintext] hands it over. *)
let body_off t = match t.header_style with Leading -> 4 | Trailer -> 0
let body_len t ~enc_len = enc_len - 4 - framing_extra t

(* The store schedule of the fused loop's final stage.  A byte-oriented
   cipher ends the send chain with its 2-PHT pair outputs partially
   coalesced ([4; 2; 1; 1] per 8-byte block); on receive the bytes go to
   the unmarshalling function one at a time, which stores them one at a
   time.  Word-oriented manipulations store words.  [coalesce_writes]
   applies the paper's LCM remedy instead. *)
let send_pattern t =
  if t.coalesce_writes then None
  else
    match t.cipher.Ilp_cipher.Block_cipher.store_unit with
    | 1 -> Some [ 4; 2; 1; 1 ]
    | u -> Some [ u ]

let recv_pattern t =
  if t.coalesce_writes then None
  else Some [ t.cipher.Ilp_cipher.Block_cipher.store_unit ]

(* Checksum tap: folds every observed block and charges the fold's ALU
   cost. *)
let checksum_tap t cell =
  fun block ~off ~len ->
    if Trace.enabled () then begin
      let t0 = Machine.micros (machine t) in
      cell := Internet.add_bytes !cell block ~off ~len;
      Machine.compute (machine t) (Internet.ops ~len);
      t.tr_acc.(1) <- t.tr_acc.(1) +. (Machine.micros (machine t) -. t0)
    end
    else begin
      cell := Internet.add_bytes !cell block ~off ~len;
      Machine.compute (machine t) (Internet.ops ~len)
    end

(* ------------------------------------------------------------------ *)
(* The logical plaintext stream of an outgoing message: the stub
   compiler's segments framed by the engine — generated runs (length
   field, stub-produced words, CRC32 trailer, padding) and runs read from
   application memory.  With the default leading header the length field
   comes first; with the trailer style of the paper's section 5 it comes
   last, which lets the ILP loop run strictly sequentially.  Both
   backends read this one array: the simulated loop below and the native
   gather in [Wire]. *)

type stream = { segs : Stub_ilp.segment array; total : int; plan : Parts.t }

let u32_be v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (v land 0xffff_ffff));
  Bytes.unsafe_to_string b

(* Copy [n] stream bytes starting at [pos] into [block+boff], charging
   payload bytes as application-memory reads (word-granular) and
   generated bytes as ALU work; payload bytes are blitted straight from
   the simulated memory's backing store [raw].  Top-level recursion (not
   a nested [let rec], which would capture its environment and allocate
   a closure per call): [stream_read] runs once per word or cipher block
   of every simulated message. *)
let rec stream_read_walk raw m segs block i seg_start pos boff n =
  if n > 0 then begin
    let seg = segs.(i) in
    (* Matched here rather than through [Stub_ilp.segment_len]: modules
       are compiled opaque, and a call per block read is host time on
       every simulated message. *)
    let seg_len =
      match seg with Stub_ilp.Gen s -> String.length s | Stub_ilp.App a -> a.len
    in
    if pos >= seg_start + seg_len then
      stream_read_walk raw m segs block (i + 1) (seg_start + seg_len) pos boff n
    else begin
      let off_in_seg = pos - seg_start in
      let take = Int.min n (seg_len - off_in_seg) in
      (match seg with
      | Stub_ilp.Gen src ->
          Bytes.blit_string src off_in_seg block boff take;
          Machine.compute m ((take + 3) / 4)
      | Stub_ilp.App a ->
          let addr = a.addr + off_in_seg in
          let whole = take / 4 * 4 in
          Machine.read_run m ~addr ~len:whole ~unit:4 ~ops:1;
          Machine.read_run m ~addr:(addr + whole) ~len:(take - whole) ~unit:1
            ~ops:1;
          Bytes.blit raw addr block boff take);
      stream_read_walk raw m segs block i seg_start (pos + take) (boff + take)
        (n - take)
    end
  end

let stream_read t st block ~boff ~pos ~n =
  if pos + n > st.total then invalid_arg "Engine.stream_read: beyond message end";
  stream_read_walk (Mem.raw (mem t)) (machine t) st.segs block 0 0 pos boff n

(* ------------------------------------------------------------------ *)
(* Send *)

(* Alignment and trailer padding runs, shared: framing a message adds no
   string for its zero bytes. *)
let zero_runs = Array.init 8 (fun k -> Stub_ilp.Gen (String.make k '\000'))

let zero_run k =
  if k < Array.length zero_runs then zero_runs.(k)
  else Stub_ilp.Gen (String.make k '\000')

(* The CRC32 of [body.(i .. n-1)], folded into [crc]. *)
let rec crc_of_segments raw body i n crc =
  if i = n then crc
  else
    let crc =
      match body.(i) with
      | Stub_ilp.Gen s -> Crc32.fold_string ~crc s ~off:0 ~len:(String.length s)
      | Stub_ilp.App { addr; len } -> Crc32.fold_bytes ~crc raw ~off:addr ~len
    in
    crc_of_segments raw body (i + 1) n crc

let make_stream_of_segments t body ~n =
  if n < 0 || n > Array.length body then
    invalid_arg "Engine.prepare_stream_segments: segment count outside the array";
  let body_len = ref 0 in
  for i = 0 to n - 1 do
    body_len := !body_len + Stub_ilp.segment_len body.(i)
  done;
  let body_len = !body_len in
  (* The CRC32 trailer, when enabled, rides inside the encrypted length:
     its value is a stream-build-time computation over the logical body
     bytes (it cannot be folded in part order — the CRC is
     ordering-constrained), while its per-byte fold cost is charged by the
     fill paths below.  The segments are folded in place. *)
  let crc_seg =
    match t.crc with
    | None -> None
    | Some _ ->
        let value = Crc32.finish (crc_of_segments (Mem.raw (mem t)) body 0 n Crc32.init) in
        Some (Stub_ilp.Gen (u32_be value))
  in
  let framed_len = body_len + framing_extra t in
  let plan = Parts.plan ~block_len:(block_len t) ~body_len:framed_len in
  if plan.Parts.total > t.max_message then
    invalid_arg
      (Printf.sprintf
         "Engine.prepare_stream_segments: message of %d bytes exceeds maximum %d"
         plan.Parts.total t.max_message);
  let total = plan.Parts.total in
  let len_field = Stub_ilp.Gen (u32_be (Parts.length_field plan)) in
  (* One array, filled in place: the length field, the body, the CRC32
     trailer when enabled and the zero run, in the header style's
     order. *)
  let n_crc = match crc_seg with None -> 0 | Some _ -> 1 in
  let segs = Array.make (n + n_crc + 2) len_field in
  (match t.header_style with
  | Leading ->
      Array.blit body 0 segs 1 n;
      (match crc_seg with Some c -> segs.(n + 1) <- c | None -> ());
      segs.(n + n_crc + 1) <- zero_run plan.Parts.alignment
  | Trailer ->
      (* Length field at the end: padding precedes it so the field sits
         in the last word of the final block. *)
      Array.blit body 0 segs 0 n;
      (match crc_seg with Some c -> segs.(n) <- c | None -> ());
      segs.(n + n_crc) <- zero_run (total - 4 - framed_len));
  { segs; total; plan }

(* Intersection of a part with the wire range [off, off+len): the piece of
   the part a range fill must produce.  Part boundaries and segment
   boundaries are both multiples of the 8-byte plan block, so the
   intersection never splits a cipher block. *)
let inter ~off ~len (p_off, p_len) =
  let s = Int.max p_off off and e = Int.min (p_off + p_len) (off + len) in
  (s, Int.max 0 (e - s))

(* ILP send of wire bytes [off, off+len) at [dst]: parts B, C, A (each
   clipped to the range), each through marshal+encrypt with the checksum
   tap on the ciphertext; the per-part accumulators are recombined in
   positional order A-B-C afterwards (legal: the Internet checksum is not
   ordering-constrained).  The whole-message send is the [off = 0,
   len = total] case; a streaming socket calls this once per MSS-sized
   segment, so every segment gets its own fused pass straight into the
   ring. *)
let fill_ilp_range t st ~dst ~off ~len =
  let plan = st.plan in
  let tr = Trace.enabled () in
  let pkt = if tr then Trace.begin_packet () else 0 in
  let t_start = if tr then Machine.micros (machine t) else 0.0 in
  if tr then begin
    t.tr_acc.(0) <- 0.0;
    t.tr_acc.(1) <- 0.0
  end;
  let bl = block_len t in
  let acc_a = ref Internet.empty
  and acc_b = ref Internet.empty
  and acc_c = ref Internet.empty in
  let block = Bytes.create bl in
  let stages = [ t.marshal_dmf; t.encrypt_dmf ] in
  let part site cell (p_off, p_len) =
    if p_len > 0 then begin
      let spec =
        Pipeline.spec ~read_unit:4 ?write_pattern:(send_pattern t)
          ~linkage:t.linkage ~loop_code:t.send_loops.(site)
          ~tap:(checksum_tap t cell) ~tap_position:Pipeline.Tap_output stages
      in
      let pos = ref p_off in
      while !pos < p_off + p_len do
        Machine.compute (machine t) 1;
        if Trace.enabled () then begin
          let a = Machine.micros (machine t) in
          stream_read t st block ~boff:0 ~pos:!pos ~n:bl;
          t.tr_acc.(0) <- t.tr_acc.(0) +. (Machine.micros (machine t) -. a)
        end
        else stream_read t st block ~boff:0 ~pos:!pos ~n:bl;
        (* CRC32 stage, fused: fold the plaintext block while it is
           register-resident (table reads and compute only).  The trailer
           value itself was fixed at stream-build time; this charges the
           serial fold the fused loop performs. *)
        (match t.crc with
        | None -> ()
        | Some c ->
            if Trace.enabled () then begin
              let a = Machine.micros (machine t) in
              ignore (Crc32.update_block c ~crc:Crc32.init block ~off:0 ~len:bl);
              t.tr_acc.(1) <- t.tr_acc.(1) +. (Machine.micros (machine t) -. a)
            end
            else
              ignore (Crc32.update_block c ~crc:Crc32.init block ~off:0 ~len:bl));
        Pipeline.process_block t.sim spec block ~off:0 ~len:bl
          ~dst:(dst - off + !pos);
        pos := !pos + bl
      done
    end
  in
  (match t.header_style with
  | Leading ->
      part 0 acc_b (inter ~off ~len (Parts.part_b plan));
      part 1 acc_c (inter ~off ~len (Parts.part_c plan));
      part 1 acc_a (inter ~off ~len (Parts.part_a plan))
  | Trailer ->
      (* No dependencies point forward: one sequential pass. *)
      part 0 acc_b (off, len));
  (* Positional recombination A ++ B ++ C (all empty but B for trailer),
     with the in-range length of each part. *)
  let len_b, len_c =
    match t.header_style with
    | Leading ->
        ( snd (inter ~off ~len (Parts.part_b plan)),
          snd (inter ~off ~len (Parts.part_c plan)) )
    | Trailer -> (len, 0)
  in
  let acc = Internet.combine !acc_a !acc_b ~len_b in
  let acc = Internet.combine acc !acc_c ~len_b:len_c in
  if tr then begin
    (* Attribution, not a timeline: the fused loop interleaves the three
       manipulations, so each stage's accumulated simulated time is laid
       out sequentially from the packet start for rendering.  The tap and
       CRC folds land in the checksum slot, the stream reads in marshal,
       and the remainder of the loop (the pipeline) in encrypt; the ring
       copy is fused away (the loop stores straight into the ring). *)
    let t_end = Machine.micros (machine t) in
    let marshal = t.tr_acc.(0) and cs = t.tr_acc.(1) in
    let encrypt = Float.max 0.0 (t_end -. t_start -. marshal -. cs) in
    Trace.span ~arg:1 Trace.Send_marshal ~packet:pkt ~ts:t_start ~dur:marshal;
    Trace.span ~arg:1 Trace.Send_checksum ~packet:pkt ~ts:(t_start +. marshal)
      ~dur:cs;
    Trace.span ~arg:1 Trace.Send_encrypt ~packet:pkt
      ~ts:(t_start +. marshal +. cs) ~dur:encrypt;
    Trace.span ~arg:1 Trace.Send_ring_copy ~packet:pkt ~ts:t_end ~dur:0.0
  end;
  Some acc

(* Separate send of wire bytes [off, off+len): marshal the range into the
   intermediate buffer (figure 3 step 1), encrypt in place (step 2), copy
   into the TCP ring (step 3, tcp_send); the checksum pass (step 4) is
   TCP's, signalled by returning [None]. *)
let fill_separate_range t st ~dst ~off ~len =
  let plan = st.plan in
  let m = machine t in
  let tr = Trace.enabled () in
  let pkt = if tr then Trace.begin_packet () else 0 in
  let t0 = if tr then Machine.micros m else 0.0 in
  let buf = t.marshal_buf in
  (* Marshalling pass: generate/read the stream, write words. *)
  Machine.exec m t.marshal_dmf.Dmf.code;
  let word = Bytes.create 4 in
  let pos = ref off in
  while !pos < off + len do
    Machine.compute m 1;
    stream_read t st word ~boff:0 ~pos:!pos ~n:4;
    t.marshal_dmf.Dmf.transform word 0;
    Machine.write m ~addr:(buf + !pos - off) ~size:4;
    Machine.compute m 1;
    Mem.poke_bytes (mem t) ~pos:(buf + !pos - off) word;
    pos := !pos + 4
  done;
  let t1 = if tr then Machine.micros m else 0.0 in
  (* CRC32 stage, separate: one more charged pass over the in-range slice
     of the marshalled body in the intermediate buffer (byte reads + table
     reads). *)
  (match t.crc with
  | None -> ()
  | Some c ->
      let enc_len = Parts.length_field plan in
      let s, l = inter ~off ~len (body_off t, body_len t ~enc_len) in
      if l > 0 then
        ignore
          (Crc32.update_mem c ~crc:Crc32.init (mem t) ~pos:(buf + s - off)
             ~len:l));
  let t2 = if tr then Machine.micros m else 0.0 in
  (* Encryption pass, in place: a byte-oriented cipher loads and stores
     single bytes (the lines are resident from the marshalling pass, so
     these accesses hit — the paper's observation that a careful non-ILP
     implementation has good cache behaviour).  Ranges are cipher-block
     aligned, so per-range encryption matches the whole-message bytes. *)
  let cipher_unit = t.cipher.Ilp_cipher.Block_cipher.store_unit in
  Pipeline.run_pass t.sim t.encrypt_dmf ~read_unit:cipher_unit
    ~write_unit:cipher_unit ~src:buf ~dst:buf ~len ();
  let t3 = if tr then Machine.micros m else 0.0 in
  (* tcp_send: copy into the ring buffer. *)
  Mem.blit (mem t) ~src:buf ~dst ~len ~unit_len:4;
  if tr then begin
    (* Real sequential passes: each span is an actual interval.  The CRC
       fold (when enabled) counts as checksum work; TCP's own Internet
       checksum pass is traced by the socket. *)
    let t4 = Machine.micros m in
    Trace.span Trace.Send_marshal ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
    (match t.crc with
    | Some _ -> Trace.span Trace.Send_checksum ~packet:pkt ~ts:t1 ~dur:(t2 -. t1)
    | None -> ());
    Trace.span Trace.Send_encrypt ~packet:pkt ~ts:t2 ~dur:(t3 -. t2);
    Trace.span Trace.Send_ring_copy ~packet:pkt ~ts:t3 ~dur:(t4 -. t3)
  end;
  None

(* ------------------------------------------------------------------ *)
(* Native backend: the same wire format produced by the un-simulated
   Ilp_fastpath kernels (uncharged — native costs are wall-clock, not
   simulated cycles; the Memtraffic ledger counts them instead).  [Wire]
   gathers the range straight from the stream's segment array, [App]
   runs read from the simulated memory's backing store, into the ring
   at [dst]; in ILP mode the gather, encrypt and checksum happen in one
   traversal.  No intermediate buffer or list is built. *)

let fill_native_range t fp st ~dst ~off ~len =
  (* Native stage spans are emitted by the Wire codec against the wall
     clock installed via [Trace.set_clock]; the packet id is allocated
     here so TCP's link/checksum events correlate. *)
  if Trace.enabled () then ignore (Trace.begin_packet ());
  let raw = Mem.raw (mem t) in
  match t.mode with
  | Ilp ->
      Some (Wire.sendv_ilp fp ~segs:st.segs ~src:raw ~off ~len ~dst:raw ~dst_off:dst)
  | Separate ->
      ignore
        (Wire.sendv_separate fp ~segs:st.segs ~src:raw ~off ~len ~dst:raw
           ~dst_off:dst);
      None

(* ------------------------------------------------------------------ *)
(* The one send interface: a message producible in ranges, so a socket
   can fill one segment at a time straight into the ring — the whole
   message at once for a one-segment send, MSS-sized pieces for a
   pipelined stream. *)

type prepared_stream = {
  stream_len : int;
  seg_unit : int;
  fill_range :
    Mem.t -> dst:int -> off:int -> len:int -> Internet.acc option;
}

let prepare_stream_segments t body ~n =
  let st = make_stream_of_segments t body ~n in
  (* Segment boundaries must land on cipher blocks (so each segment
     encrypts and decrypts independently to the same bytes as the whole
     message) and on the 8-byte units of the plan and the native codec. *)
  let bl = block_len t in
  let seg_unit = Units.lcm bl 8 in
  let fill_range mem_ ~dst ~off ~len =
    ignore mem_;
    if off < 0 || len <= 0 || off + len > st.total then
      invalid_arg "Engine.fill_range: range outside the message";
    if off mod seg_unit <> 0 || len mod seg_unit <> 0 then
      invalid_arg "Engine.fill_range: range not aligned to the segment unit";
    if off = 0 then M.inc m_sends 1;
    M.inc m_stream_fills 1;
    match t.fastpath with
    | Some fp -> fill_native_range t fp st ~dst ~off ~len
    | None -> (
        match t.mode with
        | Ilp -> fill_ilp_range t st ~dst ~off ~len
        | Separate -> fill_separate_range t st ~dst ~off ~len)
  in
  { stream_len = st.total; seg_unit; fill_range }

(* ------------------------------------------------------------------ *)
(* Receive *)

(* A hostile wire can hand TCP a segment of any length whose checksum
   happens to verify (or, integrated, whose length is checked before the
   verdict), so length validation must reject rather than raise. *)
let check_rx_len t ~dst_off ~len =
  let reject e =
    M.inc m_rx_rejects 1;
    Error e
  in
  if len <= 0 then reject (Printf.sprintf "Engine.rx: empty segment (len %d)" len)
  else if len mod block_len t <> 0 then
    reject
      (Printf.sprintf
         "Engine.rx: segment length %d not a multiple of the %d-byte cipher block"
         len (block_len t))
  else if len > t.max_message then
    reject
      (Printf.sprintf "Engine.rx: segment of %d bytes exceeds maximum %d" len
         t.max_message)
  else if dst_off < 0 || dst_off + len > t.max_message then
    (* A mid-TSDU segment whose reassembly offset would run past the
       application area: the sender and receiver disagree about the
       message size (or a PSH was lost to corruption) — reject rather
       than clobber memory past [app_rx]. *)
    reject
      (Printf.sprintf
         "Engine.rx: reassembly offset %d + segment %d exceeds maximum %d"
         dst_off len t.max_message)
  else Ok ()

(* Native receive helpers (the single-copy rx path): the fast path reads
   the staged ciphertext from the backing store and lands the plaintext
   directly in the engine-owned pool buffer at its final TSDU offset —
   the very buffer [read_plaintext] will hand to the in-place
   decoders, so no delivery copy remains. *)
let rx_placement_buf t =
  match t.rx_dst with
  | Some b -> b
  | None ->
      let b = Pool.acquire t.pool t.max_message in
      t.rx_dst <- Some b;
      b

let rx_native_separate t fp ~src ~dst_off ~len =
  let dst = rx_placement_buf t in
  ignore (Wire.recv_separate fp ~src:(Mem.raw (mem t)) ~src_off:src ~len ~dst ~dst_off)

let rx_native_fused t fp ~src ~dst_off ~len =
  let dst = rx_placement_buf t in
  Wire.recv_ilp fp ~src:(Mem.raw (mem t)) ~src_off:src ~len ~dst ~dst_off

(* Separate receive (figure 5 left, after TCP's checksum pass): decrypt in
   place on the staging area, then unmarshal-and-copy to the application
   area in words. *)
let rx_separate t _mem ~src ~dst_off ~len =
  match check_rx_len t ~dst_off ~len with
  | Error _ as e -> e
  | Ok () ->
      (match t.fastpath with
      | Some fp -> rx_native_separate t fp ~src ~dst_off ~len
      | None ->
          let tr = Trace.enabled () in
          let t0 = if tr then Machine.micros (machine t) else 0.0 in
          let cipher_unit = t.cipher.Ilp_cipher.Block_cipher.store_unit in
          Pipeline.run_pass t.sim t.decrypt_dmf ~read_unit:cipher_unit
            ~write_unit:cipher_unit ~src ~dst:src ~len ();
          let t1 = if tr then Machine.micros (machine t) else 0.0 in
          Pipeline.run_pass t.sim t.unmarshal_dmf ~read_unit:4 ~write_unit:4 ~src
            ~dst:(t.app_rx + dst_off) ~len ();
          if tr then begin
            (* TCP's own checksum pass was traced by the socket. *)
            let pkt = Trace.current_packet () in
            Trace.span Trace.Recv_decrypt ~packet:pkt ~ts:t0 ~dur:(t1 -. t0);
            Trace.span Trace.Recv_unmarshal ~packet:pkt ~ts:t1
              ~dur:(Machine.micros (machine t) -. t1)
          end);
      Ok ()

(* Integrated receive (figure 5 right): checksum the ciphertext, decrypt
   and unmarshal in one loop, storing plaintext to the application area in
   the cipher's natural store width. *)
let rx_integrated t _mem ~src ~dst_off ~len =
  match check_rx_len t ~dst_off ~len with
  | Error _ as e -> e
  | Ok () -> (
      match t.fastpath with
      | Some fp -> Ok (rx_native_fused t fp ~src ~dst_off ~len)
      | None ->
          let tr = Trace.enabled () in
          let t0 = if tr then Machine.micros (machine t) else 0.0 in
          if tr then t.tr_acc.(1) <- 0.0;
          let cell = ref Internet.empty in
          let spec =
            Pipeline.spec ~read_unit:4 ?write_pattern:(recv_pattern t)
              ~linkage:t.linkage ~loop_code:t.recv_loop
              ~tap:(checksum_tap t cell) ~tap_position:Pipeline.Tap_input
              [ t.decrypt_dmf; t.unmarshal_dmf ]
          in
          Pipeline.run_fused t.sim spec ~src ~dst:(t.app_rx + dst_off) ~len;
          if tr then begin
            (* Attribution of the fused loop: the checksum tap's time in
               its own slot, the rest (decrypt + unmarshal, one loop) laid
               on decrypt, with unmarshal flagged fused. *)
            let t1 = Machine.micros (machine t) in
            let pkt = Trace.current_packet () in
            let cs = t.tr_acc.(1) in
            let rest = Float.max 0.0 (t1 -. t0 -. cs) in
            Trace.span ~arg:1 Trace.Recv_checksum ~packet:pkt ~ts:t0 ~dur:cs;
            Trace.span ~arg:1 Trace.Recv_decrypt ~packet:pkt ~ts:(t0 +. cs)
              ~dur:rest;
            Trace.span ~arg:1 Trace.Recv_unmarshal ~packet:pkt ~ts:t1 ~dur:0.0
          end;
          Ok !cell)

(* Deferred ("close to the application") manipulation for the Late
   placement of section 3.2.3: the fused decrypt+unmarshal loop runs at
   delivery time, after TCP has already checksummed and accepted the
   segment.  The paper's TCP delayed acknowledgements instead of paying a
   second pass; ours refuses to roll back control state, so the Late
   placement buys the extra checksum pass — quantifying why the authors
   chose the early placement. *)
let rx_late t _mem ~src ~dst_off ~len =
  match check_rx_len t ~dst_off ~len with
  | Error _ as e -> e
  | Ok () ->
      (match t.fastpath with
      | Some fp -> ignore (rx_native_fused t fp ~src ~dst_off ~len)
      | None ->
          let tr = Trace.enabled () in
          let t0 = if tr then Machine.micros (machine t) else 0.0 in
          let spec =
            Pipeline.spec ~read_unit:4 ?write_pattern:(recv_pattern t)
              ~linkage:t.linkage ~loop_code:t.recv_loop
              [ t.decrypt_dmf; t.unmarshal_dmf ]
          in
          Pipeline.run_fused t.sim spec ~src ~dst:(t.app_rx + dst_off) ~len;
          if tr then begin
            let t1 = Machine.micros (machine t) in
            let pkt = Trace.current_packet () in
            Trace.span ~arg:1 Trace.Recv_decrypt ~packet:pkt ~ts:t0
              ~dur:(t1 -. t0);
            Trace.span ~arg:1 Trace.Recv_unmarshal ~packet:pkt ~ts:t1 ~dur:0.0
          end);
      Ok ()

let rx_processing t =
  match (t.mode, t.rx_placement) with
  | Ilp, Early -> Ilp_tcp.Socket.Rx_integrated (rx_integrated t)
  | Ilp, Late -> Ilp_tcp.Socket.Rx_separate (rx_late t)
  | Separate, _ -> Ilp_tcp.Socket.Rx_separate (rx_separate t)

(* One charged read of the plaintext word at [addr], an [app_rx]
   address.  On the native backend the plaintext lives in the engine's
   placement buffer rather than at [app_rx]: the value comes from the
   buffer while the same simulated access is charged, so both backends
   charge the same reads. *)
let rx_get32 t addr =
  match t.rx_dst with
  | None -> Mem.get_u32 (mem t) addr
  | Some b ->
      Machine.read (machine t) ~addr ~size:4;
      Int32.to_int (Bytes.get_int32_be b (addr - t.app_rx)) land 0xffff_ffff

(* Validation of the plaintext at [app_rx] whose length field read
   [enc_len]: the application reads the RPC header words (charged),
   rejects an implausible decrypted length, and verifies the CRC32
   trailer when enabled. *)
let check_plaintext t ~len ~enc_len =
  let m = machine t in
  Machine.compute m 2;
  let hdr_words = Int.min 6 ((len - 4) / 4) in
  for i = 0 to hdr_words - 1 do
    ignore (rx_get32 t (t.app_rx + 4 + (i * 4)));
    Machine.compute m 1
  done;
  if enc_len < 4 || enc_len > len then
    (* Decryption of a colliding-checksum segment scrambles the length
       field: reject the message rather than index out of bounds. *)
    Error (Printf.sprintf "Engine.read_plaintext: bad length field %d" enc_len)
  else
    match t.crc with
    | None -> Ok ()
    | Some c ->
        (* End-to-end verification of the CRC32 trailer: recompute the
           serial fold over the plaintext body (charged) and compare.
           This catches corruptions whose 16-bit Internet checksum
           happens to collide. *)
        if enc_len < 8 then
          Error
            (Printf.sprintf
               "Engine.read_plaintext: length field %d too short for crc32 trailer"
               enc_len)
        else begin
          let off = body_off t and n = body_len t ~enc_len in
          let stored = rx_get32 t (t.app_rx + off + n) in
          let crc =
            match t.rx_dst with
            | None ->
                Crc32.update_mem c ~crc:Crc32.init (mem t) ~pos:(t.app_rx + off)
                  ~len:n
            | Some b ->
                Crc32.update_host c ~crc:Crc32.init (mem t)
                  ~pos:(t.app_rx + off) b ~off ~len:n
          in
          Machine.compute m 2;
          if Crc32.finish crc land 0xffff_ffff <> stored then
            Error "Engine.read_plaintext: crc32 trailer mismatch"
          else Ok ()
        end

let read_plaintext t ~len =
  if len < 4 || len > t.max_message then
    Error (Printf.sprintf "Engine.read_plaintext: implausible segment length %d" len)
  else
    let enc_len =
      rx_get32 t
        (match t.header_style with
        | Leading -> t.app_rx
        | Trailer -> t.app_rx + len - 4)
    in
    match check_plaintext t ~len ~enc_len with
    | Error e -> Error e
    | Ok () ->
        let buf =
          match t.rx_dst with
          | Some buf ->
              (* Single-copy delivery: hand the placement buffer itself to
                 the caller.  Ownership transfers — the engine draws a
                 fresh buffer from the pool for the next TSDU, and the
                 caller returns this one via [release_plaintext]. *)
              t.rx_dst <- None;
              buf
          | None ->
              let buf = Pool.acquire t.pool len in
              Bytes.blit (Mem.raw (mem t)) t.app_rx buf 0 len;
              Mt.copied_rx Mt.Rpc len;
              buf
        in
        let sp = t.rx_span in
        sp.buf <- buf;
        sp.off <- body_off t;
        sp.len <- body_len t ~enc_len;
        t.rx_ok

let release_plaintext t buf = Pool.release t.pool buf
