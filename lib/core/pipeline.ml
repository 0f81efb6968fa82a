open Ilp_memsim

type tap_position = Tap_input | Tap_output

type spec = {
  stages : Dmf.t list;
  read_unit : int;
  write_unit : int;
  write_pattern : int list option;
  linkage : Linkage.t;
  loop_code : Code.region;
  tap : (Bytes.t -> off:int -> len:int -> unit) option;
  tap_position : tap_position;
}

let stage_lcm stages = Units.exchange_unit (List.map (fun d -> d.Dmf.unit_len) stages)

let spec ?read_unit ?write_unit ?write_pattern ?(linkage = Linkage.Macro)
    ?(loop_code = Code.none) ?tap ?(tap_position = Tap_output) stages =
  if stages = [] then invalid_arg "Pipeline.spec: no stages";
  let le = stage_lcm stages in
  let read_unit = Option.value read_unit ~default:(Int.min 4 le) in
  let write_unit = Option.value write_unit ~default:le in
  if read_unit <= 0 || write_unit <= 0 then invalid_arg "Pipeline.spec: unit sizes";
  (match write_pattern with
  | None -> ()
  | Some pat ->
      let sum = List.fold_left ( + ) 0 pat in
      if sum <= 0 || le mod sum <> 0 then
        invalid_arg "Pipeline.spec: write_pattern must sum to a divisor of Le");
  { stages; read_unit; write_unit; write_pattern; linkage; loop_code; tap;
    tap_position }

let exchange_len t = stage_lcm t.stages

(* Charged loads of [len] bytes at [src] into [block+off], in [unit]-wide
   accesses (trailing fragment byte-wise), one ALU op per access. *)
let load_block sim ~src block ~off ~len ~unit_len =
  let machine = sim.Sim.machine in
  let mem = sim.Sim.mem in
  let full = len / unit_len in
  for i = 0 to full - 1 do
    Machine.read machine ~addr:(src + (i * unit_len)) ~size:unit_len;
    Machine.compute machine 1
  done;
  for i = full * unit_len to len - 1 do
    Machine.read machine ~addr:(src + i) ~size:1;
    Machine.compute machine 1
  done;
  Bytes.blit (Mem.raw mem) src block off len

(* Charged stores, symmetric to [load_block]. *)
let store_block sim ~dst block ~off ~len ~unit_len =
  let machine = sim.Sim.machine in
  let mem = sim.Sim.mem in
  let full = len / unit_len in
  for i = 0 to full - 1 do
    Machine.write machine ~addr:(dst + (i * unit_len)) ~size:unit_len;
    Machine.compute machine 1
  done;
  for i = full * unit_len to len - 1 do
    Machine.write machine ~addr:(dst + i) ~size:1;
    Machine.compute machine 1
  done;
  Bytes.blit block off (Mem.raw mem) dst len

(* With macro linkage the stages' code is part of the fused loop region
   (the caller sizes [loop_code] accordingly), so only the loop region is
   fetched here; with function calls each stage keeps its own shared code
   region and pays the per-invocation call overhead. *)
(* Explicit recursion over the stage list — a [List.iter] lambda here
   would capture the block and allocate a closure per processed block. *)
let rec apply_stage_list machine call_ops stages block off len =
  match stages with
  | [] -> ()
  | stage :: rest ->
      if call_ops > 0 then begin
        Machine.exec machine stage.Dmf.code;
        Machine.compute machine (call_ops * (len / stage.Dmf.unit_len))
      end;
      Dmf.apply_over stage block ~off ~len;
      apply_stage_list machine call_ops rest block off len

let apply_stages sim t block ~off ~len =
  apply_stage_list sim.Sim.machine (Linkage.call_ops t.linkage) t.stages block
    off len

(* Charged stores following the write pattern, cycling through it; again
   top-level recursion instead of per-block ref cells. *)
let rec pattern_writes machine pattern pat dst pos len =
  if pos < len then
    match pat with
    | [] -> pattern_writes machine pattern pattern dst pos len
    | u :: rest ->
        let u = Int.min u (len - pos) in
        Machine.write machine ~addr:(dst + pos) ~size:u;
        Machine.compute machine 1;
        pattern_writes machine pattern rest dst (pos + u) len

let process_block sim t block ~off ~len ~dst =
  let machine = sim.Sim.machine in
  Machine.exec machine t.loop_code;
  (* Register pressure: a loop that integrates more than two functions
     holds all their live state at once; past the register budget the
     compiler spills to the stack.  Four ops per exchange unit per extra
     integrated function (Abbott & Peterson's scaling limit). *)
  let integrated =
    List.length t.stages + (match t.tap with Some _ -> 1 | None -> 0)
  in
  if integrated > 2 then Machine.compute machine (4 * (integrated - 2));
  (match (t.tap, t.tap_position) with
  | Some tap, Tap_input -> tap block ~off ~len
  | _ -> ());
  apply_stages sim t block ~off ~len;
  (match (t.tap, t.tap_position) with
  | Some tap, Tap_output -> tap block ~off ~len
  | _ -> ());
  match t.write_pattern with
  | None -> store_block sim ~dst block ~off ~len ~unit_len:t.write_unit
  | Some pattern ->
      pattern_writes sim.Sim.machine pattern pattern dst 0 len;
      Bytes.blit block off (Mem.raw sim.Sim.mem) dst len

let run_fused sim t ~src ~dst ~len =
  let le = exchange_len t in
  if len mod le <> 0 then
    invalid_arg
      (Printf.sprintf "Pipeline.run_fused: length %d not a multiple of Le=%d" len le);
  let machine = sim.Sim.machine in
  let block = Bytes.create le in
  let pos = ref 0 in
  while !pos < len do
    (* Loop bookkeeping (pointer updates, bounds test, branch). *)
    Machine.compute machine 1;
    load_block sim ~src:(src + !pos) block ~off:0 ~len:le ~unit_len:t.read_unit;
    process_block sim t block ~off:0 ~len:le ~dst:(dst + !pos);
    pos := !pos + le
  done

let run_pass sim (dmf : Dmf.t) ?read_unit ?write_unit ~src ~dst ~len () =
  let read_unit = Option.value read_unit ~default:(Int.min dmf.Dmf.unit_len 8) in
  let write_unit = Option.value write_unit ~default:(Int.min dmf.Dmf.unit_len 8) in
  if len mod dmf.Dmf.unit_len <> 0 then
    invalid_arg
      (Printf.sprintf "Pipeline.run_pass: length %d not a multiple of %d" len
         dmf.Dmf.unit_len);
  let machine = sim.Sim.machine in
  let block = Bytes.create dmf.Dmf.unit_len in
  let pos = ref 0 in
  while !pos < len do
    (* Loop bookkeeping of this pass — the cost a fused loop pays once. *)
    Machine.compute machine 1;
    Machine.exec machine dmf.Dmf.code;
    load_block sim ~src:(src + !pos) block ~off:0 ~len:dmf.Dmf.unit_len
      ~unit_len:read_unit;
    dmf.Dmf.transform block 0;
    store_block sim ~dst:(dst + !pos) block ~off:0 ~len:dmf.Dmf.unit_len
      ~unit_len:write_unit;
    pos := !pos + dmf.Dmf.unit_len
  done
