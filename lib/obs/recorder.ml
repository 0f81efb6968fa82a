(* Flight recorder: an always-on ring of the last N significant
   connection events (state transitions, retransmits, aborts, sheds,
   resets).  [note] is the one call for such an event: it keeps the
   event here and hands it to [Trace] as an instant, which records it
   only while tracing is on.  The recorder is cheap enough to leave
   enabled everywhere: noting an event is four array stores, two
   integer bumps and the tracer's flag test, with no allocation on any
   path.  When a soak invariant fails or a connection aborts, [dump]
   turns the retained tail into a self-contained post-mortem. *)

(* Components install decoders for their [arg] encodings at module
   initialisation (e.g. TCP state numbers, shed-reason indices), so the
   recorder itself depends on no protocol module. *)
let arg_printers : (Trace.stage * (int -> string)) list ref = ref []
let set_arg_printer stage f = arg_printers := (stage, f) :: !arg_printers

let arg_string stage arg =
  match List.assoc_opt stage !arg_printers with
  | Some f -> f arg
  | None -> if arg = 0 then "" else string_of_int arg

(* ---- the ring ----

   Same idiom as [Trace]: parallel preallocated arrays, [next] is the
   write slot, [total] counts events ever noted.  Float stores into a
   float array are unboxed, so [note] never allocates. *)

let default_capacity = 4096

let on = ref true
let cap = ref default_capacity
let r_stage = ref (Array.make default_capacity Trace.State)
let r_conn = ref (Array.make default_capacity 0)
let r_arg = ref (Array.make default_capacity 0)
let r_ts = ref (Array.make default_capacity 0.0)
let next = ref 0
let total = ref 0

let enabled () = !on
let capacity () = !cap
let enable () = on := true
let disable () = on := false

let clear () =
  next := 0;
  total := 0

let resize capacity =
  if capacity < 1 then invalid_arg "Recorder.resize: capacity must be positive";
  if capacity <> !cap then begin
    cap := capacity;
    r_stage := Array.make capacity Trace.State;
    r_conn := Array.make capacity 0;
    r_arg := Array.make capacity 0;
    r_ts := Array.make capacity 0.0
  end;
  clear ()

let note stage ~conn ~arg ~ts =
  if !on then begin
    let i = !next in
    !r_stage.(i) <- stage;
    !r_conn.(i) <- conn;
    !r_arg.(i) <- arg;
    !r_ts.(i) <- ts;
    next := if i + 1 = !cap then 0 else i + 1;
    incr total
  end;
  Trace.instant stage ~packet:(Trace.current_packet ()) ~ts ~arg

(* ---- reading ---- *)

type entry = { stage : Trace.stage; conn : int; arg : int; ts : float }

let noted () = !total
let count () = Int.min !total !cap
let dropped () = !total - count ()

let nth_oldest i =
  let oldest = if !total <= !cap then 0 else !next in
  (oldest + i) mod !cap

let entries ?conn () =
  let n = count () in
  let all =
    List.init n (fun i ->
        let j = nth_oldest i in
        { stage = !r_stage.(j);
          conn = !r_conn.(j);
          arg = !r_arg.(j);
          ts = !r_ts.(j) })
  in
  match conn with
  | None -> all
  | Some c -> List.filter (fun e -> e.conn = c) all

let last ~conn n =
  let es = entries ~conn () in
  let len = List.length es in
  if len <= n then es else List.filteri (fun i _ -> i >= len - n) es

let entry_line e =
  let arg = arg_string e.stage e.arg in
  Printf.sprintf "conn %-5d ts %12.1f  %-13s %s" e.conn e.ts
    (Trace.stage_name e.stage) arg

let dump ?conn () =
  let es = entries ?conn () in
  let header =
    Printf.sprintf "flight recorder: %d retained / %d noted (%d dropped)%s"
      (count ()) (noted ()) (dropped ())
      (match conn with
      | None -> ""
      | Some c -> Printf.sprintf ", filtered to conn %d" c)
  in
  header :: List.map entry_line es
