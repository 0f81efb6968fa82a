(* Virtual clock, link impairments and kernel demultiplexing. *)

open Ilp_netsim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Simclock *)

let test_clock_ordering () =
  let clock = Simclock.create () in
  let log = ref [] in
  let ev tag = fun () -> log := tag :: !log in
  ignore (Simclock.schedule clock ~after:30.0 (ev "c"));
  ignore (Simclock.schedule clock ~after:10.0 (ev "a"));
  ignore (Simclock.schedule clock ~after:20.0 (ev "b"));
  Simclock.run_until_idle clock;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log)

let test_clock_fifo_at_same_time () =
  let clock = Simclock.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Simclock.schedule clock ~after:7.0 (fun () -> log := i :: !log))
  done;
  Simclock.run_until_idle clock;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_cancel () =
  let clock = Simclock.create () in
  let fired = ref false in
  let t = Simclock.schedule clock ~after:5.0 (fun () -> fired := true) in
  checkb "pending" true (Simclock.is_pending t);
  Simclock.cancel t;
  checkb "cancelled" false (Simclock.is_pending t);
  Simclock.run_until_idle clock;
  checkb "never fired" false !fired

let test_clock_advance_window () =
  let clock = Simclock.create () in
  let fired = ref 0 in
  ignore (Simclock.schedule clock ~after:10.0 (fun () -> incr fired));
  ignore (Simclock.schedule clock ~after:30.0 (fun () -> incr fired));
  Simclock.advance clock 15.0;
  check "only the due event" 1 !fired;
  checkf "time moved to horizon" 15.0 (Simclock.now clock);
  Simclock.advance clock 20.0;
  check "second event" 2 !fired

let test_clock_event_chain_within_window () =
  let clock = Simclock.create () in
  let fired = ref 0 in
  ignore
    (Simclock.schedule clock ~after:5.0 (fun () ->
         incr fired;
         ignore (Simclock.schedule clock ~after:5.0 (fun () -> incr fired))));
  Simclock.advance clock 20.0;
  check "chained event inside the window fires" 2 !fired

let test_clock_livelock_guard () =
  let clock = Simclock.create () in
  let rec rearm () = ignore (Simclock.schedule clock ~after:0.0 rearm) in
  rearm ();
  match Simclock.run_until_idle ~max_events:100 clock with
  | () -> Alcotest.fail "expected livelock failure"
  | exception Simclock.Livelock n -> check "budget reported" 100 n

let test_clock_event_budget () =
  (* The clock's own budget applies when run_until_idle gets no explicit
     cap, and a finite workload below the budget completes fine. *)
  let clock = Simclock.create ~event_budget:50 () in
  let rec rearm () = ignore (Simclock.schedule clock ~after:1.0 rearm) in
  rearm ();
  (match Simclock.run_until_idle clock with
  | () -> Alcotest.fail "expected livelock failure"
  | exception Simclock.Livelock n -> check "configured budget" 50 n);
  let clock2 = Simclock.create ~event_budget:50 () in
  let fired = ref 0 in
  for _ = 1 to 40 do
    ignore (Simclock.schedule clock2 ~after:1.0 (fun () -> incr fired))
  done;
  Simclock.run_until_idle clock2;
  check "finite workload completes" 40 !fired;
  match Simclock.create ~event_budget:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_clock_negative_delay_clamped () =
  let clock = Simclock.create () in
  Simclock.advance clock 100.0;
  let fired = ref false in
  ignore (Simclock.schedule clock ~after:(-50.0) (fun () -> fired := true));
  Simclock.run_until_idle clock;
  checkb "fires immediately" true !fired;
  checkf "time does not go backwards" 100.0 (Simclock.now clock)

(* The clock as it was before the heap: a persistent map keyed by due
   time and sequence number, its timers built once and re-armed as
   [Simclock]'s are.  [prop_clock_model] holds [Simclock] to it. *)
module Map_clock = struct
  module Key = struct
    type t = { at : float; seq : int }

    let compare a b =
      match Float.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c
  end

  module Events = Map.Make (Key)

  type timer = {
    clock : t;
    owner : int;
    fn : unit -> unit;
    mutable key : Key.t;  (* of the last arming *)
    mutable live : bool;  (* armed and not cancelled since *)
  }

  and t = { mutable now : float; mutable events : timer Events.t; mutable next_seq : int }

  let create ?event_budget:_ () = { now = 0.0; events = Events.empty; next_seq = 0 }
  let now t = t.now

  let timer t ~owner fn =
    { clock = t; owner; fn; key = { Key.at = 0.0; seq = -1 }; live = false }

  let cancel timer =
    if timer.live then begin
      timer.live <- false;
      timer.clock.events <- Events.remove timer.key timer.clock.events
    end

  let arm timer ~after =
    cancel timer;
    let t = timer.clock in
    let key = { Key.at = t.now +. Float.max 0.0 after; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    timer.key <- key;
    timer.live <- true;
    t.events <- Events.add key timer t.events

  let schedule t ~after f =
    let tm = timer t ~owner:0 f in
    arm tm ~after;
    tm

  let is_pending timer = timer.live && Events.mem timer.key timer.clock.events

  let fire key tm =
    let t = tm.clock in
    t.events <- Events.remove key t.events;
    t.now <- Float.max t.now key.Key.at;
    tm.fn ()

  let fire_next t =
    match Events.min_binding_opt t.events with
    | None -> false
    | Some (key, tm) ->
        fire key tm;
        true

  let advance t dt =
    if dt < 0.0 then invalid_arg "advance";
    let horizon = t.now +. dt in
    let rec loop () =
      match Events.min_binding_opt t.events with
      | Some (key, tm) when key.Key.at <= horizon ->
          fire key tm;
          loop ()
      | Some _ | None -> t.now <- horizon
    in
    loop ()

  let run_until_idle ?(max_events = 1_000_000) t =
    let fired = ref 0 in
    while fire_next t do
      incr fired;
      if !fired > max_events then raise (Simclock.Livelock max_events)
    done

  let pending t = Events.cardinal t.events

  let pending_count t ~owner =
    Events.fold (fun _ tm n -> if tm.owner = owner then n + 1 else n) t.events 0
end

module type CLOCK = sig
  type t
  type timer

  val create : ?event_budget:int -> unit -> t
  val now : t -> float
  val timer : t -> owner:int -> (unit -> unit) -> timer
  val arm : timer -> after:float -> unit
  val schedule : t -> after:float -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val is_pending : timer -> bool
  val advance : t -> float -> unit
  val run_until_idle : ?max_events:int -> t -> unit
  val pending : t -> int
  val pending_count : t -> owner:int -> int
end

(* What a fired callback does after logging its id: nothing, make a
   fresh timer, cancel the [k]-th timer made so far, or re-arm itself
   (at most [n] times, so a zero delay cannot stall [advance]). *)
type clock_act = Log | Spawn of float | Kill of int | Rearm of float * int

type clock_op =
  | Make of int * float * clock_act
      (* owner (0: [schedule], else [timer] then [arm]), delay *)
  | Arm of int * float  (* the k-th timer made so far: pending, fired or cancelled *)
  | Cancel of int  (* likewise *)
  | Advance of float
  | Run of int  (* run_until_idle with this max_events *)

type clock_view = {
  fired : int list;  (* ids fired during the operation, in order *)
  livelock : int option;
  now_bits : int64;  (* bit for bit: nan and signed zeros included *)
  pending : int;
  per_owner : int list;  (* pending_count of owners 0..3 *)
  live : bool list;  (* is_pending of every timer made so far *)
}

let clock_owners = [ 0; 1; 2; 3 ]

module Drive (C : CLOCK) = struct
  (* The view after each operation of [ops]. *)
  let run ops =
    let clock = C.create () in
    let timers = Hashtbl.create 64 and made = ref 0 in
    let fired = ref [] in
    let nth k f = if !made > 0 then f (Hashtbl.find timers (k mod !made)) in
    let rec make owner after act =
      let id = !made in
      incr made;
      let rearms = ref 0 in
      let fn () =
        fired := id :: !fired;
        match act with
        | Log -> ()
        | Spawn d -> make owner d Log
        | Kill k -> nth k C.cancel
        | Rearm (d, n) ->
            if !rearms < n then begin
              incr rearms;
              C.arm (Hashtbl.find timers id) ~after:d
            end
      in
      if owner = 0 then Hashtbl.replace timers id (C.schedule clock ~after fn)
      else begin
        let tm = C.timer clock ~owner fn in
        Hashtbl.replace timers id tm;
        C.arm tm ~after
      end
    in
    List.map
      (fun op ->
        let livelock =
          match op with
          | Make (owner, d, act) -> make owner d act; None
          | Arm (k, d) -> nth k (fun tm -> C.arm tm ~after:d); None
          | Cancel k -> nth k C.cancel; None
          | Advance dt -> C.advance clock dt; None
          | Run m -> (
              match C.run_until_idle ~max_events:m clock with
              | () -> None
              | exception Simclock.Livelock n -> Some n)
        in
        let view =
          { fired = List.rev !fired;
            livelock;
            now_bits = Int64.bits_of_float (C.now clock);
            pending = C.pending clock;
            per_owner = List.map (fun owner -> C.pending_count clock ~owner) clock_owners;
            live = List.init !made (fun i -> C.is_pending (Hashtbl.find timers i)) }
        in
        fired := [];
        view)
      ops
end

module Drive_heap = Drive (Simclock)
module Drive_map = Drive (Map_clock)

(* Delays from a small set, so due times tie often; zero, negative and
   (rarely) nan and infinite ones too.  A nan due time sorts first and
   stops [advance] until [run_until_idle] fires it. *)
let gen_delay =
  QCheck.Gen.(
    frequency
      [ (40, oneofl [ -3.0; -0.0; 0.0; 0.0; 1.0; 1.0; 2.0; 2.5; 4.0; 10.0 ]);
        (1, return Float.nan);
        (1, return Float.infinity) ])

let gen_clock_op =
  QCheck.Gen.(
    frequency
      [ ( 10,
          map3
            (fun owner d act -> Make (owner, d, act))
            (int_range 0 3) gen_delay
            (frequency
               [ (4, return Log);
                 (2, map (fun d -> Spawn d) gen_delay);
                 (2, map (fun k -> Kill k) nat);
                 (2, map2 (fun d n -> Rearm (d, n)) gen_delay (int_range 1 3)) ]) );
        (4, map2 (fun k d -> Arm (k, d)) nat gen_delay);
        (4, map (fun k -> Cancel k) nat);
        (4, map (fun dt -> Advance dt) (oneofl [ 0.0; 0.5; 1.0; 1.0; 2.0; 3.0; 7.0 ]));
        (2, map (fun m -> Run m) (int_range 0 6)) ])

let print_act = function
  | Log -> ""
  | Spawn d -> Printf.sprintf ",spawn %g" d
  | Kill k -> Printf.sprintf ",kill %d" k
  | Rearm (d, n) -> Printf.sprintf ",rearm %g x%d" d n

let print_clock_op = function
  | Make (o, d, act) -> Printf.sprintf "make(o%d,%g%s)" o d (print_act act)
  | Arm (k, d) -> Printf.sprintf "arm %d %g" k d
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Advance dt -> Printf.sprintf "advance %g" dt
  | Run m -> Printf.sprintf "run %d" m

(* Random interleavings of anonymous [schedule] and owner-tagged timers
   built with [timer] and armed (callbacks that make fresh timers,
   cancel, and re-arm their own timer too), arm of fresh, pending (a
   re-arm), fired and cancelled timers, cancel of any of them, advance,
   and run_until_idle with budgets small enough to raise Livelock: after
   every operation the heap clock and the map clock have fired the same
   ids in the same order and agree on now (bit for bit), pending, each
   owner's pending_count and every timer's is_pending. *)
let prop_clock_model =
  QCheck.Test.make ~count:500 ~long_factor:10 ~name:"heap clock = map model"
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_clock_op l))
       QCheck.Gen.(list_size (int_range 1 80) gen_clock_op))
    (fun ops ->
      let heap = Drive_heap.run ops and map = Drive_map.run ops in
      List.for_all2
        (fun (i, op) (h, m) ->
          h = m
          || QCheck.Test.fail_reportf "op %d (%s) differs from the model" i
               (print_clock_op op))
        (List.mapi (fun i op -> (i, op)) ops)
        (List.combine heap map))

(* A fired closure built once, so the loops below allocate only what the
   clock does. *)
let tick () = ()

(* Minor words per operation with [depth] events pending far ahead: flat
   in the queue's length, and [cancel] allocates nothing.  [schedule]
   allocates its timer record and nothing else. *)
let clock_words ~depth =
  let clock = Simclock.create () in
  for _ = 1 to depth do
    ignore (Simclock.schedule clock ~after:1e9 tick)
  done;
  let per_op n f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let n = 1000 in
  let sched_cancel =
    per_op n (fun () -> Simclock.cancel (Simclock.schedule clock ~after:5.0 tick))
  in
  let sched_fire =
    per_op n (fun () ->
        ignore (Simclock.schedule clock ~after:1.0 tick);
        Simclock.advance clock 1.0)
  in
  let timers = Array.init n (fun _ -> Simclock.schedule clock ~after:5.0 tick) in
  let next = ref 0 in
  let cancel =
    per_op (n - 1) (fun () ->
        Simclock.cancel timers.(!next);
        incr next)
  in
  check "every far event still pending" depth (Simclock.pending clock);
  (sched_cancel, sched_fire, cancel)

let test_clock_allocation_flat () =
  let check_words = Alcotest.(check (float 0.001)) in
  let c16, f16, k16 = clock_words ~depth:16 in
  let c4k, f4k, k4k = clock_words ~depth:4096 in
  let timer = Simclock.schedule (Simclock.create ()) ~after:0.0 tick in
  let timer_words = float_of_int (Obj.size (Obj.repr timer) + 1) in
  check_words "schedule+cancel: the timer record only" timer_words c16;
  check_words "schedule+cancel flat in queue length" c16 c4k;
  check_words "schedule+fire flat in queue length" f16 f4k;
  check_words "cancel allocates nothing at 16" 0.0 k16;
  check_words "cancel allocates nothing at 4096" 0.0 k4k

(* An owner-tagged timer (a socket's RTO, a server drain, a client
   retry) passes its owner as a plain int: building one costs the timer
   record alone, as an anonymous [schedule] does, with no [Some owner]
   for an optional argument, and arming it costs nothing more. *)
let test_clock_owned_allocation () =
  let clock = Simclock.create () in
  let owner = Simclock.fresh_owner clock in
  let once () =
    let tm = Simclock.timer clock ~owner tick in
    Simclock.arm tm ~after:5.0;
    Simclock.cancel tm
  in
  once ();
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do once () done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  let timer = Simclock.timer clock ~owner tick in
  Simclock.arm timer ~after:0.0;
  Alcotest.(check (float 0.001))
    "owner-tagged build+arm+cancel: the timer record only"
    (float_of_int (Obj.size (Obj.repr timer) + 1))
    words;
  check "tagged with its owner" 1 (Simclock.pending_count clock ~owner)

(* A built timer is re-armed in place: an arm of an unarmed timer, a
   re-arm of a pending one and a cancel allocate nothing, whatever the
   queue's depth. *)
let test_clock_arm_allocates_nothing () =
  let clock = Simclock.create () in
  for _ = 1 to 100 do
    ignore (Simclock.schedule clock ~after:1e9 tick)
  done;
  let owner = Simclock.fresh_owner clock in
  let tm = Simclock.timer clock ~owner tick in
  let cycle () =
    Simclock.arm tm ~after:5.0;
    Simclock.arm tm ~after:7.0;
    Simclock.cancel tm
  in
  cycle ();
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do cycle () done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (float 0.001)) "arm, re-arm, cancel: nothing" 0.0 words;
  Simclock.arm tm ~after:5.0;
  Simclock.arm tm ~after:7.0;
  check "a re-arm leaves one event" 1 (Simclock.pending_count clock ~owner);
  check "beside the far ones" 101 (Simclock.pending clock)

(* [stopped] is the placeholder a slot holds until its owner builds the
   timer: arming it is a programming error, reported before any clock is
   touched. *)
let test_clock_arm_stopped () =
  (match Simclock.arm Simclock.stopped ~after:1.0 with
  | () -> Alcotest.fail "arming stopped must raise"
  | exception Invalid_argument _ -> ());
  checkb "still not pending" false (Simclock.is_pending Simclock.stopped);
  Simclock.cancel Simclock.stopped

(* ------------------------------------------------------------------ *)
(* Link *)

let dgram n =
  Datagram.create ~src_port:1 ~dst_port:2
    ~payload:(String.make 4 (Char.chr (n land 0xff)))

let test_link_delivery_order () =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~delay_us:10.0
      ~deliver:(fun d -> got := d.Datagram.payload.[0] :: !got)
      ()
  in
  List.iter (fun n -> Link.send link (dgram n)) [ 1; 2; 3 ];
  Simclock.run_until_idle clock;
  Alcotest.(check (list char))
    "in order" [ '\001'; '\002'; '\003' ] (List.rev !got);
  check "delivered" 3 (Link.stats link).Link.delivered

let test_link_loss_deterministic () =
  let run () =
    let clock = Simclock.create () in
    let n = ref 0 in
    let link =
      Link.create clock ~loss_rate:0.5 ~seed:99 ~deliver:(fun _ -> incr n) ()
    in
    for i = 1 to 100 do
      Link.send link (dgram i)
    done;
    Simclock.run_until_idle clock;
    (!n, (Link.stats link).Link.dropped)
  in
  let n1, d1 = run () in
  let n2, d2 = run () in
  check "deterministic deliveries" n1 n2;
  check "deterministic drops" d1 d2;
  check "conservation" 100 (n1 + d1);
  checkb "some dropped" true (d1 > 20 && d1 < 80)

let test_link_duplication () =
  let clock = Simclock.create () in
  let n = ref 0 in
  let link =
    Link.create clock
      ~impairments:{ Link.fault_free with Link.dup_rate = 1.0 }
      ~deliver:(fun _ -> incr n) ()
  in
  for i = 1 to 10 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  check "all doubled" 20 !n;
  check "dup counter" 10 (Link.stats link).Link.duplicated

let test_link_jitter_reorders () =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~seed:3
      ~impairments:
        { Link.fault_free with Link.delay_us = 5.0; jitter_us = 500.0 }
      ~deliver:(fun d -> got := Char.code d.Datagram.payload.[0] :: !got)
      ()
  in
  for i = 1 to 20 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  let received = List.rev !got in
  check "all arrived" 20 (List.length received);
  checkb "some reordering happened" true (received <> List.sort compare received)

let test_link_tamper_hook () =
  (* The lying peer's NIC: swallow, pass through, or forge an extra copy
     by payload.  Only non-identity outcomes count as tampering. *)
  let clock = Simclock.create () in
  let got = ref 0 in
  let tamper d =
    let n = Char.code d.Datagram.payload.[0] in
    if n mod 3 = 0 then [] (* swallow *)
    else if n mod 3 = 1 then [ d ] (* identity: uncounted *)
    else [ d; d ] (* inject a forged duplicate *)
  in
  let link = Link.create clock ~tamper ~deliver:(fun _ -> incr got) () in
  for i = 1 to 9 do
    Link.send link (dgram i)
  done;
  Simclock.run_until_idle clock;
  (* 3, 6, 9 swallowed; 1, 4, 7 pass; 2, 5, 8 doubled *)
  check "deliveries" 9 !got;
  check "only rewrites counted" 6 (Link.stats link).Link.tampered;
  check "sends unchanged" 9 (Link.stats link).Link.sent

(* A datagram the link drops costs no host words: the loss draw updates
   the generator's state in place and boxes neither an [int64] nor a
   [float]. *)
let test_link_drop_allocates_nothing () =
  let clock = Simclock.create () in
  let link = Link.create clock ~loss_rate:1.0 ~deliver:ignore () in
  let d = dgram 7 in
  Link.send link d;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Link.send link d
  done;
  Alcotest.(check (float 0.001))
    "words per dropped datagram" 0.0
    ((Gc.minor_words () -. w0) /. float_of_int n);
  check "every datagram dropped" (n + 1) (Link.stats link).Link.dropped

let test_link_validation () =
  let clock = Simclock.create () in
  (match Link.create clock ~loss_rate:1.5 ~deliver:ignore () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let bad = { Link.fault_free with Link.corrupt_rate = -0.1 } in
  match Link.create clock ~impairments:bad ~deliver:ignore () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Adversarial impairments *)

(* Run [n] datagrams of distinct payloads through a link configured with
   [imp] and return the full delivery trace (payloads in arrival order)
   plus the link's stats. *)
let impaired_trace ?(n = 200) ?(seed = 7) imp =
  let clock = Simclock.create () in
  let got = ref [] in
  let link =
    Link.create clock ~seed ~impairments:imp
      ~deliver:(fun d -> got := d.Datagram.payload :: !got)
      ()
  in
  for i = 1 to n do
    Link.send link
      (Datagram.create ~src_port:1 ~dst_port:2
         ~payload:(Printf.sprintf "payload-%03d-%s" i (String.make 16 'p')))
  done;
  Simclock.run_until_idle clock;
  (List.rev !got, Link.stats link)

let chaos =
  { Link.fault_free with
    Link.jitter_us = 120.0;
    loss_rate = 0.1;
    dup_rate = 0.1;
    corrupt_rate = 0.2;
    corrupt_bits = 3;
    truncate_rate = 0.1;
    pad_rate = 0.1;
    pad_max = 8;
    delay_spike_rate = 0.1;
    delay_spike_us = 5_000.0;
    gilbert =
      Some { Link.p_enter_bad = 0.05; p_exit_bad = 0.3; loss_in_bad = 0.7 } }

let test_impairments_seed_deterministic () =
  (* Same seed: byte-identical delivery trace.  Different seed: almost
     surely a different one. *)
  let t1, s1 = impaired_trace chaos in
  let t2, s2 = impaired_trace chaos in
  checkb "identical traces" true (t1 = t2);
  checkb "identical stats" true (s1 = s2);
  let t3, _ = impaired_trace ~seed:8 chaos in
  checkb "different seed, different trace" true (t1 <> t3)

let test_impairments_all_counted () =
  let _, s = impaired_trace chaos in
  (* Every send is either delivered or dropped; each duplicate adds one
     extra delivery. *)
  check "conservation" (s.Link.sent + s.Link.duplicated)
    (s.Link.delivered + s.Link.dropped);
  checkb "losses" true (s.Link.dropped > 0);
  checkb "burst losses are a subset" true
    (s.Link.burst_dropped > 0 && s.Link.burst_dropped <= s.Link.dropped);
  checkb "duplicates" true (s.Link.duplicated > 0);
  checkb "corruptions" true (s.Link.corrupted > 0);
  checkb "truncations" true (s.Link.truncated > 0);
  checkb "paddings" true (s.Link.padded > 0);
  checkb "delay spikes" true (s.Link.delay_spikes > 0)

let test_impairments_mangle_payloads () =
  (* With only corruption enabled, every delivered payload has original
     length and at least one differs from what was sent; with only
     truncation/padding, lengths change. *)
  let corrupt_only = { Link.fault_free with Link.corrupt_rate = 0.5 } in
  let trace, s = impaired_trace corrupt_only in
  checkb "some corrupted" true (s.Link.corrupted > 0);
  check "nothing lost" s.Link.sent s.Link.delivered;
  checkb "some payload differs" true
    (List.exists (fun p -> not (String.length p > 8 && String.sub p 0 8 = "payload-")) trace
    || List.exists (fun p -> String.length p <> String.length (List.hd trace)) trace
    || s.Link.corrupted > 0);
  let resize_only =
    { Link.fault_free with Link.truncate_rate = 0.3; pad_rate = 0.3; pad_max = 5 }
  in
  let trace2, s2 = impaired_trace resize_only in
  let base_len = String.length "payload-001-" + 16 in
  checkb "lengths changed" true
    (List.exists (fun p -> String.length p <> base_len) trace2);
  checkb "short ones exist" true
    (s2.Link.truncated = 0
    || List.exists (fun p -> String.length p < base_len) trace2);
  checkb "padded ones exist" true
    (s2.Link.padded = 0 || List.exists (fun p -> String.length p > base_len) trace2)

let test_impairments_loss_rate_statistics () =
  (* An independent 30% loss over 2000 packets lands near 30%. *)
  let lossy = { Link.fault_free with Link.loss_rate = 0.3 } in
  let _, s = impaired_trace ~n:2000 lossy in
  let rate = float_of_int s.Link.dropped /. float_of_int s.Link.sent in
  checkb "within 5 points of nominal" true (rate > 0.25 && rate < 0.35);
  check "no burst drops without gilbert" 0 s.Link.burst_dropped

let test_impairments_gilbert_bursts () =
  (* A bursty channel with no independent loss: all drops are burst drops,
     and drops cluster (some consecutive pair of sends is dropped). *)
  let bursty =
    { Link.fault_free with
      Link.gilbert =
        Some { Link.p_enter_bad = 0.05; p_exit_bad = 0.2; loss_in_bad = 0.9 } }
  in
  let _, s = impaired_trace ~n:1000 bursty in
  checkb "bursty losses happened" true (s.Link.burst_dropped > 0);
  check "all drops are burst drops" s.Link.dropped s.Link.burst_dropped

let test_impairments_fault_free_is_legacy () =
  (* fault_free through the impairments path = the legacy default link:
     same trace, nothing mangled. *)
  let run_default () =
    let clock = Simclock.create () in
    let got = ref [] in
    let link =
      Link.create clock ~seed:7
        ~deliver:(fun d -> got := d.Datagram.payload :: !got)
        ()
    in
    for i = 1 to 50 do
      Link.send link
        (Datagram.create ~src_port:1 ~dst_port:2
           ~payload:(Printf.sprintf "payload-%03d-%s" i (String.make 16 'p')))
    done;
    Simclock.run_until_idle clock;
    List.rev !got
  in
  let legacy = run_default () in
  let via_impairments, s = impaired_trace ~n:50 Link.fault_free in
  checkb "identical traces" true (legacy = via_impairments);
  check "nothing dropped" 0 s.Link.dropped;
  check "nothing corrupted" 0 s.Link.corrupted;
  check "all delivered" 50 s.Link.delivered

(* ------------------------------------------------------------------ *)
(* IPv4 *)

let test_ipv4_roundtrip () =
  let payload = "a tcp segment, say" in
  let ip =
    Ipv4.make ~ident:77 ~src:Ipv4.loopback ~dst:Ipv4.loopback
      ~payload_len:(String.length payload) ()
  in
  let wire = Ipv4.encapsulate ip payload in
  check "wire length" (Ipv4.header_len + String.length payload) (String.length wire);
  match Ipv4.decapsulate wire with
  | Ok got ->
      Alcotest.(check string) "payload" payload
        (String.sub wire Ipv4.header_len (String.length payload));
      check "ident" 77 got.Ipv4.ident;
      check "protocol" Ipv4.protocol_tcp got.Ipv4.protocol;
      check "total length" (String.length wire) got.Ipv4.total_len
  | Error e -> Alcotest.fail e

let test_ipv4_header_checksum_detects_damage () =
  let wire =
    Ipv4.encapsulate (Ipv4.make ~src:1 ~dst:2 ~payload_len:4 ()) "data"
  in
  (* Flip a bit in the TTL field. *)
  let b = Bytes.of_string wire in
  Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x01));
  (match Ipv4.decapsulate (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "damaged header accepted");
  (* A self-consistent header passes its own checksum by construction. *)
  checkb "valid checksum verifies" true
    (match Ipv4.decapsulate wire with Ok _ -> true | Error _ -> false)

let test_ipv4_length_validation () =
  (match Ipv4.decapsulate "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short accepted");
  let wire = Ipv4.encapsulate (Ipv4.make ~src:1 ~dst:2 ~payload_len:4 ()) "data" in
  match Ipv4.decapsulate (wire ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* The per-datagram IP work allocates nothing: [write_header] fills the
   buffer the sender allocated, and [protocol] checks a datagram where it
   lies. *)
let test_ipv4_allocates_nothing () =
  let b = Bytes.make (Ipv4.header_len + 8) 'p' in
  let wire = Bytes.unsafe_to_string b in
  let per_op f =
    f ();
    let n = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let check_words = Alcotest.(check (float 0.001)) in
  check_words "write_header" 0.0
    (per_op (fun () -> Ipv4.write_header b ~ident:7 ~src:1 ~dst:2 ~payload_len:8));
  check "a TCP datagram" Ipv4.protocol_tcp (Ipv4.protocol wire);
  check_words "protocol" 0.0
    (per_op (fun () -> ignore (Sys.opaque_identity (Ipv4.protocol wire))))

(* The decoder is total and exact.  Arbitrary strings of 0-64 bytes
   (half of them led by 0x45, the one version/IHL byte it accepts, so
   they reach the length and checksum checks) never raise; an
   encapsulated datagram decodes to every header field it was built
   with, its payload at [header_len]; every single-bit flip in the header
   is an [Error] (the one's-complement sum catches any one-bit change of
   a 16-bit word, and the version and length bytes are checked besides);
   so is every truncation and a datagram one byte too long.  [protocol]
   agrees with the decoder on every one of these strings, and
   [write_header] writes the header [encapsulate] does for TCP. *)
let prop_ipv4_decoder =
  let gen =
    QCheck.Gen.(
      let* junk =
        oneof
          [ string_size (int_bound 64);
            map (fun s -> "\x45" ^ s) (string_size (int_bound 63)) ]
      in
      let* ident = int_bound 0xffff in
      let* protocol = int_bound 0xff in
      let* src = int_bound 0xffff_ffff in
      let* dst = int_bound 0xffff_ffff in
      let* payload = string_size (int_bound 64) in
      return (junk, (ident, protocol, src, dst), payload))
  in
  let print (junk, (ident, protocol, src, dst), payload) =
    Printf.sprintf "junk=%S ident=%d protocol=%d src=%d dst=%d payload=%S" junk
      ident protocol src dst payload
  in
  QCheck.Test.make ~count:300 ~long_factor:10 ~name:"ipv4 decoder total and exact"
    (QCheck.make ~print gen)
    (fun (junk, (ident, protocol, src, dst), payload) ->
      let rejects what w =
        match Ipv4.decapsulate w with
        | Error _ ->
            Ipv4.protocol w = -1
            || QCheck.Test.fail_reportf "%s accepted by protocol" what
        | Ok _ -> QCheck.Test.fail_reportf "%s accepted" what
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      (match Ipv4.decapsulate junk with
      | Ok h ->
          if Ipv4.protocol junk <> h.Ipv4.protocol then
            QCheck.Test.fail_report "junk: protocol disagrees"
      | Error _ ->
          if Ipv4.protocol junk <> -1 then QCheck.Test.fail_report "junk accepted by protocol"
      | exception e ->
          QCheck.Test.fail_reportf "junk raised %s" (Printexc.to_string e));
      let n = String.length payload in
      let wire =
        Ipv4.encapsulate
          (Ipv4.make ~ident ~protocol ~src ~dst ~payload_len:n ())
          payload
      in
      (match Ipv4.decapsulate wire with
      | Error e -> QCheck.Test.fail_reportf "round trip: %s" e
      | Ok h ->
          h.Ipv4.tos = 0
          && h.Ipv4.total_len = Ipv4.header_len + n
          && h.Ipv4.ident = ident && h.Ipv4.ttl = 64
          && h.Ipv4.protocol = protocol && h.Ipv4.src = src && h.Ipv4.dst = dst
          && String.sub wire Ipv4.header_len n = payload
          && Ipv4.protocol wire = protocol
          || QCheck.Test.fail_report "round trip: a field differs")
      && (let b = Bytes.create (Ipv4.header_len + n) in
          Ipv4.write_header b ~ident ~src ~dst ~payload_len:n;
          Bytes.blit_string payload 0 b Ipv4.header_len n;
          Bytes.to_string b
          = Ipv4.encapsulate (Ipv4.make ~ident ~src ~dst ~payload_len:n ()) payload
          || QCheck.Test.fail_report "write_header differs from encapsulate")
      && List.for_all
           (fun bit ->
             let b = Bytes.of_string wire in
             Bytes.set_uint8 b (bit / 8)
               (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
             rejects (Printf.sprintf "bit %d flipped" bit) (Bytes.to_string b))
           (List.init (8 * Ipv4.header_len) Fun.id)
      && List.for_all
           (fun len ->
             rejects (Printf.sprintf "a %d-byte truncation" len)
               (String.sub wire 0 len))
           (List.init (String.length wire) Fun.id)
      && rejects "one byte too long" (wire ^ "x"))

(* ------------------------------------------------------------------ *)
(* Datagram and Demux *)

let test_datagram_validation () =
  (match Datagram.create ~src_port:(-1) ~dst_port:2 ~payload:"" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let d = Datagram.create ~src_port:1 ~dst_port:2 ~payload:"abc" in
  check "length" 3 (Datagram.length d)

let test_demux_routing () =
  let demux = Demux.create () in
  let a = ref 0 and b = ref 0 in
  Demux.bind demux ~port:10 (fun _ -> incr a);
  Demux.bind demux ~port:20 (fun _ -> incr b);
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:10 ~payload:"");
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:20 ~payload:"");
  Demux.deliver demux (Datagram.create ~src_port:1 ~dst_port:30 ~payload:"");
  check "port 10" 1 !a;
  check "port 20" 1 !b;
  check "unroutable" 1 (Demux.unroutable demux)

let test_demux_bind_conflict_and_unbind () =
  let demux = Demux.create () in
  Demux.bind demux ~port:10 ignore;
  (match Demux.bind demux ~port:10 ignore with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Demux.unbind demux ~port:10;
  Demux.bind demux ~port:10 ignore

let test_demux_alloc_port () =
  let demux = Demux.create () in
  let p1 = Demux.alloc_port demux in
  Demux.bind demux ~port:p1 ignore;
  let p2 = Demux.alloc_port demux in
  checkb "ephemeral range" true (p1 >= 32768 && p2 >= 32768);
  checkb "fresh port" true (p1 <> p2)

(* ------------------------------------------------------------------ *)
(* Crashplan *)

let crash_dgram = Datagram.create ~src_port:1 ~dst_port:2 ~payload:"x"

let test_crashplan_at_times_lifecycle () =
  let clock = Simclock.create () in
  let kills = ref 0 and revives = ref 0 and got = ref 0 in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 100.0; 400.0 ])
      ~down_us:50.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> incr kills)
      ~revive:(fun () -> incr revives)
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> incr got) in
  checkb "up initially" true (Crashplan.is_up plan);
  deliver crash_dgram;
  check "delivered while up" 1 !got;
  Simclock.advance clock 120.0;
  checkb "down after the first scheduled time" false (Crashplan.is_up plan);
  check "kill callback ran" 1 !kills;
  deliver crash_dgram;
  check "blackholed while down" 1 !got;
  check "swallow counted" 1 (Crashplan.swallowed plan);
  check "blackhole never resets" 0 (Crashplan.resets plan);
  Simclock.advance clock 100.0;
  checkb "back up after down_us" true (Crashplan.is_up plan);
  check "revive callback ran" 1 !revives;
  deliver crash_dgram;
  check "delivery resumes" 2 !got;
  Simclock.advance clock 300.0;
  check "second scheduled crash" 2 (Crashplan.crashes plan);
  check "second revive" 2 !revives;
  Crashplan.stop plan;
  check "stop leaves no owned timers" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan))

let test_crashplan_stop_cancels_future_crashes () =
  let clock = Simclock.create () in
  let kills = ref 0 in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 200.0; 300.0 ])
      ~down_us:10.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> incr kills)
      ~revive:(fun () -> ())
      ()
  in
  check "crash timers pending" 2
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan));
  Crashplan.stop plan;
  check "all cancelled" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan));
  Simclock.run_until_idle clock;
  check "no crash ever fires" 0 !kills;
  checkb "still up" true (Crashplan.is_up plan)

let test_crashplan_on_packet_rearms () =
  let clock = Simclock.create () in
  let got = ref 0 in
  let plan =
    Crashplan.create clock ~max_crashes:2 ~schedule:(Crashplan.On_packet 3)
      ~down_us:40.0 ~behaviour:Crashplan.Blackhole
      ~kill:(fun () -> ())
      ~revive:(fun () -> ())
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> incr got) in
  deliver crash_dgram;
  deliver crash_dgram;
  check "first two delivered" 2 !got;
  deliver crash_dgram;
  check "trigger packet dies with the host" 2 !got;
  checkb "down on the Nth packet" false (Crashplan.is_up plan);
  check "one crash" 1 (Crashplan.crashes plan);
  check "trigger packet swallowed" 1 (Crashplan.swallowed plan);
  Simclock.advance clock 60.0;
  checkb "revived" true (Crashplan.is_up plan);
  deliver crash_dgram;
  deliver crash_dgram;
  check "count restarts after revival" 4 !got;
  deliver crash_dgram;
  check "trigger re-arms" 2 (Crashplan.crashes plan);
  Simclock.advance clock 60.0;
  deliver crash_dgram;
  deliver crash_dgram;
  deliver crash_dgram;
  deliver crash_dgram;
  check "max_crashes caps further crashes" 2 (Crashplan.crashes plan);
  check "host is immortal afterwards" 8 !got;
  Crashplan.stop plan;
  check "no owned timers" 0
    (Simclock.pending_count clock ~owner:(Crashplan.timer_owner plan))

let test_crashplan_respond_answers_with_resets () =
  let clock = Simclock.create () in
  let sent = ref [] in
  let plan =
    Crashplan.create clock
      ~schedule:(Crashplan.At_times [ 50.0 ])
      ~down_us:100.0
      ~behaviour:
        (Crashplan.Respond
           { reply =
               (fun d ->
                 if d.Datagram.payload = "quiet" then None
                 else
                   Some
                     (Datagram.create ~src_port:d.Datagram.dst_port
                        ~dst_port:d.Datagram.src_port ~payload:"RST"));
             send = (fun d -> sent := d :: !sent) })
      ~kill:(fun () -> ())
      ~revive:(fun () -> ())
      ()
  in
  let deliver = Crashplan.guard plan ~deliver:(fun _ -> ()) in
  Simclock.advance clock 60.0;
  checkb "down" false (Crashplan.is_up plan);
  deliver crash_dgram;
  check "reset answered" 1 (Crashplan.resets plan);
  check "reset emitted via send" 1 (List.length !sent);
  checkb "ports swapped" true
    (match !sent with
    | [ r ] -> r.Datagram.src_port = 2 && r.Datagram.dst_port = 1
    | _ -> false);
  deliver (Datagram.create ~src_port:1 ~dst_port:2 ~payload:"quiet");
  check "reply=None stays silent" 1 (Crashplan.resets plan);
  check "both swallowed regardless" 2 (Crashplan.swallowed plan);
  Crashplan.stop plan

let test_crashplan_seeded_times () =
  let a = Crashplan.seeded_times ~seed:42 ~crashes:8 ~horizon_us:10_000.0 in
  let b = Crashplan.seeded_times ~seed:42 ~crashes:8 ~horizon_us:10_000.0 in
  checkb "seed-deterministic" true (a = b);
  check "requested count" 8 (List.length a);
  checkb "sorted" true (a = List.sort compare a);
  checkb "inside (0.1, 1.0) of the horizon" true
    (List.for_all (fun t -> t >= 1_000.0 && t < 10_000.0) a);
  checkb "different seed draws differently" true
    (Crashplan.seeded_times ~seed:43 ~crashes:8 ~horizon_us:10_000.0 <> a);
  (match Crashplan.seeded_times ~seed:1 ~crashes:(-1) ~horizon_us:10.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Crashplan.seeded_times ~seed:1 ~crashes:1 ~horizon_us:0.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "netsim"
    [ ( "simclock",
        [ Alcotest.test_case "ordering" `Quick test_clock_ordering;
          Alcotest.test_case "fifo ties" `Quick test_clock_fifo_at_same_time;
          Alcotest.test_case "cancel" `Quick test_clock_cancel;
          Alcotest.test_case "advance window" `Quick test_clock_advance_window;
          Alcotest.test_case "event chain" `Quick test_clock_event_chain_within_window;
          Alcotest.test_case "livelock guard" `Quick test_clock_livelock_guard;
          Alcotest.test_case "event budget" `Quick test_clock_event_budget;
          Alcotest.test_case "negative delay" `Quick test_clock_negative_delay_clamped;
          Alcotest.test_case "allocation flat in queue length" `Quick
            test_clock_allocation_flat;
          qc prop_clock_model;
          Alcotest.test_case "owner-tagged schedule allocates the timer alone"
            `Quick test_clock_owned_allocation;
          Alcotest.test_case "an arm or re-arm allocates nothing" `Quick
            test_clock_arm_allocates_nothing;
          Alcotest.test_case "arming stopped raises" `Quick test_clock_arm_stopped ] );
      ( "link",
        [ Alcotest.test_case "delivery order" `Quick test_link_delivery_order;
          Alcotest.test_case "deterministic loss" `Quick test_link_loss_deterministic;
          Alcotest.test_case "duplication" `Quick test_link_duplication;
          Alcotest.test_case "jitter reorders" `Quick test_link_jitter_reorders;
          Alcotest.test_case "tamper hook" `Quick test_link_tamper_hook;
          Alcotest.test_case "validation" `Quick test_link_validation;
          Alcotest.test_case "a drop allocates nothing" `Quick
            test_link_drop_allocates_nothing ] );
      ( "impairments",
        [ Alcotest.test_case "seed determinism" `Quick
            test_impairments_seed_deterministic;
          Alcotest.test_case "all counted" `Quick test_impairments_all_counted;
          Alcotest.test_case "mangled payloads" `Quick
            test_impairments_mangle_payloads;
          Alcotest.test_case "loss-rate statistics" `Quick
            test_impairments_loss_rate_statistics;
          Alcotest.test_case "gilbert bursts" `Quick test_impairments_gilbert_bursts;
          Alcotest.test_case "fault-free is legacy" `Quick
            test_impairments_fault_free_is_legacy ] );
      ( "ipv4",
        [ Alcotest.test_case "round trip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "checksum detects damage" `Quick
            test_ipv4_header_checksum_detects_damage;
          Alcotest.test_case "length validation" `Quick test_ipv4_length_validation;
          Alcotest.test_case "allocates nothing" `Quick test_ipv4_allocates_nothing;
          qc prop_ipv4_decoder ] );
      ( "demux",
        [ Alcotest.test_case "datagram validation" `Quick test_datagram_validation;
          Alcotest.test_case "routing" `Quick test_demux_routing;
          Alcotest.test_case "bind conflict" `Quick test_demux_bind_conflict_and_unbind;
          Alcotest.test_case "alloc port" `Quick test_demux_alloc_port ] );
      ( "crashplan",
        [ Alcotest.test_case "timed lifecycle" `Quick
            test_crashplan_at_times_lifecycle;
          Alcotest.test_case "stop cancels future crashes" `Quick
            test_crashplan_stop_cancels_future_crashes;
          Alcotest.test_case "Nth-packet trigger re-arms" `Quick
            test_crashplan_on_packet_rearms;
          Alcotest.test_case "dead address answers RST" `Quick
            test_crashplan_respond_answers_with_resets;
          Alcotest.test_case "seeded times" `Quick test_crashplan_seeded_times ] ) ]
