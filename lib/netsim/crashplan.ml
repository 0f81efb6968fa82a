module M = Ilp_obs.Metrics

(* Each plan's counters: one block of the registry's [netsim.*] family. *)
let family =
  M.family M.default
    [| "netsim.crashes"; "netsim.crash_swallowed"; "netsim.crash_resets" |]

let c_crashes = 0
let c_swallowed = 1
let c_resets = 2

type schedule = At_times of float list | On_packet of int

type down_behaviour =
  | Blackhole
  | Respond of {
      reply : Datagram.t -> Datagram.t option;
      send : Datagram.t -> unit;
    }

type t = {
  clock : Simclock.t;
  owner : int;
  down_us : float;
  max_crashes : int;
  behaviour : down_behaviour;
  kill : unit -> unit;
  revive : unit -> unit;
  packet_trigger : int;  (* 0 = timed schedule only *)
  mutable up : bool;
  blk : int array;
  mutable packets_seen : int;  (* since the last restart *)
  mutable revive_timer : Simclock.timer;
  mutable crash_timers : Simclock.timer list;
  mutable stopped : bool;
}

(* A 30-bit xorshift (shifts 13/17/5) of its own, not the soaks' 64-bit
   {!Xorshift}: the committed crash-soak baselines depend on its draws.
   Fully determined by the seed, so a crash schedule reproduces exactly
   per seed. *)
let seeded_times ~seed ~crashes ~horizon_us =
  if crashes < 0 then invalid_arg "Crashplan.seeded_times: crashes < 0";
  if horizon_us <= 0.0 then
    invalid_arg "Crashplan.seeded_times: horizon_us must be positive";
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0x3FFFFFFF) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) land 0x3FFFFFFF in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3FFFFFFF in
    state := x;
    x
  in
  List.init crashes (fun _ ->
      let u = float_of_int (next ()) /. float_of_int 0x40000000 in
      (* Keep crashes away from time zero so a connection exists to
         kill: draw from [0.1, 1.0) of the horizon. *)
      horizon_us *. (0.1 +. (0.9 *. u)))
  |> List.sort compare

let bump t i = t.blk.(i) <- t.blk.(i) + 1

let crash t =
  if t.up && (not t.stopped) && t.blk.(c_crashes) < t.max_crashes then begin
    t.up <- false;
    bump t c_crashes;
    t.packets_seen <- 0;
    t.kill ();
    Simclock.arm t.revive_timer ~after:t.down_us
  end

let on_revive t =
  if not t.stopped then begin
    t.up <- true;
    t.revive ()
  end

let create clock ?(max_crashes = max_int) ~schedule ~down_us
    ~behaviour ~kill ~revive () =
  if down_us <= 0.0 then invalid_arg "Crashplan.create: down_us must be positive";
  let t =
    { clock;
      owner = Simclock.fresh_owner clock;
      down_us;
      max_crashes;
      behaviour;
      kill;
      revive;
      packet_trigger = (match schedule with On_packet n -> n | At_times _ -> 0);
      up = true;
      blk = M.block family;
      packets_seen = 0;
      revive_timer = Simclock.stopped;
      crash_timers = [];
      stopped = false }
  in
  t.revive_timer <- Simclock.timer clock ~owner:t.owner (fun () -> on_revive t);
  (match schedule with
  | At_times times ->
      t.crash_timers <-
        List.map
          (fun after ->
            if after < 0.0 then
              invalid_arg "Crashplan.create: negative crash time";
            let tm = Simclock.timer clock ~owner:t.owner (fun () -> crash t) in
            Simclock.arm tm ~after;
            tm)
          times
  | On_packet n ->
      if n < 1 then invalid_arg "Crashplan.create: On_packet needs n >= 1");
  t

let is_up t = t.up
let crashes t = t.blk.(c_crashes)
let swallowed t = t.blk.(c_swallowed)
let resets t = t.blk.(c_resets)
let timer_owner t = t.owner

(* Wrap a host's demux handler: while the host is up, packets flow (and
   feed the Nth-packet trigger); while it is down, its address black-holes
   or answers with RST, exactly as a dead machine's network stack would. *)
let guard t ~deliver dgram =
  if t.up then begin
    if t.packet_trigger > 0 then begin
      t.packets_seen <- t.packets_seen + 1;
      if t.packets_seen >= t.packet_trigger then crash t
    end;
    (* The packet that triggers the crash is lost with the host (it was
       in the NIC ring of a machine that just died). *)
    if t.up then deliver dgram else bump t c_swallowed
  end
  else begin
    bump t c_swallowed;
    match t.behaviour with
    | Blackhole -> ()
    | Respond { reply; send } -> (
        match reply dgram with
        | None -> ()
        | Some r ->
            bump t c_resets;
            send r)
  end

let stop t =
  t.stopped <- true;
  Simclock.cancel t.revive_timer;
  List.iter Simclock.cancel t.crash_timers
