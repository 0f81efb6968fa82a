(* Host-speed probe: a fixed, allocation-free loop of lookups in a hash
   table that fits in the second-level cache.

   On the shared 2-vCPU reference host a neighbour's load slows this
   process by up to 1.9x for seconds to minutes at a time; the process is
   not descheduled, it runs slower, so CPU time does not help.  This probe
   slows with the stack, slightly less: recorded after every sample of
   90-second runs, it read 1.5-1.75x where the stack read 1.7-1.9x, and
   1.00-1.07x where the stack was at full speed.  Each sample's host time
   is scaled by the probe run at the end of its round.  Probes built on a
   larger table, a pointer chase, an ALU loop or allocation tracked it
   worse; those that reach the last-level cache slowed 2-7x in episodes
   where the stack slowed under 2x, which would over-correct.  The probe
   is the bench's own code, so a change to the library never moves it. *)

let table =
  let t = Hashtbl.create 10_000 in
  for i = 0 to 9_999 do
    Hashtbl.replace t (i * 7919) i
  done;
  t

let pass k =
  let s = ref 0 in
  for i = 0 to k - 1 do
    s := !s + Hashtbl.find table ((i * 245_490) mod 10_000 * 7919)
  done;
  ignore (Sys.opaque_identity !s)

(* The probe's CPU time on the reference host at full speed, in ns.  Host
   times are reported scaled by reference / measured, so on that host at
   full speed they read as measured. *)
let reference_ns = 1_550_000.0

(* CPU time of one probe, after a short untimed pass that brings the
   table back into cache whatever the stack left there. *)
let time_ns () =
  pass 10_000;
  let t0 = World.cpu_ns () in
  pass 60_000;
  World.cpu_ns () -. t0
