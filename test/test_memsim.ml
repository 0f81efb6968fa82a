(* Unit and property tests for the memory-hierarchy simulator. *)

open Ilp_memsim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counting () =
  let s = Stats.create () in
  Stats.record_access s Stats.Read ~size:4;
  Stats.record_access s Stats.Read ~size:4;
  Stats.record_access s Stats.Read ~size:1;
  Stats.record_access s Stats.Write ~size:8;
  check "reads" 3 (Stats.accesses s Stats.Read);
  check "writes" 1 (Stats.accesses s Stats.Write);
  check "reads of size 4" 2 (Stats.accesses_of_size s Stats.Read ~size:4);
  check "reads of size 1" 1 (Stats.accesses_of_size s Stats.Read ~size:1);
  check "read bytes" 9 (Stats.bytes s Stats.Read);
  check "write bytes" 8 (Stats.bytes s Stats.Write)

let test_stats_misses () =
  let s = Stats.create () in
  Stats.record_access s Stats.Write ~size:1;
  Stats.record_miss s Stats.Write ~size:1 ~level:1;
  Stats.record_miss s Stats.Write ~size:1 ~level:2;
  check "level 1" 1 (Stats.misses s Stats.Write ~level:1);
  check "level 2" 1 (Stats.misses s Stats.Write ~level:2);
  check "per size" 1 (Stats.misses_of_size s Stats.Write ~size:1 ~level:1);
  checkf "ratio" 1.0 (Stats.miss_ratio s Stats.Write ~level:1);
  checkf "data ratio" 1.0 (Stats.data_miss_ratio s)

let test_stats_ratio_empty () =
  let s = Stats.create () in
  checkf "empty ratio" 0.0 (Stats.miss_ratio s Stats.Read ~level:1);
  checkf "empty data ratio" 0.0 (Stats.data_miss_ratio s)

let test_stats_invalid_size () =
  Alcotest.check_raises "size 3" (Invalid_argument "Stats: unsupported access size 3")
    (fun () -> Stats.record_access (Stats.create ()) Stats.Read ~size:3)

let test_stats_accumulate_diff () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record_access a Stats.Read ~size:4;
  Stats.record_access b Stats.Read ~size:4;
  Stats.record_access b Stats.Read ~size:4;
  Stats.accumulate ~into:a b;
  check "accumulated" 3 (Stats.accesses a Stats.Read);
  let d = Stats.diff a b in
  check "diff" 1 (Stats.accesses d Stats.Read);
  let snap = Stats.copy a in
  Stats.record_access a Stats.Write ~size:1;
  let d2 = Stats.diff a snap in
  check "diff after copy: write delta" 1 (Stats.accesses d2 Stats.Write);
  check "diff after copy: read delta" 0 (Stats.accesses d2 Stats.Read)

let test_stats_scale_reset () =
  let s = Stats.create () in
  for _ = 1 to 10 do
    Stats.record_access s Stats.Read ~size:2
  done;
  let doubled = Stats.scale s 2.0 in
  check "scaled" 20 (Stats.accesses doubled Stats.Read);
  Stats.reset s;
  check "reset" 0 (Stats.accesses s Stats.Read)

(* ------------------------------------------------------------------ *)
(* Cache *)

let dm ~size ~line = Cache.create (Cache.direct_mapped ~size ~line)

let test_cache_cold_miss_then_hit () =
  let c = dm ~size:256 ~line:16 in
  let o1 = Cache.access c ~addr:0 ~write:false in
  checkb "cold miss" false (o1 >= 0);
  checkb "filled" true (o1 < -1);
  let o2 = Cache.access c ~addr:12 ~write:false in
  checkb "same line hits" true (o2 >= 0);
  let o3 = Cache.access c ~addr:16 ~write:false in
  checkb "next line misses" false (o3 >= 0)

let test_cache_direct_mapped_conflict () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:false);
  (* 256 bytes direct-mapped: address 256 maps to the same set as 0. *)
  ignore (Cache.access c ~addr:256 ~write:false);
  checkb "original evicted" false (Cache.present c ~addr:0);
  checkb "newcomer present" true (Cache.present c ~addr:256)

let test_cache_lru () =
  let c = Cache.create (Cache.set_associative ~size:64 ~line:16 ~assoc:2) in
  (* 2 sets; addresses 0, 32, 64 share set 0 (line 16, sets 2). *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:32 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false) (* refresh 0 *);
  ignore (Cache.access c ~addr:64 ~write:false) (* evicts 32, the LRU *);
  checkb "0 kept" true (Cache.present c ~addr:0);
  checkb "32 evicted" false (Cache.present c ~addr:32);
  checkb "64 present" true (Cache.present c ~addr:64)

let test_cache_writeback_on_dirty_eviction () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:true);
  let o = Cache.access c ~addr:256 ~write:false in
  checkb "dirty eviction writes back" true (Cache.writeback o);
  (* A clean line must not write back. *)
  ignore (Cache.access c ~addr:512 ~write:false);
  let o2 = Cache.access c ~addr:0 ~write:false in
  checkb "clean eviction silent" false (Cache.writeback o2)

let test_cache_store_around () =
  let cfg =
    { (Cache.direct_mapped ~size:256 ~line:16) with
      Cache.write_policy = Cache.Write_through;
      write_allocate = false }
  in
  let c = Cache.create cfg in
  let o = Cache.access c ~addr:0 ~write:true in
  checkb "write miss does not fill" false (o < -1);
  checkb "line still absent" false (Cache.present c ~addr:0);
  (* A read brings the line in; later writes hit. *)
  ignore (Cache.access c ~addr:0 ~write:false);
  let o2 = Cache.access c ~addr:4 ~write:true in
  checkb "write hit after read" true (o2 >= 0)

let test_cache_write_through_never_dirty () =
  let cfg =
    { (Cache.direct_mapped ~size:256 ~line:16) with
      Cache.write_policy = Cache.Write_through }
  in
  let c = Cache.create cfg in
  ignore (Cache.access c ~addr:0 ~write:true);
  let o = Cache.access c ~addr:256 ~write:false in
  checkb "write-through eviction has no writeback" false (Cache.writeback o)

let test_cache_flush () =
  let c = dm ~size:256 ~line:16 in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.flush c;
  checkb "flushed" false (Cache.present c ~addr:0)

let test_cache_bad_geometry () =
  Alcotest.check_raises "line not power of two"
    (Invalid_argument "Cache.create: line size") (fun () ->
      ignore (Cache.create (Cache.direct_mapped ~size:256 ~line:12)));
  Alcotest.check_raises "indivisible size"
    (Invalid_argument "Cache.create: size not divisible by line*assoc") (fun () ->
      ignore (Cache.create (Cache.set_associative ~size:250 ~line:16 ~assoc:2)));
  (* Sets are found by mask: 96 bytes of 2-way 16-byte lines are 3 sets. *)
  Alcotest.check_raises "set count not a power of two"
    (Invalid_argument "Cache.create: set count") (fun () ->
      ignore (Cache.create (Cache.set_associative ~size:96 ~line:16 ~assoc:2)));
  (* Neither the size nor the associativity need be one: the SuperSPARC's
     20 KB 5-way instruction cache has 64 sets. *)
  let l1i = Cache.create Config.ss10_30.Config.l1i in
  checkb "20 KB 5-way accepted" false (Cache.present l1i ~addr:0)

let prop_cache_capacity =
  QCheck.Test.make ~count:100 ~name:"resident lines never exceed capacity"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 4095))
    (fun addrs ->
      let c = Cache.create (Cache.set_associative ~size:256 ~line:16 ~assoc:2) in
      List.iter (fun a -> ignore (Cache.access c ~addr:a ~write:false)) addrs;
      let resident = ref 0 in
      for line = 0 to 255 do
        if Cache.present c ~addr:(line * 16) then incr resident
      done;
      !resident <= 16)

let prop_cache_present_after_read =
  QCheck.Test.make ~count:100 ~name:"a read access makes the line present"
    QCheck.(int_bound 100_000)
    (fun addr ->
      let c = dm ~size:1024 ~line:32 in
      ignore (Cache.access c ~addr ~write:false);
      Cache.present c ~addr)

(* [Cache.access] reports the way it left the line in, on random traces
   that keep meeting the same few sets: the tiny 2-way cache of
   [Config.custom], a direct-mapped one, a larger 2-way one and the
   SuperSPARC write-through, no-write-allocate data cache. *)
let way_geometries =
  [ (Config.custom ()).Config.l1d;
    Cache.direct_mapped ~size:256 ~line:16;
    Cache.set_associative ~size:1024 ~line:32 ~assoc:2;
    Config.ss10_30.Config.l1d ]

let prop_cache_access_reports_way =
  QCheck.Test.make ~count:200 ~name:"access reports the way it left the line in"
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (quad bool (int_bound 7) (int_bound 6) (int_bound 127)))
    (fun trace ->
      List.for_all
        (fun (cfg : Cache.config) ->
          let c = Cache.create cfg in
          let way_bytes = cfg.Cache.size / cfg.Cache.assoc in
          List.for_all
            (fun (write, set, k, off) ->
              let addr = (set * cfg.Cache.line) + (k * way_bytes) + (off mod cfg.Cache.line) in
              let before = Cache.present c ~addr in
              let o = Cache.access c ~addr ~write in
              let store_around = write && (not cfg.Cache.write_allocate) && not before in
              (Cache.way_of o = Cache.way c ~addr
              && (Cache.way_of o = -1) = store_around
              && (o >= 0) = before
              && (o < -1) = not (before || store_around))
              || QCheck.Test.fail_reportf "%s of %d on a %d-byte %d-way cache: way %d, hit %b"
                   (if write then "write" else "read") addr cfg.Cache.size cfg.Cache.assoc
                   (Cache.way_of o) (o >= 0))
            trace)
        way_geometries)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_machines () =
  check "seven machines" 7 (List.length Config.all);
  check "figure 9 set" 4 (List.length Config.figure9);
  List.iter
    (fun (m : Config.t) ->
      checkb (m.Config.name ^ " clock positive") true (m.Config.clock_mhz > 0.0);
      checkb
        (m.Config.name ^ " L2 hit cheaper than memory")
        true
        (Config.l2_hit_cycles m <= Config.mem_cycles m))
    Config.all

let test_config_by_name () =
  checkb "found" true (Config.by_name "ss10-30" <> None);
  checkb "case insensitive" true (Config.by_name "AXP3000/800" <> None);
  checkb "missing" true (Config.by_name "vax" = None)

let test_config_ss10_30_has_no_l2 () =
  checkb "no L2" true (Config.ss10_30.Config.l2 = None);
  List.iter
    (fun (m : Config.t) ->
      if m.Config.name <> "SS10-30" then
        checkb (m.Config.name ^ " has L2") true (m.Config.l2 <> None))
    Config.all

(* ------------------------------------------------------------------ *)
(* Machine *)

let tiny () = Machine.create (Config.custom ())

let test_machine_read_miss_costs () =
  let m = tiny () in
  Machine.read m ~addr:0 ~size:4;
  let after_miss = Machine.cycles m in
  checkb "miss costs cycles" true (after_miss > 0.0);
  Machine.read m ~addr:4 ~size:4;
  checkf "hit costs nothing extra (l1_hit_ns = 0)" after_miss (Machine.cycles m)

let test_machine_straddling_access () =
  let m = tiny () in
  (* Line size 16: an 8-byte read at 12 touches two lines. *)
  Machine.read m ~addr:12 ~size:8;
  check "two level-1 misses" 2 (Stats.misses (Machine.stats m) Stats.Read ~level:1);
  check "one recorded access" 1 (Stats.accesses (Machine.stats m) Stats.Read)

let test_machine_exec_warm () =
  let m = tiny () in
  let code = Code.allocator () in
  let region = Code.alloc code ~len:64 in
  Machine.exec m region;
  let c1 = Machine.cycles m in
  checkb "cold ifetch costs" true (c1 > 0.0);
  Machine.exec m region;
  checkf "warm ifetch free" c1 (Machine.cycles m)

let test_machine_compute_scale () =
  let m = Machine.create (Config.custom ~compute_scale:2.0 ()) in
  Machine.compute m 10;
  checkf "scaled ops" 20.0 (Machine.cycles m)

let test_machine_reset () =
  let m = tiny () in
  Machine.read m ~addr:0 ~size:4;
  Machine.reset_counters m;
  checkf "cycles zeroed" 0.0 (Machine.cycles m);
  check "stats zeroed" 0 (Stats.accesses (Machine.stats m) Stats.Read);
  (* Cache state survives a counter reset. *)
  Machine.read m ~addr:0 ~size:4;
  check "still warm" 0 (Stats.misses (Machine.stats m) Stats.Read ~level:1)

let test_machine_write_through_drain () =
  (* SS10-30's L1D is write-through: every write costs the drain, hit or
     miss. *)
  let m = Machine.create Config.ss10_30 in
  Machine.read m ~addr:0 ~size:4;
  let base = Machine.cycles m in
  Machine.write m ~addr:0 ~size:4 (* hits (line resident) but drains *);
  checkb "write hit still drains" true (Machine.cycles m > base)

let test_machine_store_around_counts_miss () =
  let m = Machine.create Config.ss10_30 in
  Machine.write m ~addr:4096 ~size:1;
  check "1-byte write miss recorded" 1
    (Stats.misses_of_size (Machine.stats m) Stats.Write ~size:1 ~level:1);
  (* The store did not allocate: a second write misses again. *)
  Machine.write m ~addr:4097 ~size:1;
  check "still missing" 2 (Stats.misses (Machine.stats m) Stats.Write ~level:1)

let test_machine_l2_cheaper_than_memory () =
  let with_l2 = Machine.create Config.ss10_41 in
  let without = Machine.create Config.ss10_30 in
  (* Warm the L2 of the first machine, then miss L1 but hit L2. *)
  Machine.read with_l2 ~addr:0 ~size:4;
  Machine.read without ~addr:0 ~size:4;
  (* Evict from L1 by conflict: SuperSPARC L1D is 16 KB 4-way with 32 B
     lines -> 128 sets; five addresses 4096 bytes apart map to one set. *)
  for i = 1 to 8 do
    Machine.read with_l2 ~addr:(i * 4096) ~size:4;
    Machine.read without ~addr:(i * 4096) ~size:4
  done;
  Machine.reset_counters with_l2;
  Machine.reset_counters without;
  Machine.read with_l2 ~addr:0 ~size:4;
  Machine.read without ~addr:0 ~size:4;
  check "both miss L1" (Stats.misses (Machine.stats without) Stats.Read ~level:1)
    (Stats.misses (Machine.stats with_l2) Stats.Read ~level:1);
  if Stats.misses (Machine.stats with_l2) Stats.Read ~level:1 = 1 then
    checkb "L2 hit cheaper than DRAM" true
      (Machine.cycles with_l2 *. Config.ss10_41.Config.clock_mhz
       /. Config.ss10_30.Config.clock_mhz
      < Machine.cycles without +. 0.001)

(* ------------------------------------------------------------------ *)
(* Run charging: [Machine.read_run]/[copy_run] against the per-access
   loops they replace, which stay here as the reference. *)

let reference_read_run m ~addr ~len ~unit ~ops =
  for i = 0 to (len / unit) - 1 do
    Machine.read m ~addr:(addr + (i * unit)) ~size:unit;
    Machine.compute m ops
  done

let reference_copy_run m ~src ~dst ~len ~unit =
  for i = 0 to (len / unit) - 1 do
    Machine.read m ~addr:(src + (i * unit)) ~size:unit;
    Machine.write m ~addr:(dst + (i * unit)) ~size:unit;
    Machine.compute m 1
  done

(* The seven paper machines, the tiny write-back write-allocate custom
   machine, its direct-mapped twin, and a write-back no-write-allocate
   variant with a non-zero hit latency, a fractional compute scale and an
   L2, so that every term of the per-access charge is exercised. *)
let run_machines =
  let tiny_dm = Cache.direct_mapped ~size:256 ~line:16 in
  Config.all
  @ [ Config.custom ();
      Config.custom ~name:"custom-dm" ~l1d:tiny_dm ();
      Config.custom ~name:"custom-wb-nwa"
        ~l1d:
          { (Cache.set_associative ~size:256 ~line:16 ~assoc:2) with
            Cache.write_allocate = false }
        ~l2:(Some (Cache.set_associative ~size:1024 ~line:32 ~assoc:2))
        ~l1_hit_ns:10.0 ~compute_scale:1.3 () ]

type run_case = {
  copy : bool;
  src : int;
  rel : int; (* dst: 0 anywhere, 1 overlapping src, 2 in src's L1 set *)
  dst_raw : int;
  len : int;
  unit : int;
  ops : int;
  warm : (bool * int * int) list; (* write?, address selector, size *)
  follow : (bool * int * int) list;
}

let print_run_case c =
  let trace l =
    String.concat ";"
      (List.map (fun (w, a, z) -> Printf.sprintf "%c%d/%d" (if w then 'w' else 'r') a z) l)
  in
  Printf.sprintf "copy=%b src=%d rel=%d dst_raw=%d len=%d unit=%d ops=%d warm=[%s] follow=[%s]"
    c.copy c.src c.rel c.dst_raw c.len c.unit c.ops (trace c.warm) (trace c.follow)

let gen_run_case =
  let open QCheck.Gen in
  let access = triple bool (int_bound 1_000_000) (oneofl [ 1; 2; 4; 8 ]) in
  map
    (fun ((copy, src, rel, dst_raw), (len, unit, ops), (warm, follow)) ->
      { copy; src; rel; dst_raw; len; unit; ops; warm; follow })
    (triple
       (quad bool (int_range 0 8191) (int_bound 2) (int_bound 1_000_000))
       (triple (int_bound 700) (oneofl [ 1; 2; 4; 8 ]) (int_bound 4))
       (pair (list_size (int_bound 120) access) (list_size (int_range 1 40) access)))

(* Addresses are drawn relative to the machine's geometry: near the
   source or destination, in the same L1 set as either (so runs meet
   conflicts and the follow-up trace tells LRU orders apart), or
   anywhere. *)
let run_addr (cfg : Config.t) c ~dst sel =
  let way_bytes = cfg.Config.l1d.Cache.size / cfg.Config.l1d.Cache.assoc in
  let near base = max 0 (base + (sel / 8 mod 1200) - 200) in
  let conflict base = base + ((1 + (sel / 8 mod 6)) * way_bytes) in
  match sel mod 8 with
  | 0 | 1 -> near c.src
  | 2 | 3 -> near dst
  | 4 -> conflict c.src
  | 5 -> conflict dst
  | 6 -> conflict (c.src + c.len)
  | _ -> 1 lsl 20 + (sel / 8)

let run_dst (cfg : Config.t) c =
  let way_bytes = cfg.Config.l1d.Cache.size / cfg.Config.l1d.Cache.assoc in
  match c.rel with
  | 0 -> c.dst_raw mod (1 lsl 20)
  | 1 -> max 0 (c.src + (c.dst_raw mod 129) - 64)
  | _ -> c.src + ((1 + (c.dst_raw mod 3)) * way_bytes) + (c.dst_raw / 3 mod 5)

let counters_bits m =
  List.map Int64.bits_of_float
    [ Machine.cycles m; Machine.stall_cycles m; Machine.ifetch_stall_cycles m ]

let stats_counts m =
  let s = Machine.stats m in
  List.concat_map
    (fun k ->
      List.concat_map
        (fun size ->
          Stats.accesses_of_size s k ~size
          :: List.map (fun level -> Stats.misses_of_size s k ~size ~level) [ 1; 2 ])
        [ 1; 2; 4; 8 ])
    [ Stats.Read; Stats.Write; Stats.Ifetch ]

let prop_run_matches_per_access =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"read_run/copy_run charge exactly what the per-access loop charges"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun c ->
      List.for_all
        (fun (cfg : Config.t) ->
          let dst = run_dst cfg c in
          let replay m trace =
            List.map
              (fun (w, sel, size) ->
                let addr = run_addr cfg c ~dst sel in
                if w then Machine.write m ~addr ~size else Machine.read m ~addr ~size;
                (counters_bits m, stats_counts m))
              trace
          in
          let run_with f =
            let m = Machine.create cfg in
            ignore (replay m c.warm);
            f m;
            let after = (counters_bits m, stats_counts m) in
            (after, replay m c.follow)
          in
          let expected =
            run_with (fun m ->
                if c.copy then reference_copy_run m ~src:c.src ~dst ~len:c.len ~unit:c.unit
                else reference_read_run m ~addr:c.src ~len:c.len ~unit:c.unit ~ops:c.ops)
          in
          let actual =
            run_with (fun m ->
                if c.copy then Machine.copy_run m ~src:c.src ~dst ~len:c.len ~unit:c.unit
                else Machine.read_run m ~addr:c.src ~len:c.len ~unit:c.unit ~ops:c.ops)
          in
          expected = actual
          || QCheck.Test.fail_reportf "differs on %s (dst %d)" cfg.Config.name dst)
        run_machines)

let test_run_rejects_bad_unit () =
  Alcotest.check_raises "unit 3" (Invalid_argument "Machine: run unit") (fun () ->
      Machine.read_run (tiny ()) ~addr:0 ~len:12 ~unit:3 ~ops:1)

(* ------------------------------------------------------------------ *)
(* Instruction fetch: [Machine.exec]'s memo against the per-line walk.
   The reference executes, each time, a twin of the region that has
   never been fetched (same base and length, from a replayed
   [Code.allocator], so no memo), which [exec] walks line by line. *)

type fetch_op =
  | Exec of bool * int (* on the second machine?, region index *)
  | Access of bool * bool * int * int (* second?, write?, address, size *)
  | Copy of bool * int * int * int * int (* second?, src, dst, len, unit *)
  | Flush of bool
  | Reset of bool
  | Compute of bool * int

type fetch_case = {
  layout : (int * int) list; (* gap before the region, region length *)
  ops : fetch_op list;
  follow : fetch_op list;
}

let print_fetch_case c =
  let m s = if s then 'B' else 'A' in
  let op = function
    | Exec (s, r) -> Printf.sprintf "%c:x%d" (m s) r
    | Access (s, w, a, z) -> Printf.sprintf "%c:%c%d/%d" (m s) (if w then 'w' else 'r') a z
    | Copy (s, src, dst, len, u) -> Printf.sprintf "%c:copy%d>%d/%d/%d" (m s) src dst len u
    | Flush s -> Printf.sprintf "%c:flush" (m s)
    | Reset s -> Printf.sprintf "%c:reset" (m s)
    | Compute (s, ops) -> Printf.sprintf "%c:ops%d" (m s) ops
  in
  let ops l = String.concat ";" (List.map op l) in
  Printf.sprintf "layout=[%s] ops=[%s] follow=[%s]"
    (String.concat ";" (List.map (fun (g, l) -> Printf.sprintf "%d+%d" g l) c.layout))
    (ops c.ops) (ops c.follow)

(* Regions from 0 bytes to more than the largest L1i (20 KB), with gaps;
   data addresses below 32 KiB share second-level sets with the code
   (instruction space starts at 0x4000_0000), so instruction misses and
   data traffic meet in the L2 on the seven machines that have one. *)
let gen_fetch_case =
  let open QCheck.Gen in
  let len =
    frequency
      [ (1, return 0); (6, int_bound 700); (3, int_range 700 5000);
        (1, int_range 5000 24000) ]
  in
  let gap = frequency [ (3, return 0); (1, int_bound 300) ] in
  let second = frequency [ (3, return false); (1, return true) ] in
  let addr = int_bound 32767 in
  let op =
    frequency
      [ (8, map2 (fun s r -> Exec (s, r)) second (int_bound 7));
        ( 3,
          map2
            (fun (s, w) (a, z) -> Access (s, w, a, z))
            (pair second bool)
            (pair addr (oneofl [ 1; 2; 4; 8 ])) );
        ( 1,
          map2
            (fun (s, src, dst) (len, u) -> Copy (s, src, dst, len, u))
            (triple second addr addr)
            (pair (int_bound 600) (oneofl [ 1; 2; 4; 8 ])) );
        (1, map (fun s -> Flush s) second);
        (1, map (fun s -> Reset s) second);
        (1, map2 (fun s ops -> Compute (s, ops)) second (int_bound 100)) ]
  in
  map3
    (fun layout ops follow -> { layout; ops; follow })
    (list_size (int_range 1 6) (pair gap len))
    (list_size (int_bound 60) op)
    (list_size (int_range 1 20) op)

let layout_regions layout =
  let code = Code.allocator () in
  Array.of_list
    (List.map
       (fun (gap, len) ->
         if gap > 0 then ignore (Code.alloc code ~len:gap);
         Code.alloc code ~len)
       layout)

let reference_exec layout m r =
  let twins = layout_regions layout in
  Machine.exec m twins.(r mod Array.length twins)

(* Every op runs on one of two machines of the same config, which
   execute the same region values; after each op both machines' three
   counters (bit for bit) and ledgers are recorded.  The follow-up trace
   fetches through twins in both worlds, so it reads the cache state the
   trace left behind (LRU order included) and nothing else. *)
let fetch_world cfg c ~exec =
  let a = Machine.create cfg and b = Machine.create cfg in
  let apply exec op =
    let on s = if s then b else a in
    match op with
    | Exec (s, r) -> exec (on s) r
    | Access (s, w, addr, size) ->
        if w then Machine.write (on s) ~addr ~size else Machine.read (on s) ~addr ~size
    | Copy (s, src, dst, len, unit) -> Machine.copy_run (on s) ~src ~dst ~len ~unit
    | Flush s -> Machine.flush_caches (on s)
    | Reset s -> Machine.reset_counters (on s)
    | Compute (s, ops) -> Machine.compute (on s) ops
  in
  let observe exec op =
    apply exec op;
    (counters_bits a, stats_counts a, counters_bits b, stats_counts b)
  in
  let trace = List.map (observe exec) c.ops in
  (trace, List.map (observe (reference_exec c.layout)) c.follow)

let prop_exec_matches_per_line =
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"exec charges exactly what the per-line walk charges"
    (QCheck.make ~print:print_fetch_case gen_fetch_case)
    (fun c ->
      List.for_all
        (fun (cfg : Config.t) ->
          let expected = fetch_world cfg c ~exec:(reference_exec c.layout) in
          let actual =
            let regions = layout_regions c.layout in
            fetch_world cfg c ~exec:(fun m r ->
                Machine.exec m regions.(r mod Array.length regions))
          in
          expected = actual || QCheck.Test.fail_reportf "differs on %s" cfg.Config.name)
        run_machines)

(* ------------------------------------------------------------------ *)
(* A reference model of the whole machine, sharing no code with [Cache]'s
   lookup or [Machine]'s charging.  Each cache is an array of per-set
   lists of (line number, dirty), most recently used first: true LRU by
   construction, sets found by division.  Every access is walked line by
   line with the charge DESIGN §5.1 states: an L1 hit costs the hit
   latency; a store-around counts an L1 write miss and, unless the L1 is
   write-through (its stores drain anyway), drains through the write
   buffer; a fill counts an L1 miss and reads the line from the L2 (hit
   latency, or a counted L2 miss and DRAM, plus DRAM again for a dirty
   L2 victim) or from DRAM, and a dirty L1 victim is written back the
   same way, at the filled line's address (a known defect, below).
   Instruction fetches hit for free.  Counters are ints in quarter
   cycles and ops, read as [Machine]'s readers state. *)

module Model = struct
  type cache = { cfg : Cache.config; sets : (int * bool) list array }

  type outcome = Hit | Around | Fill of bool (* the victim was dirty *)

  let cache (cfg : Cache.config) =
    { cfg; sets = Array.make (cfg.Cache.size / (cfg.Cache.line * cfg.Cache.assoc)) [] }

  let access c ~addr ~write =
    let ln = addr / c.cfg.Cache.line in
    let s = ln mod Array.length c.sets in
    let lines = c.sets.(s) in
    let dirtied d = d || (write && c.cfg.Cache.write_policy = Cache.Write_back) in
    match List.assoc_opt ln lines with
    | Some d ->
        c.sets.(s) <- (ln, dirtied d) :: List.remove_assoc ln lines;
        Hit
    | None when write && not c.cfg.Cache.write_allocate -> Around
    | None ->
        let kept, victim_dirty =
          if List.length lines < c.cfg.Cache.assoc then (lines, false)
          else
            match List.rev lines with
            | (_, d) :: older -> (List.rev older, d)
            | [] -> assert false
        in
        c.sets.(s) <- (ln, dirtied false) :: kept;
        Fill victim_dirty

  let flush c = Array.fill c.sets 0 (Array.length c.sets) []

  type t = {
    cfg : Config.t;
    l1d : cache;
    l1i : cache;
    l2 : cache option;
    mutable stall : int;
    mutable ifetch : int;
    mutable ops : int;
    (* [((kind * 4 + size class) * 3) + j]: accesses, L1 misses, L2 misses *)
    ledger : int array;
  }

  let create (cfg : Config.t) =
    { cfg; l1d = cache cfg.Config.l1d; l1i = cache cfg.Config.l1i;
      l2 = Option.map cache cfg.Config.l2; stall = 0; ifetch = 0; ops = 0;
      ledger = Array.make (3 * 4 * 3) 0 }

  let count m kind size j =
    let k = match kind with Stats.Read -> 0 | Stats.Write -> 1 | Stats.Ifetch -> 2 in
    let z = match size with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3 in
    let i = (((k * 4) + z) * 3) + j in
    m.ledger.(i) <- m.ledger.(i) + 1

  let charge m kind quarters =
    m.stall <- m.stall + quarters;
    if kind = Stats.Ifetch then m.ifetch <- m.ifetch + quarters

  let dram m = 4 * Config.mem_cycles m.cfg
  let drain m size = Config.store_buffer_cycles m.cfg * size
  let write_through m = m.cfg.Config.l1d.Cache.write_policy = Cache.Write_through

  (* One line fetched, or written back, below the L1. *)
  let below m kind size ~addr ~write =
    match m.l2 with
    | None -> charge m kind (dram m)
    | Some l2 -> (
        match access l2 ~addr ~write with
        | Hit -> charge m kind (4 * Config.l2_hit_cycles m.cfg)
        | Around | Fill false ->
            count m kind size 2;
            charge m kind (dram m)
        | Fill true ->
            count m kind size 2;
            charge m kind (2 * dram m))

  let data m kind ~addr ~size =
    let write = kind = Stats.Write and line = m.cfg.Config.l1d.Cache.line in
    count m kind size 0;
    if write && write_through m then charge m kind (drain m size);
    for ln = addr / line to (addr + size - 1) / line do
      let a = ln * line in
      match access m.l1d ~addr:a ~write with
      | Hit -> charge m kind (4 * Config.l1_hit_cycles m.cfg)
      | Around ->
          count m kind size 1;
          if not (write_through m) then charge m kind (drain m size)
      | Fill dirty ->
          count m kind size 1;
          below m kind size ~addr:a ~write:false;
          (* A known defect, copied so that the model matches:
             [Machine] writes the victim back at the filled line's
             address, not the victim's (DESIGN §5.1).  The fix changes
             this rule and [Machine] together. *)
          if dirty then below m Stats.Write size ~addr:a ~write:true
    done

  let read_run m ~addr ~len ~unit ~ops =
    for i = 0 to (len / unit) - 1 do
      data m Stats.Read ~addr:(addr + (i * unit)) ~size:unit;
      m.ops <- m.ops + ops
    done

  let copy_run m ~src ~dst ~len ~unit =
    for i = 0 to (len / unit) - 1 do
      data m Stats.Read ~addr:(src + (i * unit)) ~size:unit;
      data m Stats.Write ~addr:(dst + (i * unit)) ~size:unit;
      m.ops <- m.ops + 1
    done

  let exec m ~base ~len =
    let line = m.cfg.Config.l1i.Cache.line in
    if len > 0 then
      for ln = base / line to (base + len - 1) / line do
        count m Stats.Ifetch 4 0;
        match access m.l1i ~addr:(ln * line) ~write:false with
        | Hit -> ()
        | Around | Fill _ ->
            count m Stats.Ifetch 4 1;
            below m Stats.Ifetch 4 ~addr:(ln * line) ~write:false
      done

  let reset m =
    m.stall <- 0;
    m.ifetch <- 0;
    m.ops <- 0;
    Array.fill m.ledger 0 (Array.length m.ledger) 0

  let flush_all m =
    flush m.l1d;
    flush m.l1i;
    Option.iter flush m.l2

  let observe m =
    ( List.map Int64.bits_of_float
        [ (float_of_int m.stall *. 0.25) +. (float_of_int m.ops *. m.cfg.Config.compute_scale);
          float_of_int m.stall *. 0.25;
          float_of_int m.ifetch *. 0.25 ],
      Array.to_list m.ledger )
end

type model_op =
  | M_read of int * int (* address selector, size *)
  | M_write of int * int
  | M_read_run of int * int * int * int (* address selector, len, unit, ops *)
  | M_copy_run of int * int * int * int (* source, destination selectors, len, unit *)
  | M_exec of int (* region index *)
  | M_flush
  | M_reset

let print_model_op = function
  | M_read (a, z) -> Printf.sprintf "r%d/%d" a z
  | M_write (a, z) -> Printf.sprintf "w%d/%d" a z
  | M_read_run (a, len, u, ops) -> Printf.sprintf "rrun%d/%d/%d/%d" a len u ops
  | M_copy_run (s, d, len, u) -> Printf.sprintf "copy%d>%d/%d/%d" s d len u
  | M_exec r -> Printf.sprintf "x%d" r
  | M_flush -> "flush"
  | M_reset -> "reset"

let print_model_case (layout, ops) =
  Printf.sprintf "layout=[%s] ops=[%s]"
    (String.concat ";" (List.map string_of_int layout))
    (String.concat ";" (List.map print_model_op ops))

(* An address selector picks one of four clusters of lines, a conflict
   multiple (same L1 set, another tag; with the top bits, same L2 set
   too) and an offset that may reach into the next line, so single
   accesses keep revisiting, straddling and evicting a few lines. *)
let gen_model_case =
  let open QCheck.Gen in
  let sel = int_bound 0xffff in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let op =
    frequency
      [ (6, map2 (fun a z -> M_read (a, z)) sel size);
        (6, map2 (fun a z -> M_write (a, z)) sel size);
        ( 1,
          map2 (fun (a, len) (u, ops) -> M_read_run (a, len, u, ops))
            (pair sel (int_bound 300)) (pair size (int_bound 4)) );
        ( 1,
          map2 (fun (s, d) (len, u) -> M_copy_run (s, d, len, u))
            (pair sel sel) (pair (int_bound 300) size) );
        (2, map (fun r -> M_exec r) (int_bound 3));
        (1, return M_flush);
        (1, return M_reset) ]
  in
  pair
    (list_size (int_range 1 4)
       (frequency [ (6, int_bound 3000); (1, int_range 8000 24000) ]))
    (list_size (int_range 1 80) op)

let model_addr (cfg : Config.t) sel =
  let l1 = cfg.Config.l1d in
  let l1_way = l1.Cache.size / l1.Cache.assoc in
  let far =
    match cfg.Config.l2 with
    | Some l2 -> l2.Cache.size / l2.Cache.assoc
    | None -> 7 * l1_way
  in
  let cluster = sel land 3 and k = (sel lsr 2) land 7 and top = (sel lsr 5) land 3 in
  let off = (sel lsr 7) mod (l1.Cache.line + 8) in
  4096 + (cluster * 3 * l1.Cache.line) + (k mod (l1.Cache.assoc + 2) * l1_way)
  + (top mod 3 * far) + off

let prop_machine_matches_model =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"Machine charges what the reference model charges"
    (QCheck.make ~print:print_model_case gen_model_case)
    (fun (layout, ops) ->
      List.for_all
        (fun (cfg : Config.t) ->
          let m = Machine.create cfg and r = Model.create cfg in
          let code = Code.allocator () in
          let regions = Array.of_list (List.map (fun len -> Code.alloc code ~len) layout) in
          let region i = regions.(i mod Array.length regions) in
          let addr = model_addr cfg in
          let step i op =
            (match op with
            | M_read (a, size) ->
                Machine.read m ~addr:(addr a) ~size;
                Model.data r Stats.Read ~addr:(addr a) ~size
            | M_write (a, size) ->
                Machine.write m ~addr:(addr a) ~size;
                Model.data r Stats.Write ~addr:(addr a) ~size
            | M_read_run (a, len, unit, ops) ->
                Machine.read_run m ~addr:(addr a) ~len ~unit ~ops;
                Model.read_run r ~addr:(addr a) ~len ~unit ~ops
            | M_copy_run (s, d, len, unit) ->
                Machine.copy_run m ~src:(addr s) ~dst:(addr d) ~len ~unit;
                Model.copy_run r ~src:(addr s) ~dst:(addr d) ~len ~unit
            | M_exec x ->
                let reg = region x in
                Machine.exec m reg;
                Model.exec r ~base:reg.Code.base ~len:reg.Code.len
            | M_flush ->
                Machine.flush_caches m;
                Model.flush_all r
            | M_reset ->
                Machine.reset_counters m;
                Model.reset r);
            (counters_bits m, stats_counts m) = Model.observe r
            || QCheck.Test.fail_reportf "%s: op %d (%s) differs from the model"
                 cfg.Config.name i (print_model_op op)
          in
          List.for_all Fun.id (List.mapi step ops))
        run_machines)

(* After a region's first walk, neither path of [exec] allocates, nor
   does a run.  On the AXP's 8 KB direct-mapped L1i, [r1] and [r2] (8 KB
   apart) evict each other, so alternating them walks every time.  A
   counter reader returns one boxed float, no more: a reader that went
   through another one would box twice. *)
let test_exec_run_allocate_nothing () =
  let m = Machine.create Config.axp3000_800 in
  let code = Code.allocator () in
  let r1 = Code.alloc code ~len:1024 in
  ignore (Code.alloc code ~len:(8192 - 1024));
  let r2 = Code.alloc code ~len:1024 in
  let mem = Mem.create m ~size:8192 in
  let per_call n f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do f () done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let n = 1000 in
  let at_most limit (what, f) =
    let words = per_call n f in
    checkb (Printf.sprintf "%s allocates (%.4f words/call)" what words) true
      (words <= limit +. 0.01)
  in
  List.iter (at_most 0.0)
    [ ("memoised exec", fun () -> Machine.exec m r1);
      ("walking exec", fun () -> Machine.exec m r1; Machine.exec m r2);
      ( "copy_run, src and dst at one line offset",
        fun () -> Machine.copy_run m ~src:0 ~dst:5120 ~len:256 ~unit:4 );
      ( "copy_run, src and dst at different line offsets",
        fun () -> Machine.copy_run m ~src:8 ~dst:6020 ~len:256 ~unit:4 );
      ("read_run", fun () -> Machine.read_run m ~addr:3 ~len:256 ~unit:2 ~ops:3);
      (* The TCP header path: one charged access per field. *)
      ( "single read and write (Mem.get_u32, Mem.set_u16)",
        fun () ->
          ignore (Sys.opaque_identity (Mem.get_u32 mem 4100));
          Mem.set_u16 mem 6022 0xbeef ) ];
  (* A boxed float: a header and the 8-byte payload. *)
  List.iter (at_most 2.0)
    [ ("micros", fun () -> ignore (Sys.opaque_identity (Machine.micros m)));
      ("cycles", fun () -> ignore (Sys.opaque_identity (Machine.cycles m))) ]

(* ------------------------------------------------------------------ *)
(* Mem *)

let test_mem_roundtrips () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.set_u8 mem 100 0xAB;
  check "u8" 0xAB (Mem.get_u8 mem 100);
  Mem.set_u16 mem 102 0xBEEF;
  check "u16" 0xBEEF (Mem.get_u16 mem 102);
  Mem.set_u32 mem 104 0xDEADBEEF;
  check "u32" 0xDEADBEEF (Mem.get_u32 mem 104);
  Mem.set_u64 mem 112 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Mem.get_u64 mem 112)

let test_mem_big_endian () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.set_u32 mem 200 0x01020304;
  check "network byte order" 0x01 (Mem.peek_u8 mem 200);
  check "lsb last" 0x04 (Mem.peek_u8 mem 203)

let test_mem_peek_poke_uncharged () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_u32 mem 300 42;
  ignore (Mem.peek_u32 mem 300);
  Mem.poke_string mem ~pos:308 "hello";
  ignore (Mem.peek_bytes mem ~pos:308 ~len:5);
  checkf "no cycles" 0.0 (Machine.cycles sim.Sim.machine);
  check "no accesses" 0 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read)

let test_mem_blit () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_string mem ~pos:400 "abcdefghij";
  Mem.blit mem ~src:400 ~dst:500 ~len:10 ~unit_len:4;
  Alcotest.(check string)
    "copied" "abcdefghij"
    (Bytes.to_string (Mem.peek_bytes mem ~pos:500 ~len:10));
  (* 2 word accesses + 2 byte accesses on each side. *)
  check "reads" 4 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Read);
  check "writes" 4 (Stats.accesses (Machine.stats sim.Sim.machine) Stats.Write)

let test_mem_blit_overlap_forward () =
  let sim = Sim.create (Config.custom ()) in
  let mem = sim.Sim.mem in
  Mem.poke_string mem ~pos:600 "abcdefgh";
  (* Non-overlapping ranges copy exactly; overlapping d<s forward is fine. *)
  Mem.blit mem ~src:604 ~dst:600 ~len:4 ~unit_len:1;
  Alcotest.(check string)
    "shifted" "efgh"
    (Bytes.to_string (Mem.peek_bytes mem ~pos:600 ~len:4))

let prop_mem_u32_roundtrip =
  QCheck.Test.make ~count:200 ~name:"u32 set/get round trip"
    QCheck.(pair (int_bound 0xffffffff) (int_bound 1000))
    (fun (v, addr) ->
      let sim = Sim.create (Config.custom ()) in
      Mem.set_u32 sim.Sim.mem (addr * 4) v;
      Mem.get_u32 sim.Sim.mem (addr * 4) = v)

(* ------------------------------------------------------------------ *)
(* Code *)

let test_code_image () =
  let disjoint (r : Code.region) (s : Code.region) =
    r.base + r.len <= s.base || s.base + s.len <= r.base
  in
  let a = Code.allocator () in
  let engine = Code.alloc a ~len:100 in
  let ctrl = Code.image a ~name:"ctrl" ~len:2048 in
  (* The first request places the image where [alloc] would have. *)
  let replay = Code.allocator () in
  ignore (Code.alloc replay ~len:100);
  let twin = Code.alloc replay ~len:2048 in
  check "first image at the replayed alloc's base" twin.base ctrl.base;
  check "with its length" 2048 ctrl.len;
  checkb "same name, physically the same region" true
    (Code.image a ~name:"ctrl" ~len:2048 == ctrl);
  let kernel = Code.image a ~name:"kernel" ~len:3072 in
  checkb "another name, another region" true (kernel != ctrl);
  check "64-byte aligned" 0 (kernel.base mod 64);
  checkb "disjoint from the others" true (disjoint kernel ctrl && disjoint kernel engine);
  ignore (Code.image a ~name:"kernel" ~len:3072);
  check "a repeated request allocates nothing" (twin.base + 2048 + 3072)
    (Code.alloc a ~len:64).base;
  (match Code.image a ~name:"ctrl" ~len:1024 with
  | _ -> Alcotest.fail "expected Invalid_argument for a second length"
  | exception Invalid_argument _ -> ());
  let b = Code.allocator () in
  let ctrl_b = Code.image b ~name:"ctrl" ~len:2048 in
  checkb "two allocators never share a region" true
    (ctrl_b != ctrl && ctrl_b.memo != ctrl.memo)

(* ------------------------------------------------------------------ *)
(* Alloc *)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1 ~limit:1024 in
  let p1 = Alloc.alloc a ~align:8 10 in
  check "aligned to 8" 0 (p1 mod 8);
  let p2 = Alloc.alloc a ~align:64 1 in
  check "aligned to 64" 0 (p2 mod 64);
  checkb "monotone" true (p2 > p1)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~limit:64 in
  ignore (Alloc.alloc a 60);
  checkb "remaining small" true (Alloc.remaining a <= 4);
  (match Alloc.alloc a 100 with
  | _ -> Alcotest.fail "expected exhaustion"
  | exception Failure _ -> ());
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Alloc.alloc: alignment must be a power of two") (fun () ->
      ignore (Alloc.alloc a ~align:3 1))

let test_sim_cold_start () =
  let sim = Sim.create (Config.custom ()) in
  ignore (Mem.get_u32 sim.Sim.mem 64);
  Sim.cold_start sim;
  checkf "counters cleared" 0.0 (Machine.cycles sim.Sim.machine);
  ignore (Mem.get_u32 sim.Sim.mem 64);
  check "cache flushed too" 1
    (Stats.misses (Machine.stats sim.Sim.machine) Stats.Read ~level:1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [ ( "stats",
        [ Alcotest.test_case "counting" `Quick test_stats_counting;
          Alcotest.test_case "misses" `Quick test_stats_misses;
          Alcotest.test_case "empty ratios" `Quick test_stats_ratio_empty;
          Alcotest.test_case "invalid size" `Quick test_stats_invalid_size;
          Alcotest.test_case "accumulate/diff" `Quick test_stats_accumulate_diff;
          Alcotest.test_case "scale/reset" `Quick test_stats_scale_reset ] );
      ( "cache",
        [ Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "LRU replacement" `Quick test_cache_lru;
          Alcotest.test_case "dirty writeback" `Quick
            test_cache_writeback_on_dirty_eviction;
          Alcotest.test_case "store-around" `Quick test_cache_store_around;
          Alcotest.test_case "write-through never dirty" `Quick
            test_cache_write_through_never_dirty;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          qc prop_cache_capacity;
          qc prop_cache_present_after_read;
          qc prop_cache_access_reports_way ] );
      ( "config",
        [ Alcotest.test_case "machines" `Quick test_config_machines;
          Alcotest.test_case "by_name" `Quick test_config_by_name;
          Alcotest.test_case "SS10-30 lacks L2" `Quick test_config_ss10_30_has_no_l2 ] );
      ( "machine",
        [ Alcotest.test_case "read miss costs" `Quick test_machine_read_miss_costs;
          Alcotest.test_case "straddling access" `Quick test_machine_straddling_access;
          Alcotest.test_case "warm ifetch" `Quick test_machine_exec_warm;
          Alcotest.test_case "compute scale" `Quick test_machine_compute_scale;
          Alcotest.test_case "reset keeps caches" `Quick test_machine_reset;
          Alcotest.test_case "write-through drain" `Quick
            test_machine_write_through_drain;
          Alcotest.test_case "store-around miss count" `Quick
            test_machine_store_around_counts_miss;
          Alcotest.test_case "L2 cheaper than memory" `Quick
            test_machine_l2_cheaper_than_memory;
          Alcotest.test_case "run rejects a bad unit" `Quick test_run_rejects_bad_unit;
          qc prop_run_matches_per_access;
          Alcotest.test_case "exec and runs allocate nothing" `Quick
            test_exec_run_allocate_nothing;
          qc prop_exec_matches_per_line;
          qc prop_machine_matches_model ] );
      ( "mem",
        [ Alcotest.test_case "round trips" `Quick test_mem_roundtrips;
          Alcotest.test_case "big endian" `Quick test_mem_big_endian;
          Alcotest.test_case "peek/poke uncharged" `Quick test_mem_peek_poke_uncharged;
          Alcotest.test_case "blit" `Quick test_mem_blit;
          Alcotest.test_case "blit overlap" `Quick test_mem_blit_overlap_forward;
          qc prop_mem_u32_roundtrip ] );
      ( "code", [ Alcotest.test_case "image" `Quick test_code_image ] );
      ( "alloc",
        [ Alcotest.test_case "alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "sim cold start" `Quick test_sim_cold_start ] ) ]
