type t = {
  name : string;
  clock_mhz : float;
  l1d : Cache.config;
  l1i : Cache.config;
  l2 : Cache.config option;
  l1_hit_ns : float;
  l2_hit_ns : float;
  mem_ns : float;
  store_buffer_ns : float;
  compute_scale : float;
}

(* SuperSPARC: 16 KB 4-way write-through data cache with 32-byte lines,
   20 KB 5-way instruction cache with 64-byte lines.  The data cache does
   NOT allocate on write misses (store-around through the write buffer);
   this is what makes the paper's section 2.2 observation true — writing a
   packet 1-byte-wise into a non-resident area costs one write miss per
   byte, m-byte-wise only one per access. *)
let supersparc_l1d : Cache.config =
  { size = 16 * 1024; line = 32; assoc = 4;
    write_policy = Write_through; write_allocate = false }

let supersparc_l1i : Cache.config =
  { size = 20 * 1024; line = 64; assoc = 5;
    write_policy = Write_back; write_allocate = true }

(* Alpha 21064: 8 KB direct-mapped write-through data and instruction
   caches, 32-byte lines.  The direct mapping is what makes the fused ILP
   loop's code footprint conflict, reproducing the paper's observation that
   instruction cache misses eat 24-28% of memory system time on the AXPs. *)
let alpha_l1d : Cache.config =
  { size = 8 * 1024; line = 32; assoc = 1;
    write_policy = Write_through; write_allocate = false }

let alpha_l1i : Cache.config =
  { size = 8 * 1024; line = 32; assoc = 1;
    write_policy = Write_back; write_allocate = true }

let sparc_l2 : Cache.config =
  { size = 1024 * 1024; line = 128; assoc = 1;
    write_policy = Write_back; write_allocate = true }

let alpha_l2 : Cache.config =
  { size = 512 * 1024; line = 32; assoc = 1;
    write_policy = Write_back; write_allocate = true }

let sparc ~name ~clock_mhz ~l2 =
  { name;
    clock_mhz;
    l1d = supersparc_l1d;
    l1i = supersparc_l1i;
    l2;
    l1_hit_ns = 0.0 (* pipelined; charged via compute *);
    l2_hit_ns = 150.0;
    mem_ns = 420.0;
    store_buffer_ns = 40.0;
    compute_scale = 1.0 }

let alpha ~name ~clock_mhz =
  { name;
    clock_mhz;
    l1d = alpha_l1d;
    l1i = alpha_l1i;
    l2 = Some alpha_l2;
    l1_hit_ns = 0.0;
    l2_hit_ns = 125.0;
    mem_ns = 420.0;
    store_buffer_ns = 40.0;
    (* The 21064 has no byte load/store instructions: every byte access
       compiles to a load-quad / extract / insert / store-quad sequence,
       so the byte-oriented manipulations of this stack cost several
       Alpha operations per abstract op; OSF/1's heavier in-process
       protocol path (the paper: "the operating system on DEC Alpha
       workstations causes a very high overhead") adds to the same
       per-op figure.  2.4 reproduces the paper's Table 1 magnitudes. *)
    compute_scale = 2.4 }

let ss10_30 = sparc ~name:"SS10-30" ~clock_mhz:36.0 ~l2:None
let ss10_41 = sparc ~name:"SS10-41" ~clock_mhz:40.0 ~l2:(Some sparc_l2)
let ss10_51 = sparc ~name:"SS10-51" ~clock_mhz:50.0 ~l2:(Some sparc_l2)
let ss20_60 = sparc ~name:"SS20-60" ~clock_mhz:60.0 ~l2:(Some sparc_l2)
let axp3000_500 = alpha ~name:"AXP3000/500" ~clock_mhz:150.0
let axp3000_600 = alpha ~name:"AXP3000/600" ~clock_mhz:175.0
let axp3000_800 = alpha ~name:"AXP3000/800" ~clock_mhz:200.0

let all =
  [ ss10_30; ss10_41; ss10_51; ss20_60; axp3000_500; axp3000_600; axp3000_800 ]

let figure9 = [ ss10_30; ss10_41; ss20_60; axp3000_800 ]

let by_name name =
  List.find_opt (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name) all

let tiny_l1d : Cache.config =
  { size = 256; line = 16; assoc = 2;
    write_policy = Write_back; write_allocate = true }

let tiny_l1i : Cache.config =
  { size = 256; line = 16; assoc = 1;
    write_policy = Write_back; write_allocate = true }

let custom ?(name = "custom") ?(clock_mhz = 100.0) ?(l1d = tiny_l1d)
    ?(l1i = tiny_l1i) ?(l2 = None) ?(l1_hit_ns = 0.0) ?(l2_hit_ns = 50.0)
    ?(mem_ns = 200.0) ?(store_buffer_ns = 50.0) ?(compute_scale = 1.0) () =
  { name; clock_mhz; l1d; l1i; l2; l1_hit_ns; l2_hit_ns; mem_ns; store_buffer_ns;
    compute_scale }

let ns_to_cycles t ns =
  if ns <= 0.0 then 0
  else Int.max 1 (int_of_float (Float.round (ns *. t.clock_mhz /. 1000.0)))

let l1_hit_cycles t = ns_to_cycles t t.l1_hit_ns
let store_buffer_cycles t = ns_to_cycles t t.store_buffer_ns
let l2_hit_cycles t = ns_to_cycles t t.l2_hit_ns
let mem_cycles t = ns_to_cycles t t.mem_ns
