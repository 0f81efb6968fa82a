type t = {
  machine : Machine.t;
  mem : Mem.t;
  alloc : Alloc.t;
  code : Code.allocator;
}

let create ?(mem_size = 4 * 1024 * 1024) config =
  let machine = Machine.create config in
  let mem = Mem.create machine ~size:mem_size in
  (* Skip page 0 so that address 0 can serve as a poison value. *)
  let alloc = Alloc.create ~base:4096 ~limit:mem_size in
  { machine; mem; alloc; code = Code.allocator () }

let cold_start t =
  Machine.reset_counters t.machine;
  Machine.flush_caches t.machine
