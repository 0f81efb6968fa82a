type t = { machine : Machine.t; data : Bytes.t }

let create machine ~size = { machine; data = Bytes.make size '\000' }

let machine t = t.machine
let size t = Bytes.length t.data

let get_u8 t addr =
  Machine.read t.machine ~addr ~size:1;
  Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  Machine.write t.machine ~addr ~size:1;
  Bytes.set t.data addr (Char.chr (v land 0xff))

let get_u16 t addr =
  Machine.read t.machine ~addr ~size:2;
  Bytes.get_uint16_be t.data addr

let set_u16 t addr v =
  Machine.write t.machine ~addr ~size:2;
  Bytes.set_uint16_be t.data addr (v land 0xffff)

let get_u32 t addr =
  Machine.read t.machine ~addr ~size:4;
  Int32.to_int (Bytes.get_int32_be t.data addr) land 0xffffffff

let set_u32 t addr v =
  Machine.write t.machine ~addr ~size:4;
  Bytes.set_int32_be t.data addr (Int32.of_int (v land 0xffffffff))

let get_u64 t addr =
  Machine.read t.machine ~addr ~size:8;
  Bytes.get_int64_be t.data addr

let set_u64 t addr v =
  Machine.write t.machine ~addr ~size:8;
  Bytes.set_int64_be t.data addr v

let blit t ~src ~dst ~len ~unit_len =
  (match unit_len with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg "Mem.blit: unit_len");
  let whole = len / unit_len * unit_len in
  Machine.copy_run t.machine ~src ~dst ~len:whole ~unit:unit_len;
  if whole < len then
    Machine.copy_run t.machine ~src:(src + whole) ~dst:(dst + whole)
      ~len:(len - whole) ~unit:1;
  Bytes.blit t.data src t.data dst len

let peek_u8 t addr = Char.code (Bytes.get t.data addr)
let poke_u8 t addr v = Bytes.set t.data addr (Char.chr (v land 0xff))

let peek_u32 t addr =
  Int32.to_int (Bytes.get_int32_be t.data addr) land 0xffffffff

let poke_u32 t addr v = Bytes.set_int32_be t.data addr (Int32.of_int (v land 0xffffffff))
let peek_bytes t ~pos ~len = Bytes.sub t.data pos len
let raw t = t.data
let poke_bytes t ~pos b = Bytes.blit b 0 t.data pos (Bytes.length b)
let poke_string t ~pos s = Bytes.blit_string s 0 t.data pos (String.length s)
