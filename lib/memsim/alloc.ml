type t = { mutable next : int; limit : int }

let create ~base ~limit =
  if base < 0 || limit < base then invalid_arg "Alloc.create";
  { next = base; limit }

let alloc t ?(align = 8) n =
  if n < 0 then invalid_arg "Alloc.alloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.alloc: alignment must be a power of two";
  let addr = (t.next + align - 1) land lnot (align - 1) in
  if addr + n > t.limit then
    failwith
      (Printf.sprintf "Alloc.alloc: out of simulated memory (want %d, have %d)" n
         (t.limit - addr));
  t.next <- addr + n;
  addr

let remaining t = t.limit - t.next
