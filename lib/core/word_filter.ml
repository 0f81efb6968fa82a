type t = {
  out_len : int;
  emit : Bytes.t -> int -> unit;
  buf : Bytes.t;
  mutable fill : int;
  mutable emitted : int;
}

let create ~out_len ~emit =
  if out_len <= 0 then invalid_arg "Word_filter.create: out_len";
  { out_len; emit; buf = Bytes.create out_len; fill = 0; emitted = 0 }

let push t b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Word_filter.push";
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    let take = Int.min (t.out_len - t.fill) (stop - !pos) in
    Bytes.blit b !pos t.buf t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    if t.fill = t.out_len then begin
      t.emit t.buf 0;
      t.emitted <- t.emitted + t.out_len;
      t.fill <- 0
    end
  done

let push_string t s = push t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
let pending t = t.fill

let flush t ~pad =
  if t.fill = 0 then 0
  else begin
    let added = t.out_len - t.fill in
    Bytes.fill t.buf t.fill added pad;
    t.emit t.buf 0;
    t.emitted <- t.emitted + t.out_len;
    t.fill <- 0;
    added
  end

let emitted t = t.emitted
