(* The estimate's floats live in a float-only record, which OCaml stores
   flat: folding a sample or reading the timeout boxes nothing on the
   way (a float field of a mixed record, or a [float option], is a box
   per update). *)
type est = {
  initial_us : float;
  min_us : float;
  max_us : float;
  mutable srtt : float;  (* meaningful once [sampled] *)
  mutable rttvar : float;
}

type t = {
  e : est;
  mutable sampled : bool;
  mutable shift : int;  (* backoff exponent *)
}

let create ?(initial_us = 500_000.0) ?(min_us = 10_000.0) ?(max_us = 64_000_000.0) () =
  { e = { initial_us; min_us; max_us; srtt = 0.0; rttvar = 0.0 };
    sampled = false;
    shift = 0 }

let sample t ~sent_at ~now =
  let e = t.e in
  let rtt = now -. sent_at in
  if not t.sampled then begin
    t.sampled <- true;
    e.srtt <- rtt;
    e.rttvar <- rtt /. 2.0
  end
  else begin
    let err = rtt -. e.srtt in
    e.rttvar <- e.rttvar +. ((Float.abs err -. e.rttvar) /. 4.0);
    e.srtt <- e.srtt +. (err /. 8.0)
  end;
  t.shift <- 0

let timeout_us t =
  let e = t.e in
  let base = if t.sampled then e.srtt +. (4.0 *. e.rttvar) else e.initial_us in
  let v = base *. float_of_int (1 lsl t.shift) in
  Float.min e.max_us (Float.max e.min_us v)

let backoff t = if t.shift < 12 then t.shift <- t.shift + 1
let reset_backoff t = t.shift <- 0
let srtt_us t = if t.sampled then Some t.e.srtt else None
