type t = {
  total : int;
  body_len : int;
  alignment : int;
  alpha : int;
  beta : int;
  gamma : int;
}

(* The encryption header: the 4-byte length field. *)
let enc_header_len = 4

let plan ~block_len ~body_len =
  if body_len < 0 then invalid_arg "Parts.plan: negative body length";
  if block_len <= enc_header_len || block_len mod 4 <> 0 then
    invalid_arg
      "Parts.plan: block length must be a multiple of 4 longer than the \
       encryption header";
  let marshalled = enc_header_len + body_len in
  let total = Units.aligned (Int.max marshalled block_len) ~unit_len:block_len in
  { total;
    body_len;
    alignment = total - marshalled;
    alpha = enc_header_len;
    beta = block_len;
    gamma = Int.max block_len (total - block_len) }

let length_field t = enc_header_len + t.body_len
let part_a t = (0, t.beta)
let part_b t = (t.beta, Int.max 0 (t.gamma - t.beta))
let part_c t = (t.gamma, t.total - t.gamma)

let in_processing_order t =
  [ ("B", part_b t); ("C", part_c t); ("A", part_a t) ]
