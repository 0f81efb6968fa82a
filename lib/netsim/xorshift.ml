type t = int ref

let create state = ref (state lor 1)

let next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  st := if x = 0 then 1 else x;
  !st

let float st = float_of_int (next st land 0xffffff) /. 16777216.0
let int st bound = next st mod bound
