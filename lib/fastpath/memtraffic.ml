(* Per-layer byte counters for the host data path: one block of plain
   int slots bumped from the hot loops, so the ledger itself adds no
   allocation and no indirection — the same spirit as the paper's
   atom/cachesim counts, but for the un-simulated (native) lane and the
   engine's host-side buffer management. *)

type layer = Marshal | Cipher | Checksum | Tcp | Rpc | Pool

let n_layers = 6

let layer_index = function
  | Marshal -> 0
  | Cipher -> 1
  | Checksum -> 2
  | Tcp -> 3
  | Rpc -> 4
  | Pool -> 5

let layer_name = function
  | Marshal -> "marshal"
  | Cipher -> "cipher"
  | Checksum -> "checksum"
  | Tcp -> "tcp"
  | Rpc -> "rpc"
  | Pool -> "pool"

let layers = [ Marshal; Cipher; Checksum; Tcp; Rpc; Pool ]

module M = Ilp_obs.Metrics

(* Five kinds of charge per layer; slot [kind * n_layers + layer].  The
   block holds those 30 direction-blind totals, then the same 30 again
   for the receive-side share (from [rx_base]), charged by the [*_rx]
   entry points the rx code paths call.  The send share is the
   difference.  The block is the registry's [mem.*] family, so
   [Metrics.snapshot] reads the very slots [snapshot] copies. *)
let k_read = 0
let k_write = 1
let k_copy = 2
let k_alloc = 3
let k_blocks = 4
let rx_base = 5 * n_layers

let ledger =
  let names prefix =
    List.concat_map
      (fun kind -> List.map (fun l -> prefix ^ layer_name l ^ "." ^ kind) layers)
      [ "read_bytes"; "written_bytes"; "copied_bytes"; "allocated_bytes";
        "alloc_blocks" ]
  in
  M.block (M.family M.default (Array.of_list (names "mem." @ names "mem.rx.")))

(* Charge the totals, and the receive share too when [rx]. *)
let charge ~rx kind l n =
  let i = (kind * n_layers) + layer_index l in
  ledger.(i) <- ledger.(i) + n;
  if rx then ledger.(rx_base + i) <- ledger.(rx_base + i) + n

let copy_charge ~rx l n =
  charge ~rx k_read l n;
  charge ~rx k_write l n;
  charge ~rx k_copy l n

let inplace_charge ~rx l n =
  charge ~rx k_read l n;
  charge ~rx k_write l n

let alloc_charge ~rx l n =
  charge ~rx k_alloc l n;
  charge ~rx k_blocks l 1

let read l n = charge ~rx:false k_read l n
let copied l n = copy_charge ~rx:false l n
let inplace l n = inplace_charge ~rx:false l n
let alloc l n = alloc_charge ~rx:false l n
let read_rx l n = charge ~rx:true k_read l n
let copied_rx l n = copy_charge ~rx:true l n
let inplace_rx l n = inplace_charge ~rx:true l n
let alloc_rx l n = alloc_charge ~rx:true l n

type snapshot = int array

let snapshot () = Array.copy ledger
let diff later earlier = Array.map2 ( - ) later earlier

let total ?(base = 0) kind s =
  Array.fold_left ( + ) 0 (Array.sub s (base + (kind * n_layers)) n_layers)

let reads_total s = total k_read s
let copied_total s = total k_copy s
let allocated_total s = total k_alloc s
let alloc_blocks_total s = total k_blocks s
let copied_rx_total s = total ~base:rx_base k_copy s
let allocated_rx_total s = total ~base:rx_base k_alloc s
let copied_tx_total s = copied_total s - copied_rx_total s
let allocated_tx_total s = allocated_total s - allocated_rx_total s

let layer_at ~base s l =
  let at kind = s.(base + (kind * n_layers) + layer_index l) in
  (at k_read, at k_write, at k_copy, at k_alloc)

let of_layer s l = layer_at ~base:0 s l
let of_layer_rx s l = layer_at ~base:rx_base s l
