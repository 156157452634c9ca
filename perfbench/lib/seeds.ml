(* Every seed the benchmark hands out derives from the one workload seed
   argument: per-session seeds, and from those the per-tenant trace
   seeds and the [Open_stream] engine seeds.  Each purpose draws from its
   own stream split off the workload seed's generator; index [i] of a
   purpose is the stream's [i]-th draw.  Draws are kept in [0, 2^30) so
   they fit RBGT headers and RBGN varints on any platform. *)

module Rng = Rbgp_util.Rng

let derive ~seed ~purpose index =
  let root = Rng.create seed in
  let r = (Array.init 3 (fun _ -> Rng.split root)).(purpose) in
  for _ = 1 to index do
    ignore (Rng.int r (1 lsl 30))
  done;
  Rng.int r (1 lsl 30)

let trace_seed ~seed tenant = derive ~seed ~purpose:0 tenant
let open_seed ~seed tenant = derive ~seed ~purpose:1 tenant
let session_seed ~seed k = derive ~seed ~purpose:2 k
