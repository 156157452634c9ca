(* Percentile selection for client-observed latencies.

   A tail percentile is only reported when the sample supports it: at
   least [min_beyond] samples must lie strictly above its nearest-rank
   position, otherwise "p99" would be the maximum of a handful of
   samples and move with every stall. *)

let ladder = [| 0.5; 0.9; 0.99; 0.999; 0.9999 |]
let min_beyond = 10

(* 1-based nearest rank, ceil (q * n).  The epsilon keeps 0.99 * 1000
   (= 990.0000000000001 in binary floating point) at rank 990. *)
let rank ~n q =
  if n < 1 then invalid_arg "Quantile.rank: empty sample";
  if q < 0. || q > 1. then invalid_arg "Quantile.rank: q outside [0, 1]";
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  Stdlib.max 1 (Stdlib.min n r)

let beyond ~n q = n - rank ~n q

let highest_supported ~n =
  Array.fold_left
    (fun best q ->
      if n >= 1 && beyond ~n q >= min_beyond then Some q else best)
    None ladder

let nearest_rank sorted q = sorted.(rank ~n:(Array.length sorted) q - 1)
