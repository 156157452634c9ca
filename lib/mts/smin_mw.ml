module Dist = Rbgp_util.Dist
module Rng = Rbgp_util.Rng
module Smin = Rbgp_util.Smin

let default_scale metric = Float.max 1.0 (float_of_int (Metric.diameter metric))

(* Rebase threshold on the sum tree's root.  Weights only shrink (costs
   only grow), so the root drifts towards underflow; once it falls below
   this guard the tree is rebuilt around the current minimum, which puts
   the root back in [1, s].  Far from the denormal range, so every leaf
   that carries non-negligible probability keeps full precision. *)
let underflow_guard = 1e-100

(* The indicator-step state: cumulative costs [x] and an array-backed sum
   tree over the softmax weights w_i = exp(base - x_i / c).  Leaf i sits
   at node [cap + i] (cap = s rounded up to a power of two; padding
   leaves hold 0), node j holds w.(2j) + w.(2j+1), the root is node 1.
   [tree_fresh] records which representation matches [x]: the tree after
   an indicator step, the dense distribution buffer after a general
   vector. *)
type tree = {
  x : float array;
  c : float;
  cap : int;
  w : float array;
  mutable base : float;
  mutable tree_fresh : bool;
}

let next_pow2 s =
  let rec go p = if p >= s then p else go (2 * p) in
  go 1

(* recompute the ancestors of node j from their children: sums are never
   updated by deltas, so no rounding error accumulates across steps *)
let refresh_path w j =
  let j = ref (j / 2) in
  while !j >= 1 do
    w.(!j) <- w.(2 * !j) +. w.(2 * !j + 1);
    j := !j / 2
  done

(* rebase at base = min x / c, exactly the shift the dense gradient uses:
   the largest leaf is exp 0 = 1 *)
let rebuild t =
  let s = Array.length t.x in
  let m = ref (t.x.(0) /. t.c) in
  for i = 1 to s - 1 do
    let v = t.x.(i) /. t.c in
    if v < !m then m := v
  done;
  t.base <- !m;
  for i = 0 to s - 1 do
    t.w.(t.cap + i) <- exp (t.base -. (t.x.(i) /. t.c))
  done;
  for j = t.cap - 1 downto 1 do
    t.w.(j) <- t.w.(2 * j) +. t.w.(2 * j + 1)
  done;
  t.tree_fresh <- true

(* inverse CDF by descent: the first leaf whose weight prefix exceeds
   [target].  An overrun (rounding at the right edge) clamps to the last
   state, as the linear scan of Dist.sample does. *)
let descend t target =
  let target = ref target and j = ref 1 in
  while !j < t.cap do
    let l = 2 * !j in
    if !target < t.w.(l) then j := l
    else begin
      target := !target -. t.w.(l);
      j := l + 1
    end
  done;
  Int.min (!j - t.cap) (Array.length t.x - 1)

(* One indicator step in O(log s), consuming exactly the draws of
   Dist.resample_coupled on the dense distributions: [po <= 0] samples
   the new distribution with one draw; otherwise one draw against the
   stay probability, and on a move a second draw from the positive part
   of new - old.  Only leaf e lost weight, so that positive part is
   proportional to w_j over j <> e; when it is empty the second draw
   samples the whole new distribution. *)
let indicator_step t rng e current =
  if not t.tree_fresh then rebuild t;
  let leaf = t.cap + e in
  let total_old = t.w.(1) in
  let wc_old = t.w.(t.cap + current) in
  t.x.(e) <- t.x.(e) +. 1.0;
  let w_new = exp (t.base -. (t.x.(e) /. t.c)) in
  if not (w_new >= 0.0) then
    invalid_arg "Smin_mw.serve_indicator: leaf weight is negative or NaN";
  t.w.(leaf) <- w_new;
  refresh_path t.w leaf;
  let total = t.w.(1) in
  if not (total > 0.0 && total < Float.infinity) then
    invalid_arg "Smin_mw.serve_indicator: root total is not positive and finite";
  let state =
    if wc_old <= 0.0 then descend t (Rng.float rng *. total)
    else
      (* pn / po.  For current <> e the leaf ratio is exactly 1 and the
         root can only have shrunk, so the stay probability is >= 1 *)
      let stay =
        Float.min 1.0 (t.w.(t.cap + current) /. wc_old *. (total_old /. total))
      in
      if Rng.float rng < stay then current
      else begin
        let u = Rng.float rng in
        t.w.(leaf) <- 0.0;
        refresh_path t.w leaf;
        let rest = t.w.(1) in
        let moved = descend t (u *. rest) in
        t.w.(leaf) <- w_new;
        refresh_path t.w leaf;
        if rest > 0.0 then moved else descend t (u *. total)
      end
  in
  if total < underflow_guard then rebuild t;
  state

let make_tree ~c s =
  let cap = next_pow2 s in
  let t =
    {
      x = Array.make s 0.0;
      c;
      cap;
      w = Array.make (2 * cap) 0.0;
      base = 0.0;
      tree_fresh = false;
    }
  in
  rebuild t;
  t

let make_solver ~c metric ~start ~rng =
  let s = Metric.size metric in
  let t = make_tree ~c s in
  let x = t.x in
  (* the general-vector path: scratch gradient plus two rotating
     distribution buffers, so it allocates nothing.  The buffer holding
     the current distribution is only valid after a dense step; after
     indicator steps it is recomputed from x (the same computation, so the
     same bits as if every step had been dense). *)
  let grad = Array.make s 0.0 in
  let current_dist = ref (Dist.uniform s) in
  let next_dist = ref (Dist.uniform s) in
  let next cost current =
    if t.tree_fresh then begin
      Smin.grad_c_into ~c x grad;
      Dist.of_grad_into grad !current_dist
    end;
    for i = 0 to s - 1 do
      x.(i) <- x.(i) +. cost.(i)
    done;
    t.tree_fresh <- false;
    Smin.grad_c_into ~c x grad;
    let new_dist = !next_dist in
    Dist.of_grad_into grad new_dist;
    let state =
      Dist.resample_coupled rng ~current ~old_dist:!current_dist
        ~new_dist
    in
    next_dist := !current_dist;
    current_dist := new_dist;
    state
  in
  let mts =
    Mts.make
      ~next_indicator:(indicator_step t rng)
      ~name:(Printf.sprintf "smin-mw(c=%g)" c)
      ~metric ~start ~next ()
  in
  (mts, t)

let solver_with_scale ~c : Mts.factory =
 fun metric ~start ~rng ->
  if not (c >= 1.0) then invalid_arg "Smin_mw: scale must be >= 1";
  fst (make_solver ~c metric ~start ~rng)

let solver : Mts.factory =
 fun metric ~start ~rng ->
  fst (make_solver ~c:(default_scale metric) metric ~start ~rng)

let solver_introspect metric ~start ~rng =
  let mts, t = make_solver ~c:(default_scale metric) metric ~start ~rng in
  let view () =
    if not t.tree_fresh then rebuild t;
    let s = Array.length t.x in
    (Array.copy t.x, Array.init s (fun i -> t.w.(t.cap + i) /. t.w.(1)))
  in
  (mts, view)

let distribution metric x =
  if Array.length x <> Metric.size metric then
    invalid_arg "Smin_mw.distribution: size mismatch";
  Dist.of_grad (Smin.grad_c ~c:(default_scale metric) x)
