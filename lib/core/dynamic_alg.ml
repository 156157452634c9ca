module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment
module Segment = Rbgp_ring.Segment
module Intervals = Rbgp_ring.Intervals
module Mts = Rbgp_mts.Mts
module Metric = Rbgp_mts.Metric
module Rng = Rbgp_util.Rng
module Pool = Rbgp_util.Pool

(* Packed edge routing: one int per edge holding both the owning interval
   and the interval-local index, so the per-request lookup touches one
   cache line instead of two.  31 bits for the local index leaves 31 for
   the interval id — both bounded by n, far below either limit. *)
let route_bits = 31
let route_mask = (1 lsl route_bits) - 1

type t = {
  inst : Instance.t;
  dec : Intervals.t;
  solvers : Mts.t array;
  cuts : int array;  (* global cut edge per interval *)
  cut_locals : int array;  (* the same cuts in interval-local coordinates *)
  bases : int array;  (* first global edge of each interval *)
  route_of_edge : int array;  (* global edge -> (interval lsl route_bits) lor local *)
  assignment : Assignment.t;
  scratch_servers : int array;
  (* batch scratch, grown on demand; see [serve_batch] *)
  mutable batch_order : int array;
  mutable batch_locals : int array;
  shard_counts : int array;
  shard_offsets : int array;
  shard_fill : int array;
  shard_work : int array;
}

(* The first initial cut edge inside interval i: the MTS start state.
   Balanced initial loads guarantee one within any k+1 consecutive
   vertices, and intervals have width >= k'. *)
let initial_cut_local (inst : Instance.t) dec i =
  let n = inst.Instance.n in
  let w = Intervals.width dec i in
  let rec find local =
    if local >= w then
      (* n <= k (single-server-capable ring): no cut edge required; any
         position works since the whole ring maps to one slice. *)
      0
    else
      let e = Intervals.to_global dec i local in
      if inst.Instance.initial.(e) <> inst.Instance.initial.((e + 1) mod n)
      then local
      else find (local + 1)
  in
  find 0

let apply_cuts t =
  let slices = Intervals.slices_of_cuts t.dec t.cuts in
  let n = t.inst.Instance.n in
  let target = t.scratch_servers in
  Array.iter
    (fun (server, seg) -> Segment.iter (fun p -> target.(p) <- server) seg)
    slices;
  for p = 0 to n - 1 do
    Assignment.set t.assignment p target.(p)
  done

let create ?shift ?(mts = Rbgp_mts.Smin_mw.solver) ~epsilon (inst : Instance.t)
    rng =
  let n = inst.Instance.n and k = inst.Instance.k in
  let shift = match shift with Some r -> r | None -> Rng.int rng n in
  let dec = Intervals.make ~n ~k ~epsilon ~shift in
  if dec.Intervals.ell' > inst.Instance.ell then
    invalid_arg
      (Printf.sprintf
         "Dynamic_alg.create: %d intervals exceed %d servers (epsilon too \
          small for this instance?)"
         dec.Intervals.ell' inst.Instance.ell);
  let ell' = dec.Intervals.ell' in
  (* per-interval seed split happens here, sequentially in interval order:
     solver i owns an independent rng stream whose identity is fixed before
     any request arrives, so sharded execution cannot perturb it *)
  let solvers =
    Array.init ell' (fun i ->
        let metric = Metric.Line (Intervals.width dec i) in
        let start = initial_cut_local inst dec i in
        mts metric ~start ~rng:(Rng.split rng))
  in
  let cut_locals = Array.init ell' (fun i -> Mts.state solvers.(i)) in
  let bases = Array.init ell' (Intervals.base dec) in
  let cuts = Array.init ell' (fun i -> (bases.(i) + cut_locals.(i)) mod n) in
  (* O(1) request routing: interval widths sum to n, so one pass fills the
     whole edge->route map (replaces the O(ell') Intervals.locate scan on
     the hot path) *)
  let route_of_edge = Array.make n 0 in
  for i = 0 to ell' - 1 do
    for local = 0 to Intervals.width dec i - 1 do
      let e = (bases.(i) + local) mod n in
      route_of_edge.(e) <- (i lsl route_bits) lor local
    done
  done;
  let t =
    {
      inst;
      dec;
      solvers;
      cuts;
      cut_locals;
      bases;
      route_of_edge;
      assignment = Assignment.create inst;
      scratch_servers = Array.make n 0;
      batch_order = [||];
      batch_locals = [||];
      shard_counts = Array.make ell' 0;
      shard_offsets = Array.make ell' 0;
      shard_fill = Array.make ell' 0;
      shard_work = Array.make ell' 0;
    }
  in
  apply_cuts t;
  t

(* Feed one request to interval i's solver: an indicator cost at the
   interval-local edge, served without building the vector. *)
let serve_local t i local = Mts.serve_indicator t.solvers.(i) local

(* Move interval i's cut to [new_local], updating the assignment
   incrementally: server i owns the vertex slice (cuts.(i), cuts.(i+1)]
   (see Intervals.slices_of_cuts), so advancing cut i hands the vertices
   between old and new cut to the predecessor slice, and retreating it
   reclaims them.  The moved range lies strictly inside interval i and
   can therefore never cross another interval's cut.  The journal records
   exactly the same set of process moves as a full apply_cuts rewrite. *)
let move_cut t i new_local =
  let old_local = t.cut_locals.(i) in
  if new_local <> old_local then begin
    let ell' = t.dec.Intervals.ell' in
    let n = t.inst.Instance.n in
    let b = t.bases.(i) in
    t.cut_locals.(i) <- new_local;
    t.cuts.(i) <- (b + new_local) mod n;
    if ell' > 1 then
      if new_local > old_local then begin
        let dst = (i + ell' - 1) mod ell' in
        for x = old_local + 1 to new_local do
          Assignment.set t.assignment ((b + x) mod n) dst
        done
      end
      else
        for x = new_local + 1 to old_local do
          Assignment.set t.assignment ((b + x) mod n) i
        done
  end

let serve t e =
  if e < 0 || e >= t.inst.Instance.n then
    invalid_arg "Dynamic_alg.serve: edge out of range";
  let r = t.route_of_edge.(e) in
  let i = r lsr route_bits in
  move_cut t i (serve_local t i (r land route_mask))

let ensure_batch_scratch t b =
  if Array.length t.batch_order < b then begin
    let cap = Stdlib.max b (2 * Array.length t.batch_order) in
    t.batch_order <- Array.make cap 0;
    t.batch_locals <- Array.make cap 0
  end

(* Interval-sharded batch path (the Section-3 decomposition as the
   parallelism axis): each interval's solver sees exactly its own
   requests, in arrival order, regardless of how intervals are scheduled
   across domains — so the solver states, rng streams and decisions are
   identical to the sequential path, and the in-order merge below replays
   the assignment mutations request by request. *)
let serve_batch t edges =
  let b = Array.length edges in
  let n = t.inst.Instance.n in
  Array.iter
    (fun e ->
      if e < 0 || e >= n then
        invalid_arg "Dynamic_alg.serve_batch: edge out of range")
    edges;
  if b <= 1 then fun j -> serve t edges.(j)
  else begin
    let ell' = t.dec.Intervals.ell' in
    ensure_batch_scratch t b;
    let order = t.batch_order and locals = t.batch_locals in
    let counts = t.shard_counts and offsets = t.shard_offsets in
    Array.fill counts 0 ell' 0;
    for j = 0 to b - 1 do
      let i = t.route_of_edge.(edges.(j)) lsr route_bits in
      counts.(i) <- counts.(i) + 1
    done;
    let nwork = ref 0 in
    let acc = ref 0 in
    for i = 0 to ell' - 1 do
      offsets.(i) <- !acc;
      acc := !acc + counts.(i);
      if counts.(i) > 0 then begin
        t.shard_work.(!nwork) <- i;
        incr nwork
      end
    done;
    (* stable bucket sort: order.(offsets.(i) ..) lists the batch indices
       of interval i's requests in arrival order *)
    let fill = t.shard_fill in
    Array.blit offsets 0 fill 0 ell';
    for j = 0 to b - 1 do
      let i = t.route_of_edge.(edges.(j)) lsr route_bits in
      order.(fill.(i)) <- j;
      fill.(i) <- fill.(i) + 1
    done;
    let work = Array.sub t.shard_work 0 !nwork in
    let run i =
      let stop = offsets.(i) + counts.(i) in
      for idx = offsets.(i) to stop - 1 do
        let j = order.(idx) in
        locals.(j) <- serve_local t i (t.route_of_edge.(edges.(j)) land route_mask)
      done
    in
    (* each worker touches only its claimed intervals' solvers and
       [locals] slots; the pool's join publishes all writes
       before the merge reads them.  The family estimate keeps small
       batches sequential automatically. *)
    ignore (Pool.map ~family:"dynalg.shard" run work);
    fun j ->
      move_cut t (t.route_of_edge.(edges.(j)) lsr route_bits) locals.(j)
  end

let online t =
  Rbgp_ring.Online.with_batch (serve_batch t)
  @@ Rbgp_ring.Online.with_journal (Assignment.journal t.assignment)
  @@ Rbgp_ring.Online.make ~name:"onl-dynamic"
       ~augmentation:
         (float_of_int (Intervals.max_slice_len t.dec)
         /. float_of_int t.inst.Instance.k)
       ~assignment:(fun () -> t.assignment)
       ~serve:(fun e -> serve t e)

let shift t = t.dec.Intervals.shift
let cut_edges t = Array.copy t.cuts

let interval_hit_cost t =
  Array.fold_left (fun acc s -> acc +. Mts.hit_cost s) 0.0 t.solvers

let interval_move_cost t =
  Array.fold_left (fun acc s -> acc +. Mts.move_cost s) 0.0 t.solvers

let decomposition t = t.dec
