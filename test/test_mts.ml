(* Tests for the metrical-task-system substrate: metrics, the solver
   interface's cost accounting, the exact offline DP (cross-checked against
   brute force), the deterministic work-function algorithm (competitive
   bound + work-function invariants), and the randomized solvers. *)

module Metric = Rbgp_mts.Metric
module Mts = Rbgp_mts.Mts
module Offline = Rbgp_mts.Offline
module Wfa = Rbgp_mts.Work_function
module Rng = Rbgp_util.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Metric ----------------------------------------------------------- *)

let test_metric () =
  let l = Metric.Line 5 and u = Metric.Uniform 5 in
  Alcotest.(check int) "line distance" 3 (Metric.distance l 1 4);
  Alcotest.(check int) "line diameter" 4 (Metric.diameter l);
  Alcotest.(check int) "uniform distance" 1 (Metric.distance u 0 4);
  Alcotest.(check int) "uniform same" 0 (Metric.distance u 2 2);
  Alcotest.(check int) "uniform diameter" 1 (Metric.diameter u);
  Alcotest.check_raises "state range"
    (Invalid_argument "Metric.distance: state out of range") (fun () ->
      ignore (Metric.distance l 0 5))

(* --- Mts wrapper ------------------------------------------------------ *)

let test_mts_accounting () =
  (* scripted solver: always moves to the requested state *)
  let metric = Metric.Line 4 in
  let t =
    Mts.make ~name:"follow" ~metric ~start:0 ~next:(fun cost _ ->
        let best = ref 0 in
        Array.iteri (fun i c -> if c > cost.(!best) then best := i) cost;
        !best) ()
  in
  ignore (Mts.serve t (Mts.indicator 3 ~n:4));
  (* moved 0 -> 3 (distance 3) and pays the task at the new state (1) *)
  Alcotest.(check (float 1e-9)) "move" 3.0 (Mts.move_cost t);
  Alcotest.(check (float 1e-9)) "hit" 1.0 (Mts.hit_cost t);
  ignore (Mts.serve t (Mts.indicator 0 ~n:4));
  Alcotest.(check int) "state sticky" 0 (Mts.state t);
  Alcotest.(check int) "steps" 2 (Mts.steps t)

let test_mts_validation () =
  let metric = Metric.Line 3 in
  let t = Mts.make ~name:"id" ~metric ~start:1 ~next:(fun _ s -> s) () in
  Alcotest.check_raises "bad size"
    (Invalid_argument "Mts.serve: cost vector size mismatch") (fun () ->
      ignore (Mts.serve t [| 0.0 |]));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Mts.serve: cost entries must be non-negative")
    (fun () -> ignore (Mts.serve t [| 0.0; -1.0; 0.0 |]))

(* --- Offline DP vs brute force ---------------------------------------- *)

let brute_force_opt metric ~start tasks =
  let s = Metric.size metric in
  let steps = Array.length tasks in
  let best = ref infinity in
  let rec go t prev acc =
    if acc >= !best then ()
    else if t = steps then best := acc
    else
      for x = 0 to s - 1 do
        go (t + 1) x
          (acc
          +. float_of_int (Metric.distance metric prev x)
          +. tasks.(t).(x))
      done
  in
  go 0 start 0.0;
  !best

let tiny_instance_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun s ->
    int_range 0 (s - 1) >>= fun start ->
    int_range 1 5 >>= fun steps ->
    let task = array_size (return s) (float_bound_inclusive 3.0) in
    array_size (return steps) task >|= fun tasks -> (s, start, tasks))

let test_offline_vs_brute_line =
  qtest ~count:200 "offline DP = brute force (line)" tiny_instance_gen
    (fun (s, start, tasks) ->
      let m = Metric.Line s in
      Float.abs (Offline.opt_cost m ~start tasks -. brute_force_opt m ~start tasks)
      < 1e-6)

let test_offline_vs_brute_uniform =
  qtest ~count:200 "offline DP = brute force (uniform)" tiny_instance_gen
    (fun (s, start, tasks) ->
      let m = Metric.Uniform s in
      Float.abs (Offline.opt_cost m ~start tasks -. brute_force_opt m ~start tasks)
      < 1e-6)

let schedule_cost metric ~start tasks (sched : Offline.schedule) =
  let acc = ref 0.0 and prev = ref start in
  Array.iteri
    (fun t x ->
      acc :=
        !acc +. float_of_int (Metric.distance metric !prev x) +. tasks.(t).(x);
      prev := x)
    sched.Offline.states;
  !acc

let test_offline_schedule =
  qtest ~count:200 "offline schedule realizes the optimum" tiny_instance_gen
    (fun (s, start, tasks) ->
      let m = Metric.Line s in
      let sched = Offline.opt_schedule m ~start tasks in
      Float.abs (sched.Offline.cost -. Offline.opt_cost m ~start tasks) < 1e-6
      && Float.abs (schedule_cost m ~start tasks sched -. sched.Offline.cost)
         < 1e-6)

let indicator_seq_gen =
  QCheck2.Gen.(
    int_range 2 8 >>= fun s ->
    int_range 0 (s - 1) >>= fun start ->
    list_size (int_range 0 30) (int_range 0 (s - 1)) >|= fun es ->
    (s, start, Array.of_list es))

let test_offline_indicators =
  qtest ~count:200 "indicator specialization matches generic DP"
    indicator_seq_gen (fun (s, start, es) ->
      let m = Metric.Line s in
      let tasks = Array.map (fun e -> Mts.indicator e ~n:s) es in
      Float.abs
        (Offline.opt_cost_indicators m ~start es -. Offline.opt_cost m ~start tasks)
      < 1e-6)

let test_offline_free_start =
  qtest ~count:200 "free start <= fixed start; static >= dynamic"
    indicator_seq_gen (fun (s, start, es) ->
      let m = Metric.Line s in
      let free = Offline.opt_cost_indicators_free m es in
      let fixed = Offline.opt_cost_indicators m ~start es in
      let static = Offline.static_opt_indicators m ~start es in
      free <= fixed +. 1e-9 && fixed <= static +. 1e-9)

(* --- Work function algorithm ------------------------------------------ *)

let test_wfa_competitive =
  (* WFA is (2s-1)-competitive; check cost <= (2s-1) OPT + (2s-1) * diam on
     random indicator instances (the additive term covers the start-up) *)
  qtest ~count:150 "wfa within the deterministic competitive bound"
    indicator_seq_gen (fun (s, start, es) ->
      let m = Metric.Line s in
      let t = Wfa.solver m ~start ~rng:(Rng.create 0) in
      Array.iter (fun e -> ignore (Mts.serve t (Mts.indicator e ~n:s))) es;
      let opt = Offline.opt_cost_indicators m ~start es in
      let bound =
        (float_of_int ((2 * s) - 1) *. opt)
        +. float_of_int ((2 * s - 1) * Metric.diameter m)
      in
      Mts.total_cost t <= bound +. 1e-6)

let test_wfa_work_function_invariants =
  qtest ~count:150 "work function is 1-Lipschitz and lower-bounds cost"
    indicator_seq_gen (fun (s, start, es) ->
      let t, wf = Wfa.solver_introspect (Metric.Line s) ~start in
      Array.iter (fun e -> ignore (Mts.serve t (Mts.indicator e ~n:s))) es;
      let w = wf () in
      let lipschitz = ref true in
      for i = 0 to s - 2 do
        if Float.abs (w.(i + 1) -. w.(i)) > 1.0 +. 1e-9 then lipschitz := false
      done;
      let wmin = Array.fold_left Float.min w.(0) w in
      let opt = Offline.opt_cost_indicators (Metric.Line s) ~start es in
      (* min of the work function IS the offline optimum *)
      !lipschitz && Float.abs (wmin -. opt) < 1e-6)

let test_wfa_stationary () =
  (* hammering one edge: WFA eventually settles elsewhere and stops paying *)
  let s = 9 in
  let m = Metric.Line s in
  let t = Wfa.solver m ~start:4 ~rng:(Rng.create 0) in
  for _ = 1 to 200 do
    ignore (Mts.serve t (Mts.indicator 4 ~n:s))
  done;
  Alcotest.(check bool) "moved away" true (Mts.state t <> 4);
  let before = Mts.total_cost t in
  for _ = 1 to 100 do
    ignore (Mts.serve t (Mts.indicator 4 ~n:s))
  done;
  Alcotest.(check (float 1e-9)) "no further cost" before (Mts.total_cost t)

(* --- randomized solvers ------------------------------------------------ *)

let run_solver solver m ~start es ~seed =
  let t = solver m ~start ~rng:(Rng.create seed) in
  Array.iter (fun e -> ignore (Mts.serve t (Mts.indicator e ~n:(Metric.size m)) : int)) es;
  Mts.total_cost t

let test_smin_mw_distribution () =
  let m = Metric.Line 8 in
  let x = [| 9.0; 0.0; 9.0; 9.0; 9.0; 9.0; 9.0; 9.0 |] in
  let d = Rbgp_mts.Smin_mw.distribution m x in
  Alcotest.(check bool) "concentrates on cheap state" true
    (Rbgp_util.Dist.prob d 1 > 0.25)

let test_smin_mw_hammer () =
  (* cost of dodging a hammered state stays modest: O(c log s) *)
  let s = 32 in
  let m = Metric.Line s in
  let es = Array.make 2_000 (s / 2) in
  let cost = run_solver Rbgp_mts.Smin_mw.solver m ~start:(s / 2) es ~seed:5 in
  Alcotest.(check bool)
    (Printf.sprintf "hammer cost %.0f bounded" cost)
    true
    (cost <= 8.0 *. float_of_int s)

let test_hst_distribution () =
  let m = Metric.Line 16 in
  let x = Array.make 16 50.0 in
  x.(3) <- 0.0;
  let d = Rbgp_mts.Hst_mts.leaf_distribution m x in
  let arr = Rbgp_util.Dist.to_array d in
  let sum = Array.fold_left ( +. ) 0.0 arr in
  Alcotest.(check (float 1e-6)) "normalized" 1.0 sum;
  Alcotest.(check bool) "concentrates" true (arr.(3) > 0.5)

let test_hst_rejects_uniform () =
  Alcotest.check_raises "uniform rejected"
    (Invalid_argument "Hst_mts.solver: requires a line metric") (fun () ->
      ignore (Rbgp_mts.Hst_mts.solver (Metric.Uniform 4) ~start:0 ~rng:(Rng.create 0)))

let test_randomized_reasonable =
  (* all randomized solvers stay within a loose factor of OPT on random
     indicator sequences (sanity, not the theorem) *)
  qtest ~count:40 "randomized solvers within loose factor of OPT"
    QCheck2.Gen.(
      int_range 4 16 >>= fun s ->
      list_size (int_range 20 80) (int_range 0 (s - 1)) >|= fun es ->
      (s, Array.of_list es))
    (fun (s, es) ->
      let m = Metric.Line s in
      let start = s / 2 in
      let opt = Offline.opt_cost_indicators m ~start es in
      let loose cost = cost <= (20.0 *. opt) +. (30.0 *. float_of_int s) in
      loose (run_solver Rbgp_mts.Smin_mw.solver m ~start es ~seed:1)
      && loose (run_solver Rbgp_mts.Hst_mts.solver m ~start es ~seed:2)
      && loose (run_solver Rbgp_mts.Marking.solver m ~start es ~seed:3))

let test_marking_uniform () =
  (* marking on the uniform metric: competitive on repeated hammering *)
  let s = 8 in
  let m = Metric.Uniform s in
  let es = Array.init 4_000 (fun i -> i mod 2) in
  let cost = run_solver Rbgp_mts.Marking.solver m ~start:0 es ~seed:7 in
  let opt = Offline.opt_cost_indicators m ~start:0 es in
  Alcotest.(check bool)
    (Printf.sprintf "marking %.0f vs opt %.0f" cost opt)
    true
    (cost <= 10.0 *. (opt +. 1.0))

(* --- indicator step: sum tree vs the dense oracle --------------------- *)

module Smin_mw = Rbgp_mts.Smin_mw

(* the next request of a seeded trace: half the time the solver's own
   state (the chasing adversary, which exercises the move branch), half
   the time a uniform edge *)
let next_request rng t s =
  if Rng.bool rng then Mts.state t else Rng.int rng s

let indicator_trace_gen =
  QCheck2.Gen.(
    triple (int_range 2 512) (int_range 0 5_000) (int_range 0 1_000_000))

(* tree leaves vs Smin_mw.distribution of the same x: 1e-12 relative on
   every entry above 1e-100, and negligible entries stay negligible *)
let tree_matches_dense metric view =
  let x, leaves = view () in
  let dense = Rbgp_util.Dist.to_array (Smin_mw.distribution metric x) in
  let ok = ref true in
  Array.iteri
    (fun i p ->
      let q = leaves.(i) in
      if p >= 1e-100 then begin
        if Float.abs (q -. p) > 1e-12 *. p then ok := false
      end
      else if q >= 1e-99 then ok := false)
    dense;
  !ok

let test_tree_distribution =
  qtest ~count:50 "tree leaves = dense smin distribution after every step"
    indicator_trace_gen (fun (s, len, seed) ->
      let metric = Metric.Line s in
      let t, view =
        Smin_mw.solver_introspect metric ~start:(s / 2) ~rng:(Rng.create seed)
      in
      let rng = Rng.create (seed + 1) in
      let ok = ref (tree_matches_dense metric view) in
      for _ = 1 to len do
        ignore (Mts.serve_indicator t (next_request rng t s) : int);
        if not (tree_matches_dense metric view) then ok := false
      done;
      !ok)

let same_costs a b =
  Float.equal (Mts.hit_cost a) (Mts.hit_cost b)
  && Float.equal (Mts.move_cost a) (Mts.move_cost b)
  && Mts.steps a = Mts.steps b

(* serve one trace through [serve_indicator] on [a] and through the dense
   [serve (indicator e)] on [b]; true iff every decision agrees *)
let replay_pair a b ~s ~len ~seed =
  let rng = Rng.create seed in
  let same = ref true in
  for _ = 1 to len do
    let e = next_request rng a s in
    let da = Mts.serve_indicator a e in
    let db = Mts.serve b (Mts.indicator e ~n:s) in
    if da <> db then same := false
  done;
  !same && same_costs a b

let scale_gen =
  QCheck2.Gen.(
    oneof [ return None; map (fun c -> Some c) (float_range 1.0 4.0) ])

let test_tree_decisions =
  qtest ~count:40 "serve_indicator decisions = serve (indicator e)"
    QCheck2.Gen.(
      pair indicator_trace_gen (pair bool scale_gen))
    (fun ((s, len, seed), (uniform, scale)) ->
      let metric = if uniform then Metric.Uniform s else Metric.Line s in
      let factory =
        match scale with
        | None -> Smin_mw.solver
        | Some c -> Smin_mw.solver_with_scale ~c
      in
      let make () = factory metric ~start:(s / 2) ~rng:(Rng.create seed) in
      replay_pair (make ()) (make ()) ~s ~len ~seed:(seed + 1))

let test_tree_rebase () =
  (* round robin at s = 4 (c = 3): the root shrinks by e^(-1/12) per
     step, so 20k steps cross the underflow guard several times and would
     underflow every leaf to 0 without a rebase *)
  let s = 4 in
  let metric = Metric.Line s in
  let make () = Smin_mw.solver_introspect metric ~start:0 ~rng:(Rng.create 11) in
  let t, view = make () and twin, _ = make () in
  let same = ref true in
  for j = 0 to 19_999 do
    let e = j mod s in
    if Mts.serve_indicator t e <> Mts.serve twin (Mts.indicator e ~n:s) then
      same := false
  done;
  Alcotest.(check bool) "decisions = dense twin" true !same;
  Alcotest.(check bool) "costs = dense twin" true (same_costs t twin);
  Alcotest.(check bool) "tree = dense distribution" true
    (tree_matches_dense metric view);
  let x, _ = view () in
  Alcotest.(check (float 0.0)) "x counts every request" 5_000.0 x.(0)

let test_tree_mixed =
  (* general vectors interleaved with indicator steps on one solver, an
     all-dense twin fed the same tasks as vectors *)
  qtest ~count:30 "mixed general vectors and indicator steps = dense twin"
    QCheck2.Gen.(triple (int_range 2 64) (int_range 0 2_000) (int_range 0 1_000_000))
    (fun (s, len, seed) ->
      let metric = Metric.Line s in
      let t, view =
        Smin_mw.solver_introspect metric ~start:0 ~rng:(Rng.create seed)
      in
      let twin = Smin_mw.solver metric ~start:0 ~rng:(Rng.create seed) in
      let rng = Rng.create (seed + 1) in
      let same = ref true in
      for _ = 1 to len do
        if Rng.int rng 4 = 0 then begin
          let v =
            Array.init s (fun _ ->
                if Rng.bool rng then 0.0 else 3.0 *. Rng.float rng)
          in
          if Mts.serve t v <> Mts.serve twin v then same := false
        end
        else begin
          let e = next_request rng t s in
          if Mts.serve_indicator t e <> Mts.serve twin (Mts.indicator e ~n:s)
          then same := false
        end
      done;
      !same && same_costs t twin && tree_matches_dense metric view)

let test_serve_indicator_validation () =
  let metric = Metric.Line 4 in
  let t = Smin_mw.solver metric ~start:0 ~rng:(Rng.create 0) in
  let oob = Invalid_argument "Mts.serve_indicator: index out of range" in
  Alcotest.check_raises "index = size" oob (fun () ->
      ignore (Mts.serve_indicator t 4));
  Alcotest.check_raises "negative index" oob (fun () ->
      ignore (Mts.serve_indicator t (-1)));
  let scripted =
    Mts.make ~name:"id" ~metric ~start:1 ~next:(fun _ s -> s) ()
  in
  Alcotest.check_raises "default step, index = size" oob (fun () ->
      ignore (Mts.serve_indicator scripted 4));
  Alcotest.(check int) "nothing served" 0 (Mts.steps t + Mts.steps scripted);
  (* costs of +infinity everywhere leave no finite weight: the dense step
     rejects its NaN gradient after adding the costs to x, and the next
     indicator step's rebuilt leaf is exp (inf - inf) = NaN *)
  let u = Smin_mw.solver metric ~start:0 ~rng:(Rng.create 0) in
  (try ignore (Mts.serve u (Array.make 4 Float.infinity)) with
  | Invalid_argument _ -> ());
  Alcotest.check_raises "NaN leaf"
    (Invalid_argument "Smin_mw.serve_indicator: leaf weight is negative or NaN")
    (fun () -> ignore (Mts.serve_indicator u 2))

let test_default_indicator_step =
  (* the solvers without a specialised step go through the reused scratch
     vector: same states and costs as serve (indicator e) *)
  qtest ~count:60 "default next_indicator = serve (indicator e)"
    QCheck2.Gen.(triple (int_range 2 32) (int_range 0 400) (int_range 0 1_000_000))
    (fun (s, len, seed) ->
      let m = Metric.Line s in
      List.for_all
        (fun (solver : Mts.factory) ->
          let make () = solver m ~start:(s / 2) ~rng:(Rng.create seed) in
          replay_pair (make ()) (make ()) ~s ~len ~seed:(seed + 1))
        [ Wfa.solver; Rbgp_mts.Marking.solver; Rbgp_mts.Hst_mts.solver ])

let () =
  Alcotest.run "rbgp_mts"
    [
      ("metric", [ Alcotest.test_case "distances" `Quick test_metric ]);
      ( "mts",
        [
          Alcotest.test_case "accounting" `Quick test_mts_accounting;
          Alcotest.test_case "validation" `Quick test_mts_validation;
        ] );
      ( "offline",
        [
          test_offline_vs_brute_line;
          test_offline_vs_brute_uniform;
          test_offline_schedule;
          test_offline_indicators;
          test_offline_free_start;
        ] );
      ( "wfa",
        [
          test_wfa_competitive;
          test_wfa_work_function_invariants;
          Alcotest.test_case "stationary convergence" `Quick test_wfa_stationary;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "smin-mw distribution" `Quick test_smin_mw_distribution;
          Alcotest.test_case "smin-mw hammer" `Quick test_smin_mw_hammer;
          Alcotest.test_case "hst distribution" `Quick test_hst_distribution;
          Alcotest.test_case "hst rejects uniform" `Quick test_hst_rejects_uniform;
          test_randomized_reasonable;
          Alcotest.test_case "marking on uniform" `Quick test_marking_uniform;
        ] );
      ( "indicator",
        [
          test_tree_distribution;
          test_tree_decisions;
          Alcotest.test_case "rebase (round robin, s = 4)" `Quick
            test_tree_rebase;
          test_tree_mixed;
          Alcotest.test_case "validation" `Quick test_serve_indicator_validation;
          test_default_indicator_step;
        ] );
    ]
