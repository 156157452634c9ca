(* The benchmark's own arithmetic: percentile selection, span self time,
   and the lower bound its [ratio_to_lb] divides by. *)

open Perfbench

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Quantile.rank ~n:1000 0.99);
  Alcotest.(check int) "p50 of 1 is rank 1" 1 (Quantile.rank ~n:1 0.5);
  Alcotest.(check int) "p0 clamps to rank 1" 1 (Quantile.rank ~n:10 0.);
  Alcotest.(check int) "p100 is the maximum" 10 (Quantile.rank ~n:10 1.)

let test_highest_supported () =
  let case n want =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "n = %d" n) want (Quantile.highest_supported ~n)
  in
  case 9 None;
  case 19 None;
  case 20 (Some 0.5);
  case 100 (Some 0.9);
  case 999 (Some 0.9);
  case 1000 (Some 0.99);
  case 9999 (Some 0.99);
  case 10_000 (Some 0.999);
  case 100_000 (Some 0.9999);
  (* the defining property: >= 10 beyond the chosen one, < 10 beyond the
     next rung *)
  List.iter
    (fun n ->
      match Quantile.highest_supported ~n with
      | None -> ()
      | Some q ->
          Alcotest.(check bool) "ten beyond" true (Quantile.beyond ~n q >= 10);
          Array.iter
            (fun q' ->
              if q' > q then
                Alcotest.(check bool) "next rung unsupported" true
                  (Quantile.beyond ~n q' < 10))
            Quantile.ladder)
    [ 20; 37; 250; 1000; 1234; 50_000 ]

let test_nearest_rank () =
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99" 990. (Quantile.nearest_rank sorted 0.99);
  Alcotest.(check (float 0.)) "median" 500. (Quantile.nearest_rank sorted 0.5);
  Alcotest.(check (float 0.)) "p100" 1000. (Quantile.nearest_rank sorted 1.)

(* A scripted clock: each read returns the next timestamp. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> Alcotest.fail "clock read past the script"

let test_span_self () =
  (* rpc [0, 100) contains encode [10, 30) and serve [40, 90), and serve
     contains solve [50, 80) *)
  let sp = Span.create ~clock:(scripted [ 0; 10; 30; 40; 50; 80; 90; 100 ]) () in
  let rpc = Span.register sp "rpc" and enc = Span.register sp "encode"
  and serve = Span.register sp "serve" and solve = Span.register sp "solve" in
  Span.enter sp rpc;
  Span.enter sp enc;
  Span.leave sp;
  Span.enter sp serve;
  Span.enter sp solve;
  Span.leave sp;
  Span.leave sp;
  Span.leave sp;
  let check name total self =
    Alcotest.(check int) (name ^ " total") total (Span.total_ns sp name);
    Alcotest.(check int) (name ^ " self") self (Span.self_ns sp name)
  in
  check "rpc" 100 30;
  check "encode" 20 20;
  check "serve" 50 20;
  check "solve" 30 30;
  Alcotest.(check int) "unrecorded name" 0 (Span.total_ns sp "absent");
  Alcotest.check_raises "unbalanced leave" (Invalid_argument "Span.leave: no open span")
    (fun () -> Span.leave sp)

let test_span_accumulates () =
  (* the same name twice, once nested in itself: self times add up to the
     outer span's duration *)
  let sp = Span.create ~clock:(scripted [ 0; 5; 15; 20; 100; 140 ]) () in
  let a = Span.register sp "a" in
  Span.enter sp a;
  Span.enter sp a;
  Span.leave sp;
  Span.leave sp;
  Span.with_span sp a ignore;
  Alcotest.(check int) "total" 70 (Span.total_ns sp "a");
  Alcotest.(check int) "self" 60 (Span.self_ns sp "a");
  Alcotest.(check int) "count" 3 (Span.count sp "a");
  Alcotest.(check int) "register is idempotent" a (Span.register sp "a")

(* On an instance small enough for the exact dynamic optimum, the
   certified bound the benchmark divides by sits below OPT, and OPT
   below what a capacity-respecting online run actually paid.  (An
   augmented algorithm such as onl-dynamic may use up to (2+eps)k per
   server, so only LB <= OPT is a theorem for it.) *)
let test_lb_opt_cost () =
  let inst = Rbgp_ring.Instance.blocks ~n:8 ~ell:2 in
  let table = Rbgp_offline.Dynamic_opt.enumerate_states inst () in
  List.iter
    (fun seed ->
      let trace =
        match
          Rbgp_workloads.Workloads.rotating ~n:8 ~steps:300 (Rbgp_util.Rng.create seed)
        with
        | Rbgp_ring.Trace.Fixed a -> a
        | Rbgp_ring.Trace.Adaptive _ -> Alcotest.fail "adaptive trace"
      in
      let e = Rbgp_serve.Engine.create ~alg:"never-move" ~seed inst in
      Rbgp_serve.Engine.ingest_batch_quiet e trace;
      let cost = Rbgp_ring.Cost.total (Rbgp_serve.Engine.result e).Rbgp_ring.Simulator.cost in
      let opt = Rbgp_ring.Cost.total (Rbgp_offline.Dynamic_opt.solve table trace) in
      let lb = Lb_ratio.lower_bound inst [ trace ] in
      Alcotest.(check bool) (Printf.sprintf "seed %d: 0 < LB <= OPT" seed) true
        (lb > 0 && lb <= opt);
      Alcotest.(check bool) (Printf.sprintf "seed %d: OPT <= cost" seed) true (opt <= cost);
      Alcotest.(check bool) "ratio >= 1" true (Lb_ratio.ratio ~cost ~lb >= 1.);
      (* two tenants on the same shape: the bound is additive *)
      Alcotest.(check int) "sum over tenants" (2 * lb)
        (Lb_ratio.lower_bound inst [ trace; trace ]))
    [ 1; 2; 3 ];
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Lb_ratio.ratio: lower bound must be positive") (fun () ->
      ignore (Lb_ratio.ratio ~cost:3 ~lb:0))

let test_seeds () =
  Alcotest.(check int) "deterministic" (Seeds.trace_seed ~seed:7 0) (Seeds.trace_seed ~seed:7 0);
  let all =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun i -> [ Seeds.trace_seed ~seed i; Seeds.open_seed ~seed i ])
          [ 0; 1; 2; 3 ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "distinct" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter (fun s -> Alcotest.(check bool) "in range" true (s >= 0 && s < 1 lsl 30)) all

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "highest supported percentile" `Quick test_highest_supported;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time with nested children" `Quick test_span_self;
          Alcotest.test_case "repeated and recursive spans" `Quick test_span_accumulates;
        ] );
      ( "ratio",
        [ Alcotest.test_case "LB <= OPT <= cost on a tiny ring" `Quick test_lb_opt_cost ] );
      ("seeds", [ Alcotest.test_case "derivation" `Quick test_seeds ]);
    ]
