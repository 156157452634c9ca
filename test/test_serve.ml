(* Tests for the streaming partition service (lib/serve) and the trace
   codecs it feeds on.

   The contracts under test:
   - the incremental engine bills exactly what the batch simulator bills
     on the same request sequence (every algorithm, both accounting paths);
   - checkpoint ⇒ resume is byte-identical to an uninterrupted run —
     costs, max load, violations and final assignment — for every
     algorithm in the serving registry, whether the resume goes through
     explicit state restore or deterministic prefix replay, and the
     verification catches tampered snapshots;
   - the framed binary trace format round-trips with the text format and
     detects torn frames;
   - the streaming text reader matches the materializing loader and names
     the file in its errors. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Simulator = Rbgp_ring.Simulator
module Trace = Rbgp_ring.Trace
module Cost = Rbgp_ring.Cost
module Workloads = Rbgp_workloads.Workloads
module Trace_io = Rbgp_workloads.Trace_io
module Trace_codec = Rbgp_workloads.Trace_codec
module Registry = Rbgp_serve.Registry
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Prefix_log = Rbgp_serve.Prefix_log
module Metrics = Rbgp_serve.Metrics
module Source = Rbgp_serve.Source

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

type outcome = {
  comm : int;
  mig : int;
  steps : int;
  max_load : int;
  violations : int;
  assignment : int array;
}

let outcome_of engine =
  let r = Engine.result engine in
  {
    comm = r.Simulator.cost.Cost.comm;
    mig = r.Simulator.cost.Cost.mig;
    steps = r.Simulator.steps;
    max_load = r.Simulator.max_load;
    violations = r.Simulator.capacity_violations;
    assignment = Engine.assignment engine;
  }

let check_outcome msg expected got =
  Alcotest.(check int) (msg ^ ": comm") expected.comm got.comm;
  Alcotest.(check int) (msg ^ ": mig") expected.mig got.mig;
  Alcotest.(check int) (msg ^ ": steps") expected.steps got.steps;
  Alcotest.(check int) (msg ^ ": max_load") expected.max_load got.max_load;
  Alcotest.(check int) (msg ^ ": violations") expected.violations got.violations;
  Alcotest.(check (array int)) (msg ^ ": assignment") expected.assignment
    got.assignment

(* --- engine vs batch simulator -------------------------------------- *)

let test_engine_matches_simulator () =
  let n = 48 and ell = 4 and steps = 800 and seed = 11 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:5 in
  List.iter
    (fun (spec : Registry.spec) ->
      let batch_alg = spec.Registry.build ~epsilon:0.5 ~seed inst in
      let batch =
        Simulator.run inst batch_alg (Trace.fixed trace) ~steps
      in
      let engine = Engine.create ~alg:spec.Registry.name ~seed inst in
      Array.iter (fun e -> ignore (Engine.ingest engine e)) trace;
      let got = outcome_of engine in
      check_outcome
        (spec.Registry.name ^ " engine == simulator")
        {
          comm = batch.Simulator.cost.Cost.comm;
          mig = batch.Simulator.cost.Cost.mig;
          steps = batch.Simulator.steps;
          max_load = batch.Simulator.max_load;
          violations = batch.Simulator.capacity_violations;
          assignment =
            Rbgp_ring.Assignment.to_array
              (batch_alg.Rbgp_ring.Online.assignment ());
        }
        got)
    Registry.all

let test_engine_decisions_cumulative () =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:500 ~seed:3 in
  let engine = Engine.create ~alg:"onl-static" ~seed:17 inst in
  let cum_comm = ref 0 and cum_mig = ref 0 in
  Array.iteri
    (fun i e ->
      let d = Engine.ingest engine e in
      cum_comm := !cum_comm + d.Engine.comm;
      cum_mig := !cum_mig + d.Engine.moved;
      Alcotest.(check int) "step index" i d.Engine.step;
      Alcotest.(check int) "cum comm" !cum_comm d.Engine.cum_comm;
      Alcotest.(check int) "cum mig" !cum_mig d.Engine.cum_mig)
    trace

(* --- checkpoint / resume -------------------------------------------- *)

(* the satellite requirement, verbatim: checkpoint at a step, resume, and
   the final result equals the uninterrupted run — for every algorithm in
   the registry and both accounting modes *)
let test_checkpoint_resume_all_algorithms () =
  let n = 48 and ell = 4 and steps = 600 and cut = 251 and seed = 23 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:9 in
  List.iter
    (fun accounting ->
      List.iter
        (fun (spec : Registry.spec) ->
          let name =
            Printf.sprintf "%s/%s" spec.Registry.name
              (match accounting with `Diff -> "diff" | _ -> "auto")
          in
          let uninterrupted =
            let e = Engine.create ~accounting ~alg:spec.Registry.name ~seed inst in
            Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
            outcome_of e
          in
          let first = Engine.create ~accounting ~alg:spec.Registry.name ~seed inst in
          Array.iter
            (fun q -> ignore (Engine.ingest first q))
            (Array.sub trace 0 cut);
          let ckpt = Engine.checkpoint first in
          (* the snapshot must survive its on-disk representation *)
          let ckpt = Ckpt.of_string (Ckpt.to_string ckpt) in
          let resumed = Engine.resume ~accounting ckpt in
          Alcotest.(check int) (name ^ ": resumed pos") cut (Engine.pos resumed);
          Array.iter
            (fun q -> ignore (Engine.ingest resumed q))
            (Array.sub trace cut (steps - cut));
          check_outcome (name ^ ": resume == uninterrupted") uninterrupted
            (outcome_of resumed))
        Registry.all)
    [ `Auto; `Diff ]

let test_checkpoint_explicit_state_presence () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let has_state alg =
    let e = Engine.create ~alg ~seed:1 inst in
    ignore (Engine.ingest e 0);
    Option.is_some (Engine.checkpoint e).Ckpt.alg_state
  in
  (* deterministic baselines serialize state explicitly; the randomized
     core algorithms rely on prefix replay *)
  List.iter
    (fun alg ->
      Alcotest.(check bool) (alg ^ " has explicit state") true (has_state alg))
    [ "never-move"; "greedy-colocate"; "counter-threshold";
      "component-learning" ];
  List.iter
    (fun alg ->
      Alcotest.(check bool) (alg ^ " replays prefix") false (has_state alg))
    [ "onl-dynamic"; "onl-static"; "dyn/wfa" ]

let test_resume_detects_tampering () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = gen_trace ~n:32 ~steps:200 ~seed:2 in
  let ckpt_for alg =
    let e = Engine.create ~alg ~seed:4 inst in
    Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
    Engine.checkpoint e
  in
  let expect_failure name tampered =
    Alcotest.check_raises name (Failure "") (fun () ->
        try ignore (Engine.resume tampered) with Failure _ -> raise (Failure ""))
  in
  (* explicit-restore path: the cost is carried by the checkpoint, so what
     resume can (and does) verify is the restored assignment *)
  let ckpt = ckpt_for "counter-threshold" in
  let assignment = Array.copy ckpt.Ckpt.assignment in
  assignment.(0) <- (assignment.(0) + 1) mod inst.Instance.ell;
  expect_failure "explicit restore: tampered assignment rejected"
    { ckpt with Ckpt.assignment };
  (* prefix-replay path: replay recomputes everything, so a tampered cost
     diverges from the replayed one *)
  let ckpt = ckpt_for "onl-static" in
  expect_failure "prefix replay: tampered comm rejected"
    { ckpt with Ckpt.comm = ckpt.Ckpt.comm + 1 }

let test_checkpoint_file_roundtrip () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let e = Engine.create ~alg:"greedy-colocate" ~seed:5 inst in
  Array.iter (fun q -> ignore (Engine.ingest e q)) (gen_trace ~n:32 ~steps:300 ~seed:6);
  let ckpt = Engine.checkpoint e in
  let path = Filename.temp_file "rbgp_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.write ~path ckpt;
      let back = Ckpt.read ~path in
      Alcotest.(check string) "roundtrip" (Ckpt.to_string ckpt)
        (Ckpt.to_string back);
      (* a truncated file is a decode error, not a crash or a wrong value *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw - 3)));
      match Ckpt.read ~path with
      | _ -> Alcotest.fail "truncated checkpoint accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "error names the path" true
            (Astring.String.is_infix ~affix:"rbgp_ckpt" msg))

let qcheck_checkpoint_resume =
  let gen =
    QCheck2.Gen.(
      let* alg_idx = int_bound (List.length Registry.all - 1) in
      let* seed = int_bound 10_000 in
      let* wseed = int_bound 10_000 in
      let* steps = int_range 50 400 in
      let* cut = int_range 1 (steps - 1) in
      let* diff = bool in
      return (alg_idx, seed, wseed, steps, cut, diff))
  in
  qtest ~count:60 "qcheck: checkpoint at random step resumes identically" gen
    (fun (alg_idx, seed, wseed, steps, cut, diff) ->
      let spec = List.nth Registry.all alg_idx in
      let accounting = if diff then `Diff else `Auto in
      let n = 48 and ell = 4 in
      let inst = Instance.blocks ~n ~ell in
      let trace = gen_trace ~n ~steps ~seed:wseed in
      let uninterrupted =
        let e = Engine.create ~accounting ~alg:spec.Registry.name ~seed inst in
        Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
        outcome_of e
      in
      let first = Engine.create ~accounting ~alg:spec.Registry.name ~seed inst in
      Array.iter (fun q -> ignore (Engine.ingest first q)) (Array.sub trace 0 cut);
      let ckpt = Ckpt.of_string (Ckpt.to_string (Engine.checkpoint first)) in
      let resumed = Engine.resume ~accounting ckpt in
      Array.iter
        (fun q -> ignore (Engine.ingest resumed q))
        (Array.sub trace cut (steps - cut));
      let got = outcome_of resumed in
      got.comm = uninterrupted.comm
      && got.mig = uninterrupted.mig
      && got.steps = uninterrupted.steps
      && got.max_load = uninterrupted.max_load
      && got.violations = uninterrupted.violations
      && got.assignment = uninterrupted.assignment)

(* --- batched / interval-sharded ingest ------------------------------- *)

(* Every decision field except the wall-clock latency, for byte-identity
   comparisons between the per-request and batched paths. *)
let decision_key (d : Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d" d.Engine.step d.Engine.edge
    d.Engine.comm d.Engine.moved d.Engine.cum_comm d.Engine.cum_mig
    d.Engine.max_load

let per_request_run ?accounting ~alg ~seed inst trace =
  let e = Engine.create ?accounting ~alg ~seed inst in
  let ds = Array.map (fun q -> decision_key (Engine.ingest e q)) trace in
  (ds, outcome_of e)

(* split [trace] into batches whose sizes are drawn from [rng] *)
let partition_trace rng ~max_batch trace =
  let steps = Array.length trace in
  let rec go at acc =
    if at >= steps then List.rev acc
    else
      let len = Stdlib.min (steps - at) (1 + Rng.int rng max_batch) in
      go (at + len) (Array.sub trace at len :: acc)
  in
  go 0 []

let with_domains d f =
  Rbgp_util.Pool.set_domains (Some d);
  Fun.protect f ~finally:(fun () -> Rbgp_util.Pool.set_domains None)

(* batched == per-request, decision for decision, for every registry
   algorithm (only onl-dynamic actually shards; the others take the
   sequential fallback inside Simulator.prepare — same contract) *)
let test_batched_matches_per_request () =
  let n = 48 and ell = 4 and steps = 600 and seed = 31 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:13 in
  List.iter
    (fun (spec : Registry.spec) ->
      let alg = spec.Registry.name in
      let expected_ds, expected = per_request_run ~alg ~seed inst trace in
      List.iter
        (fun domains ->
          with_domains domains (fun () ->
              let e = Engine.create ~sanitize:true ~alg ~seed inst in
              let got_ds =
                List.concat_map
                  (fun batch ->
                    Array.to_list
                      (Array.map decision_key (Engine.ingest_batch e batch)))
                  (partition_trace (Rng.create 7) ~max_batch:64 trace)
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s decisions, %d domains" alg domains)
                (Array.to_list expected_ds) got_ds;
              check_outcome
                (Printf.sprintf "%s outcome, %d domains" alg domains)
                expected (outcome_of e)))
        [ 1; 4 ])
    Registry.all

(* the prepared batch must be consumed strictly in order *)
let test_prepare_rejects_out_of_order () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let spec = Registry.find "onl-dynamic" in
  let online = spec.Registry.build ~epsilon:0.5 ~seed:3 inst in
  let st = Simulator.stepper inst online in
  let play = Simulator.prepare st [| 0; 1; 2 |] in
  Alcotest.check_raises "out-of-order play rejected"
    (Invalid_argument "Simulator.prepare: requests must be played in order")
    (fun () -> ignore (play 1))

(* the satellite sweep: sharded vs sequential byte-identity of serve
   records and final tables across every registry algorithm, random
   domain counts, random batch partitions, and a mid-stream
   checkpoint/resume cut at a random batch boundary *)
let qcheck_sharded_identity =
  let gen =
    QCheck2.Gen.(
      let* alg_idx = int_bound (List.length Registry.all - 1) in
      let* seed = int_bound 10_000 in
      let* wseed = int_bound 10_000 in
      let* steps = int_range 20 250 in
      let* domains = oneofl [ 1; 2; 3; 5 ] in
      let* max_batch = oneofl [ 1; 3; 17; 64 ] in
      let* pseed = int_bound 10_000 in
      let* cut_frac = float_range 0.0 1.0 in
      return (alg_idx, seed, wseed, steps, domains, max_batch, pseed, cut_frac))
  in
  qtest ~count:50
    "qcheck: sharded batches + checkpoint cut == sequential, all algorithms"
    gen
    (fun (alg_idx, seed, wseed, steps, domains, max_batch, pseed, cut_frac) ->
      let spec = List.nth Registry.all alg_idx in
      let alg = spec.Registry.name in
      let n = 40 and ell = 4 in
      let inst = Instance.blocks ~n ~ell in
      let trace = gen_trace ~n ~steps ~seed:wseed in
      let expected_ds, expected = per_request_run ~alg ~seed inst trace in
      let batches =
        Array.of_list (partition_trace (Rng.create pseed) ~max_batch trace)
      in
      let cut = int_of_float (cut_frac *. float_of_int (Array.length batches)) in
      let cut = Stdlib.min cut (Array.length batches) in
      with_domains domains (fun () ->
          let first = Engine.create ~alg ~seed inst in
          let ds = ref [] in
          let feed e batch =
            Array.iter
              (fun d -> ds := decision_key d :: !ds)
              (Engine.ingest_batch e batch)
          in
          for b = 0 to cut - 1 do
            feed first batches.(b)
          done;
          (* resume goes through explicit restore or (batched) prefix
             replay, depending on the algorithm *)
          let ckpt = Ckpt.of_string (Ckpt.to_string (Engine.checkpoint first)) in
          let resumed = Engine.resume ckpt in
          for b = cut to Array.length batches - 1 do
            feed resumed batches.(b)
          done;
          let got = outcome_of resumed in
          List.rev !ds = Array.to_list expected_ds
          && got.comm = expected.comm && got.mig = expected.mig
          && got.steps = expected.steps
          && got.max_load = expected.max_load
          && got.violations = expected.violations
          && got.assignment = expected.assignment))

(* --- trace codecs --------------------------------------------------- *)

let with_temp ext f =
  let path = Filename.temp_file "rbgp_trace" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let qcheck_binary_text_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 300 in
      let* len = int_bound 500 in
      let* trace = array_size (return len) (int_bound (n - 1)) in
      let* ell = int_bound 16 in
      let* seed = int_range (-100) 10_000 in
      return (n, trace, ell, seed))
  in
  qtest ~count:80 "qcheck: binary <-> text trace round-trip" gen
    (fun (n, trace, ell, seed) ->
      with_temp ".rbt" (fun bin ->
          with_temp ".txt" (fun txt ->
              Trace_codec.write ~path:bin ~n ~ell ~seed trace;
              let hdr = Trace_codec.read_header ~path:bin in
              let from_bin = Trace_codec.read ~path:bin ~n in
              Trace_io.save ~path:txt from_bin;
              let from_txt = Trace_io.load ~path:txt ~n in
              Trace_codec.looks_binary ~path:bin
              && (not (Trace_codec.looks_binary ~path:txt))
              && hdr.Trace_codec.n = n
              && hdr.Trace_codec.ell = ell
              && hdr.Trace_codec.seed = seed
              && from_bin = trace && from_txt = trace)))

let test_codec_streaming_fold () =
  let n = 200 in
  let trace = Array.init 1000 (fun i -> (i * 17) mod n) in
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n ~ell:8 ~seed:42 trace;
      let hdr, rev =
        Trace_codec.fold ~path ~n ~init:[] ~f:(fun acc e -> e :: acc)
      in
      Alcotest.(check int) "header n" n hdr.Trace_codec.n;
      Alcotest.(check (array int)) "fold == read" trace
        (Array.of_list (List.rev rev)))

let test_codec_detects_torn_frame () =
  let n = 300 in
  (* edge 200 needs a two-byte varint: chopping one byte tears the frame *)
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n ~ell:0 ~seed:0 [| 1; 200 |];
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw - 1)));
      match Trace_codec.read ~path ~n with
      | _ -> Alcotest.fail "torn frame accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "error mentions torn frame" true
            (Astring.String.is_infix ~affix:"torn" msg))

let test_codec_rejects_wrong_n () =
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n:64 ~ell:0 ~seed:0 [| 1; 2; 3 |];
      match Trace_codec.read ~path ~n:128 with
      | _ -> Alcotest.fail "mismatched n accepted"
      | exception Invalid_argument _ -> ())

let test_trace_io_fold_matches_load () =
  let n = 50 in
  let trace = Array.init 400 (fun i -> (i * 7) mod n) in
  with_temp ".txt" (fun path ->
      Trace_io.save ~path ~comment:"fold test" trace;
      let folded =
        Trace_io.fold ~path ~n ~init:[] ~f:(fun acc e -> e :: acc)
      in
      Alcotest.(check (array int)) "fold == load" (Trace_io.load ~path ~n)
        (Array.of_list (List.rev folded));
      Alcotest.(check (array int)) "load == original" trace
        (Trace_io.load ~path ~n))

let test_trace_io_error_names_path () =
  with_temp ".txt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "1\nbogus\n2\n");
      match Trace_io.load ~path ~n:10 with
      | _ -> Alcotest.fail "bogus line accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S names the file" msg)
            true
            (Astring.String.is_infix ~affix:path msg
            && Astring.String.is_infix ~affix:"line 2" msg))

(* --- sources -------------------------------------------------------- *)

let test_source_binary_and_text_agree () =
  let n = 96 in
  let trace = gen_trace ~n ~steps:700 ~seed:13 in
  let drain src =
    let acc = ref [] in
    let rec go () =
      match Source.next src with
      | Some e ->
          acc := e :: !acc;
          go ()
      | None -> ()
    in
    go ();
    Source.close src;
    Array.of_list (List.rev !acc)
  in
  with_temp ".rbt" (fun bin ->
      with_temp ".txt" (fun txt ->
          Trace_codec.write ~path:bin ~n ~ell:8 ~seed:13 trace;
          Trace_io.save ~path:txt trace;
          let from_bin = drain (Source.open_file ~n bin) in
          let from_txt = drain (Source.open_file ~n txt) in
          Alcotest.(check (array int)) "binary source" trace from_bin;
          Alcotest.(check (array int)) "text source" trace from_txt))

let test_source_mmap_kinds () =
  let n = 64 in
  let trace = gen_trace ~n ~steps:50 ~seed:5 in
  with_temp ".rbt" (fun bin ->
      with_temp ".txt" (fun txt ->
          Trace_codec.write ~path:bin ~n ~ell:8 ~seed:5 trace;
          Trace_io.save ~path:txt trace;
          let kind_of ?format ?mmap path =
            let src = Source.open_file ?format ?mmap ~n path in
            let k = Source.kind src in
            Source.close src;
            k
          in
          let pp_kind = function `Mmap -> "mmap" | `Channel -> "channel" in
          let kind = Alcotest.testable (Fmt.of_to_string pp_kind) ( = ) in
          Alcotest.check kind "binary file auto-detects to mmap" `Mmap
            (kind_of bin);
          Alcotest.check kind "--mmap off forces the channel" `Channel
            (kind_of ~mmap:`Off bin);
          Alcotest.check kind "--mmap on maps" `Mmap (kind_of ~mmap:`On bin);
          Alcotest.check kind "text traces stream" `Channel (kind_of txt);
          (* the mapped source still exposes the framed header *)
          let src = Source.open_file ~n bin in
          (match Source.header src with
          | Some h ->
              Alcotest.(check int) "mmap header n" n h.Trace_codec.n;
              Alcotest.(check int) "mmap header seed" 5 h.Trace_codec.seed
          | None -> Alcotest.fail "mapped binary source lost its header");
          Source.close src))

let test_source_next_batch_matches_next () =
  let n = 96 in
  let trace = gen_trace ~n ~steps:701 ~seed:17 in
  let drain_batched src ~block =
    let buf = Array.make block 0 in
    let acc = ref [] in
    let continue = ref true in
    while !continue do
      let got = Source.next_batch src buf ~limit:block in
      if got = 0 then continue := false
      else
        for j = 0 to got - 1 do
          acc := buf.(j) :: !acc
        done
    done;
    Source.close src;
    Array.of_list (List.rev !acc)
  in
  with_temp ".rbt" (fun bin ->
      Trace_codec.write ~path:bin ~n ~ell:8 ~seed:17 trace;
      List.iter
        (fun block ->
          Alcotest.(check (array int))
            (Printf.sprintf "mmap next_batch, block %d" block)
            trace
            (drain_batched (Source.open_file ~mmap:`On ~n bin) ~block);
          Alcotest.(check (array int))
            (Printf.sprintf "channel next_batch, block %d" block)
            trace
            (drain_batched (Source.open_file ~mmap:`Off ~n bin) ~block))
        [ 1; 7; 64; 1024 ];
      (* limit outside the buffer is rejected, not clamped *)
      let src = Source.open_file ~mmap:`On ~n bin in
      (match Source.next_batch src (Array.make 4 0) ~limit:5 with
      | _ -> Alcotest.fail "oversized limit accepted"
      | exception Invalid_argument _ -> ());
      Source.close src)

(* The quiet batch path is observationally identical to the instrumented
   one: same costs, same assignment, same replay prefix — so a checkpoint
   taken after quiet batches resumes byte-identically. *)
let test_quiet_batch_identity () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:900 ~seed:23 in
  List.iter
    (fun alg ->
      let inst = Instance.blocks ~n ~ell in
      let loud = Engine.create ~alg ~seed:3 inst in
      let quiet = Engine.create ~alg ~seed:3 inst in
      let block = 128 in
      let at = ref 0 in
      while !at < Array.length trace do
        let len = Stdlib.min block (Array.length trace - !at) in
        let chunk = Array.sub trace !at len in
        ignore (Engine.ingest_batch loud chunk);
        Engine.ingest_batch_quiet quiet chunk;
        at := !at + len
      done;
      check_outcome
        (Printf.sprintf "%s: quiet == instrumented" alg)
        (outcome_of loud) (outcome_of quiet);
      Alcotest.(check int)
        (alg ^ ": same position") (Engine.pos loud) (Engine.pos quiet);
      Alcotest.(check int)
        (alg ^ ": metrics saw every request")
        (Array.length trace)
        (Metrics.requests (Engine.metrics quiet));
      let ck_loud = Engine.checkpoint loud
      and ck_quiet = Engine.checkpoint quiet in
      Alcotest.(check (array int))
        (alg ^ ": identical replay prefix")
        (Prefix_log.to_array ck_loud.Ckpt.prefix)
        (Prefix_log.to_array ck_quiet.Ckpt.prefix);
      let resumed = Engine.resume ck_quiet in
      check_outcome
        (alg ^ ": quiet checkpoint resumes")
        (outcome_of loud) (outcome_of resumed))
    [ "onl-dynamic"; "never-move" ]

(* End-to-end: the same binary trace served from the mmap source and the
   channel source produces identical outcomes — the CLI identity behind
   --mmap auto/on/off. *)
let test_source_mmap_vs_channel_serve_identity () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:800 ~seed:29 in
  with_temp ".rbt" (fun bin ->
      Trace_codec.write ~path:bin ~n ~ell ~seed:29 trace;
      let serve ~mmap ~quiet =
        let inst = Instance.blocks ~n ~ell in
        let engine = Engine.create ~alg:"onl-dynamic" ~seed:7 inst in
        let src = Source.open_file ~mmap ~n bin in
        let buf = Array.make 256 0 in
        let continue = ref true in
        while !continue do
          let got = Source.next_batch src buf ~limit:(Array.length buf) in
          if got = 0 then continue := false
          else begin
            let chunk = Array.sub buf 0 got in
            if quiet then Engine.ingest_batch_quiet engine chunk
            else ignore (Engine.ingest_batch engine chunk)
          end
        done;
        Source.close src;
        outcome_of engine
      in
      let reference = serve ~mmap:`Off ~quiet:false in
      check_outcome "mmap == channel" reference (serve ~mmap:`On ~quiet:false);
      check_outcome "mmap quiet == channel instrumented" reference
        (serve ~mmap:`On ~quiet:true))

(* Construction failures must release the channel exactly when the
   source was to own it: open_file hands its descriptor straight to
   of_channel, so a header-parse error without the close would leak an
   fd per failed open.  A caller-owned channel must survive the same
   failure untouched. *)
let test_source_owned_channel_closed_on_header_error () =
  with_temp ".rbt" (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "NOTATRACE");
      let ic = open_in_bin path in
      (match Source.of_channel ~path ~owns_channel:true ~format:`Binary ~n:8 ic with
      | _ -> Alcotest.fail "bad header accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S names the file" msg)
            true
            (Astring.String.is_infix ~affix:path msg));
      (match input_byte ic with
      | _ -> Alcotest.fail "owned channel still open after failed construction"
      | exception Sys_error _ -> ());
      let ic2 = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic2)
        (fun () ->
          (match
             Source.of_channel ~path ~owns_channel:false ~format:`Binary ~n:8
               ic2
           with
          | _ -> Alcotest.fail "bad header accepted"
          | exception Invalid_argument _ -> ());
          match input_byte ic2 with
          | _ -> ()
          | exception Sys_error _ ->
              Alcotest.fail "caller-owned channel closed by failed construction"))

(* A pipe that dies mid-frame (producer killed between the bytes of a
   varint) must surface as a torn-frame decode error carrying the byte
   offset, not as a silent end of stream. *)
let test_source_pipe_eof_mid_frame () =
  let n = 8 and ell = 4 in
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  Trace_codec.output_header oc ~n ~ell ~seed:0;
  Trace_codec.output_request oc 5;
  output_byte oc 0x80 (* continuation bit set, next byte never arrives *);
  close_out oc;
  let ic = Unix.in_channel_of_descr rd in
  let src =
    Source.of_channel ~path:"<pipe>" ~owns_channel:true ~format:`Binary ~n ic
  in
  Fun.protect
    ~finally:(fun () -> Source.close src)
    (fun () ->
      (match Source.next src with
      | Some e -> Alcotest.(check int) "intact frame before the tear" 5 e
      | None -> Alcotest.fail "complete frame reported as end of stream");
      match Source.next src with
      | _ -> Alcotest.fail "torn tail accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S reports a torn frame with offset" msg)
            true
            (Astring.String.is_infix ~affix:"torn frame" msg
            && Astring.String.is_infix ~affix:"byte" msg))

(* --- metrics -------------------------------------------------------- *)

let test_metrics_histogram () =
  let m = Metrics.create () in
  for _ = 1 to 90 do
    Metrics.observe m ~latency_ns:1000 ~comm:1 ~moved:0 ~max_load:3
  done;
  for _ = 1 to 10 do
    Metrics.observe m ~latency_ns:1_000_000 ~comm:0 ~moved:2 ~max_load:5
  done;
  Alcotest.(check int) "requests" 100 (Metrics.requests m);
  Alcotest.(check int) "comm" 90 (Metrics.comm m);
  Alcotest.(check int) "mig" 20 (Metrics.mig m);
  Alcotest.(check int) "max load" 5 (Metrics.max_load m);
  (* 1000ns lands in bucket [512, 1024), 1ms in [2^19, 2^20) *)
  Alcotest.(check int) "p50" 512 (Metrics.quantile m 0.5);
  Alcotest.(check int) "p99" 524288 (Metrics.quantile m 0.99);
  Alcotest.(check bool) "rps positive" true (Metrics.rps m > 0.0);
  Alcotest.(check bool) "json tagged" true
    (Astring.String.is_prefix ~affix:"{\"type\":\"metrics\"" (Metrics.to_json m));
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.requests m);
  Alcotest.(check int) "reset quantile" 0 (Metrics.quantile m 0.99)

(* The latency sum is an int; the rendered surfaces convert it once per
   snapshot.  Their bytes (clock-dependent values masked) are pinned to
   what the float accumulator rendered before, on a fixture with a
   clamped negative latency, a multi-second one and a batch record.
   /tenants embeds [json_of_snapshot] verbatim. *)
let mask key s =
  let kl = String.length key and n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + kl <= n && String.equal (String.sub s !i kl) key then begin
      Buffer.add_string b key;
      i := !i + kl;
      while !i < n && not (String.contains ",}\n" s.[!i]) do
        incr i
      done;
      Buffer.add_char b '_'
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_metrics_surfaces_pinned () =
  let m = Metrics.create () in
  for _ = 1 to 90 do
    Metrics.observe m ~latency_ns:1000 ~comm:1 ~moved:0 ~max_load:3
  done;
  for _ = 1 to 10 do
    Metrics.observe m ~latency_ns:1_000_000 ~comm:0 ~moved:2 ~max_load:5
  done;
  Metrics.observe m ~latency_ns:(-5) ~comm:0 ~moved:0 ~max_load:1;
  Metrics.observe m ~latency_ns:3_000_000_007 ~comm:1 ~moved:1 ~max_load:2;
  Metrics.observe_batch m ~count:64 ~latency_ns:12345 ~comm:3 ~mig:4
    ~max_load:6;
  let s = Metrics.snapshot m in
  Alcotest.(check string) "JSONL record"
    "{\"type\":\"metrics\",\"requests\":166,\"rps\":_,\"p50_ns\":512,\"p90_ns\":512,\"p99_ns\":524288,\"mean_ns\":18133147,\"comm\":94,\"mig\":25,\"max_load\":6,\"degraded\":0,\"recovered\":0,\"elapsed_s\":_}"
    (mask "\"elapsed_s\":" (mask "\"rps\":" (Metrics.json_of_snapshot s)));
  Alcotest.(check string) "Prometheus exposition"
    (String.concat "\n"
       [
         "# HELP rbgp_requests_total Requests served.";
         "# TYPE rbgp_requests_total counter";
         "rbgp_requests_total{tenant=\"t\"} 166";
         "# HELP rbgp_comm_cost_total Cumulative communication cost.";
         "# TYPE rbgp_comm_cost_total counter";
         "rbgp_comm_cost_total{tenant=\"t\"} 94";
         "# HELP rbgp_migration_cost_total Cumulative migration cost.";
         "# TYPE rbgp_migration_cost_total counter";
         "rbgp_migration_cost_total{tenant=\"t\"} 25";
         "# HELP rbgp_degraded_requests_total Requests served on the degraded never-move path.";
         "# TYPE rbgp_degraded_requests_total counter";
         "rbgp_degraded_requests_total{tenant=\"t\"} 0";
         "# HELP rbgp_solver_repromotions_total Re-promotions from the degraded path back to the real solver.";
         "# TYPE rbgp_solver_repromotions_total counter";
         "rbgp_solver_repromotions_total{tenant=\"t\"} 0";
         "# HELP rbgp_max_load Maximum cluster load observed.";
         "# TYPE rbgp_max_load gauge";
         "rbgp_max_load{tenant=\"t\"} 6";
         "# HELP rbgp_uptime_seconds Seconds since metrics were created or reset.";
         "# TYPE rbgp_uptime_seconds gauge";
         "rbgp_uptime_seconds{tenant=\"t\"} _";
         "# HELP rbgp_ingest_latency_seconds Ingest latency histogram.";
         "# TYPE rbgp_ingest_latency_seconds histogram";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"2e-09\"} 1";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"2.56e-07\"} 65";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"1.024e-06\"} 155";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"0.00104858\"} 165";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"4.29497\"} 166";
         "rbgp_ingest_latency_seconds_bucket{tenant=\"t\",le=\"+Inf\"} 166";
         "rbgp_ingest_latency_seconds_sum{tenant=\"t\"} 3.01010235";
         "rbgp_ingest_latency_seconds_count{tenant=\"t\"} 166";
         "";
       ])
    (mask "rbgp_uptime_seconds{tenant=\"t\"} "
       (Metrics.prometheus_exposition [ ([ ("tenant", "t") ], s) ]));
  Alcotest.(check string) "mean latency" "18133146.698795181"
    (Printf.sprintf "%.17g" (Metrics.mean_latency_ns m))

(* The batched path reads the clock once per request and chains the
   stamps: no latency is negative, and together they fit in the wall
   time around the call. *)
let test_batch_latencies_chain () =
  let n = 64 in
  let trace = gen_trace ~n ~steps:4096 ~seed:17 in
  let e = Engine.create ~alg:"onl-dynamic" ~seed:5 (Instance.blocks ~n ~ell:4) in
  let now () = int_of_float (Unix.gettimeofday () *. 1e9) in
  for i = 0 to 7 do
    let before = now () in
    let ds = Engine.ingest_batch e (Array.sub trace (512 * i) 512) in
    let wall = now () - before in
    Array.iter
      (fun (d : Engine.decision) ->
        if d.Engine.latency_ns < 0 then
          Alcotest.failf "request %d: negative latency %d" d.Engine.step
            d.Engine.latency_ns)
      ds;
    let sum =
      Array.fold_left
        (fun acc (d : Engine.decision) -> acc + d.Engine.latency_ns)
        0 ds
    in
    if sum > wall then
      Alcotest.failf "latencies sum to %d ns, over the batch's %d ns" sum wall
  done

(* --- runtime sanitizer ------------------------------------------------- *)

(* Positive: a sanitized run over a healthy algorithm is silent and bills
   exactly what an unsanitized run bills. *)
let test_sanitizer_clean_run () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = gen_trace ~n:32 ~steps:400 ~seed:9 in
  let run sanitize =
    let e = Engine.create ~sanitize ~alg:"onl-dynamic" ~seed:3 inst in
    Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
    let r = Engine.result e in
    (r.Simulator.cost.Cost.comm, r.Simulator.cost.Cost.mig, r.Simulator.max_load)
  in
  let plain = run false and checked = run true in
  Alcotest.(check (triple int int int))
    "sanitized run matches unsanitized" plain checked

(* Negative: corrupting the live assignment between requests (overloading
   one server past the claimed augmentation bound) must be caught by the
   very next sanitized ingest, with the request index in the message.
   [never-move] keeps its hands off the assignment, so the corruption
   survives until the check; [strict:false] keeps the stepper itself from
   raising first. *)
let test_sanitizer_catches_corruption () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let e =
    Engine.create ~strict:false ~sanitize:true ~alg:"never-move" ~seed:1 inst
  in
  ignore (Engine.ingest e 0);
  let a = (Engine.online e).Rbgp_ring.Online.assignment () in
  for p = 0 to 7 do
    Rbgp_ring.Assignment.set a p 0
  done;
  let raised =
    try
      ignore (Engine.ingest e 1);
      None
    with Failure msg -> Some msg
  in
  match raised with
  | None -> Alcotest.fail "sanitizer did not flag an overloaded server"
  | Some msg ->
      Alcotest.(check bool)
        "message names the sanitizer" true
        (Astring.String.is_prefix ~affix:"RBGP_SANITIZE: request 1:" msg)

let () =
  Alcotest.run "serve"
    [
      ( "engine",
        [
          Alcotest.test_case "matches batch simulator" `Quick
            test_engine_matches_simulator;
          Alcotest.test_case "decision records are cumulative" `Quick
            test_engine_decisions_cumulative;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume == uninterrupted (all algs, both \
                              accountings)" `Quick
            test_checkpoint_resume_all_algorithms;
          Alcotest.test_case "explicit state exactly for baselines" `Quick
            test_checkpoint_explicit_state_presence;
          Alcotest.test_case "tampered snapshots rejected" `Quick
            test_resume_detects_tampering;
          Alcotest.test_case "file roundtrip + truncation" `Quick
            test_checkpoint_file_roundtrip;
          qcheck_checkpoint_resume;
        ] );
      ( "batched",
        [
          Alcotest.test_case "batched == per-request (all algs)" `Quick
            test_batched_matches_per_request;
          Alcotest.test_case "prepared batch is order-enforced" `Quick
            test_prepare_rejects_out_of_order;
          qcheck_sharded_identity;
        ] );
      ( "codec",
        [
          qcheck_binary_text_roundtrip;
          Alcotest.test_case "streaming fold" `Quick test_codec_streaming_fold;
          Alcotest.test_case "torn frame detected" `Quick
            test_codec_detects_torn_frame;
          Alcotest.test_case "wrong n rejected" `Quick test_codec_rejects_wrong_n;
          Alcotest.test_case "text fold matches load" `Quick
            test_trace_io_fold_matches_load;
          Alcotest.test_case "text errors name the path" `Quick
            test_trace_io_error_names_path;
        ] );
      ( "source",
        [
          Alcotest.test_case "mmap auto-detection and kinds" `Quick
            test_source_mmap_kinds;
          Alcotest.test_case "next_batch == next (both backends)" `Quick
            test_source_next_batch_matches_next;
          Alcotest.test_case "quiet batches == instrumented batches" `Quick
            test_quiet_batch_identity;
          Alcotest.test_case "mmap == channel end to end" `Quick
            test_source_mmap_vs_channel_serve_identity;
          Alcotest.test_case "binary and text sources agree" `Quick
            test_source_binary_and_text_agree;
          Alcotest.test_case "owned channel closed on header error" `Quick
            test_source_owned_channel_closed_on_header_error;
          Alcotest.test_case "pipe EOF mid-frame is a torn frame" `Quick
            test_source_pipe_eof_mid_frame;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log-bucketed histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "rendered surfaces pinned" `Quick
            test_metrics_surfaces_pinned;
          Alcotest.test_case "batched latencies chain" `Quick
            test_batch_latencies_chain;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "clean run is silent and cost-identical" `Quick
            test_sanitizer_clean_run;
          Alcotest.test_case "corrupted assignment caught with request index"
            `Quick test_sanitizer_catches_corruption;
        ] );
    ]
