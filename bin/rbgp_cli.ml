(* Command-line driver: run experiments, single simulations, or the
   streaming partition service.

     rbgp exp e3                 run experiment E3
     rbgp exp all --quick        quick pass over the whole suite
     rbgp sim --alg onl-static --workload rotating --n 256 --ell 8
     rbgp trace --workload uniform --n 256 --steps 10000 --out t.rbt --format bin
     rbgp serve --alg onl-dynamic --n 256 --ell 8 --trace t.rbt
     cat t.txt | rbgp serve --n 256 --ell 8       # stream from a pipe
     rbgp resume --from run.ckpt --trace t.rbt --skip-prefix
     rbgp checkpoint run.ckpt                     # inspect a snapshot
*)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Enable debug logging of algorithm events.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sizes, for smoke runs.")

let domains_arg =
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some d when d >= 1 -> Ok d
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Number of domains (cores) used to fan experiment cells out and \
           to pre-solve batched serve requests (see --batch). Defaults to \
           \\$(b,RBGP_DOMAINS) or the machine's recommended domain count; \
           results are byte-identical for any value.")

let grain_arg =
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some g when g >= 1 -> Ok g
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "grain" ] ~docv:"G"
        ~doc:
          "Work-pool scheduling grain: how many grid cells a domain claims \
           per trip to the shared cursor.  Defaults to \\$(b,RBGP_GRAIN) or \
           an automatic per-job value (about eight chunks per domain); the \
           grain changes the schedule, never the results.")

(* --- exp ------------------------------------------------------------ *)

let exp_ids = "all" :: List.map (fun (id, _, _) -> id) Rbgp_harness.Report.all

let exp_id_arg =
  let doc =
    Printf.sprintf "Experiment id (%s)." (String.concat ", " exp_ids)
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun i -> (i, i)) exp_ids))) None
    & info [] ~docv:"EXPERIMENT" ~doc)

let exp_cmd =
  let run id quick seed domains grain verbose =
    setup_logs verbose;
    Rbgp_util.Pool.set_domains domains;
    Rbgp_util.Pool.set_grain grain;
    Rbgp_harness.Report.run ~quick ~seed id
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run one of the E1-E13 experiments (see DESIGN.md).")
    Term.(
      const run $ exp_id_arg $ quick_arg $ seed_arg $ domains_arg $ grain_arg
      $ verbose_arg)

(* --- sim ------------------------------------------------------------ *)

let alg_names =
  [ "onl-dynamic"; "onl-static"; "never-move"; "greedy-colocate";
    "counter-threshold"; "static-oracle" ]

let workload_trace ~workload ~n ~steps rng =
  match workload with
  | "uniform" -> Rbgp_workloads.Workloads.uniform ~n ~steps rng
  | "hotspot" -> Rbgp_workloads.Workloads.hotspot ~n ~steps rng
  | "rotating" -> Rbgp_workloads.Workloads.rotating ~n ~steps rng
  | "allreduce" -> Rbgp_workloads.Workloads.allreduce ~n ~steps
  | "zipf" -> Rbgp_workloads.Workloads.zipf ~n ~steps rng
  | "piecewise" -> Rbgp_workloads.Workloads.piecewise_static ~n ~steps rng
  | "cut-chaser" -> Rbgp_workloads.Workloads.adversary_cut_chaser ~n
  | w -> invalid_arg ("unknown workload " ^ w)

let sim alg workload n ell steps epsilon seed verbose trace_file save_trace show =
  setup_logs verbose;
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let rng = Rbgp_util.Rng.create seed in
  let trace_t =
    match trace_file with
    | Some path ->
        Rbgp_ring.Trace.fixed (Rbgp_workloads.Trace_io.load ~path ~n)
    | None -> workload_trace ~workload ~n ~steps rng
  in
  let tarr =
    match trace_t with Rbgp_ring.Trace.Fixed a -> a | _ -> [||]
  in
  let steps = min steps (if Array.length tarr > 0 then Array.length tarr else steps) in
  (match save_trace with
  | Some path when Array.length tarr > 0 ->
      Rbgp_workloads.Trace_io.save ~path
        ~comment:(Printf.sprintf "workload=%s n=%d seed=%d" workload n seed)
        tarr;
      Printf.printf "trace saved to %s\n" path
  | Some _ -> prerr_endline "cannot save an adaptive trace"
  | None -> ());
  let online =
    match alg with
    | "onl-dynamic" ->
        Rbgp_core.Dynamic_alg.online
          (Rbgp_core.Dynamic_alg.create ~epsilon inst (Rbgp_util.Rng.split rng))
    | "onl-static" ->
        Rbgp_core.Static_alg.online
          (Rbgp_core.Static_alg.create ~epsilon inst (Rbgp_util.Rng.split rng))
    | "never-move" -> Rbgp_baselines.Baselines.never_move inst
    | "greedy-colocate" -> Rbgp_baselines.Baselines.greedy_colocate inst
    | "counter-threshold" ->
        Rbgp_baselines.Baselines.counter_threshold ~epsilon inst
    | "static-oracle" ->
        if Array.length tarr = 0 then
          invalid_arg "static-oracle needs an oblivious workload";
        Rbgp_baselines.Baselines.static_oracle inst ~trace:tarr
    | a -> invalid_arg ("unknown algorithm " ^ a)
  in
  let r = Rbgp_ring.Simulator.run inst online trace_t ~steps in
  Printf.printf "%s on %s (n=%d ell=%d k=%d steps=%d seed=%d)\n" alg workload n
    ell inst.Rbgp_ring.Instance.k steps seed;
  Printf.printf "  cost: %s\n" (Rbgp_ring.Cost.to_string r.Rbgp_ring.Simulator.cost);
  Printf.printf "  max load: %d (capacity %d, claimed augmentation %.2f)\n"
    r.Rbgp_ring.Simulator.max_load inst.Rbgp_ring.Instance.k
    online.Rbgp_ring.Online.augmentation;
  if show then begin
    Printf.printf "  final assignment (server per process, '|' = cut):\n%s"
      (Rbgp_ring.Render.assignment (online.Rbgp_ring.Online.assignment ()));
    Printf.printf "  loads: %s\n"
      (Rbgp_ring.Render.loads (online.Rbgp_ring.Online.assignment ()))
  end;
  if Array.length tarr > 0 && n > inst.Rbgp_ring.Instance.k then begin
    let sopt = Rbgp_offline.Static_opt.segmented inst tarr in
    let dlb = Rbgp_offline.Lower_bound.dynamic_lb inst tarr () in
    Printf.printf "  static OPT (segmented): %d   dynamic OPT lower bound: %d\n"
      sopt.Rbgp_offline.Static_opt.total dlb
  end

let enum_of l = Arg.enum (List.map (fun x -> (x, x)) l)

let sim_cmd =
  let alg =
    Arg.(
      value
      & opt (enum_of alg_names) "onl-dynamic"
      & info [ "alg" ] ~docv:"ALG" ~doc:"Algorithm to run.")
  in
  let workload =
    Arg.(
      value
      & opt
          (enum_of
             [ "uniform"; "hotspot"; "rotating"; "allreduce"; "zipf";
               "piecewise"; "cut-chaser" ])
          "uniform"
      & info [ "workload" ] ~docv:"W" ~doc:"Workload generator.")
  in
  let n = Arg.(value & opt int 256 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 8 & info [ "ell" ] ~doc:"Number of servers.") in
  let steps = Arg.(value & opt int 20_000 & info [ "steps" ] ~doc:"Requests.") in
  let epsilon =
    Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"Augmentation slack.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:"Read the request trace from FILE (one edge per line).")
  in
  let save_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"FILE"
          ~doc:"Write the generated trace to FILE.")
  in
  let show =
    Arg.(
      value & flag
      & info [ "show" ] ~doc:"Render the final assignment as ASCII art.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a single algorithm on a single workload.")
    Term.(
      const sim $ alg $ workload $ n $ ell $ steps $ epsilon $ seed_arg
      $ verbose_arg $ trace_file $ save_trace $ show)

(* --- serve / resume ------------------------------------------------- *)

module Engine = Rbgp_serve.Engine
module Metrics = Rbgp_serve.Metrics
module Ckpt = Rbgp_serve.Checkpoint
module Prefix_log = Rbgp_serve.Prefix_log
module Source = Rbgp_serve.Source
module Fault = Rbgp_serve.Fault
module Net = Rbgp_serve.Net
module Tenant = Rbgp_serve.Tenant
module Proto = Rbgp_serve.Proto

(* --faults wins over RBGP_FAULTS; with neither, hooks stay disabled. *)
let configure_faults = function
  | Some spec -> Fault.configure spec
  | None -> Fault.configure_from_env ()

let format_conv =
  Arg.enum [ ("auto", `Auto); ("text", `Text); ("bin", `Binary) ]

let accounting_conv =
  Arg.enum
    [ ("auto", `Auto); ("incremental", `Incremental); ("diff", `Diff);
      ("check", `Check) ]

let open_source ~trace ~format ~mmap ~n =
  match trace with
  | "-" ->
      let format = match format with `Auto -> `Text | (`Text | `Binary) as f -> f in
      Source.of_channel ~path:"<stdin>" ~format ~n stdin
  | path -> Source.open_file ~format ~mmap ~n path

(* The serving loop shared by [serve] and [resume]: pull requests until
   the source dries up (or --stop-after), emit one JSONL decision per
   request, embed a metrics record every N requests, keep a rolling
   checkpoint, dump metrics on SIGUSR1 and at exit. *)
let serve_loop engine source ~decisions ~metrics_every ~checkpoint_path
    ~checkpoint_every ~checkpoint_keep ~stop_after ~batch =
  let m = Engine.metrics engine in
  (try
     Sys.set_signal Sys.sigusr1
       (Sys.Signal_handle
          (fun _ ->
            prerr_endline (Metrics.summary m);
            flush stderr))
   with Invalid_argument _ | Sys_error _ -> ());
  let write_ckpt () =
    match checkpoint_path with
    | Some path ->
        if checkpoint_keep > 1 then
          Ckpt.write_rolling ~path ~keep:checkpoint_keep
            (Engine.checkpoint engine)
        else Ckpt.write ~path (Engine.checkpoint engine)
    | None -> ()
  in
  (* a cadence boundary (metrics-every / checkpoint-every) fires when a
     batch crosses a multiple of N; with --batch 1 this is exactly the old
     [pos mod N = 0] behaviour *)
  let crossed every ~before ~after =
    every > 0 && after / every > before / every
  in
  let buf = Array.make (Stdlib.max 1 batch) 0 in
  (* full batches go to the engine without the defensive copy — on the
     mmap source that makes the whole pull-to-solve path allocation-free *)
  let batch_view got = if got = Array.length buf then buf else Array.sub buf 0 got in
  let served = ref 0 in
  let continue = ref true in
  while !continue do
    let want =
      let cap = Array.length buf in
      match stop_after with
      | Some s -> Stdlib.min cap (s - !served)
      | None -> cap
    in
    if want <= 0 then continue := false
    else begin
      let got = Source.next_batch source buf ~limit:want in
      if got = 0 then continue := false
      else begin
        let before = Engine.pos engine in
        let edges = batch_view got in
        if decisions then
          Array.iter
            (fun d -> print_endline (Engine.decision_to_json d))
            (Engine.ingest_batch engine edges)
        else Engine.ingest_batch_quiet engine edges;
        served := !served + got;
        let after = Engine.pos engine in
        if crossed metrics_every ~before ~after then
          print_endline (Metrics.to_json m);
        if crossed checkpoint_every ~before ~after then write_ckpt ()
      end
    end
  done;
  write_ckpt ();
  print_endline (Metrics.to_json m);
  print_endline (Engine.result_to_json engine);
  flush stdout;
  prerr_endline (Metrics.summary m)

(* Consume the already-served prefix of a source that replays the stream
   from the beginning, verifying it against the checkpoint request for
   request.  Verified in blocks: one next_batch pull per chunk instead of
   one closure dispatch per already-served request. *)
let consume_prefix source (ckpt : Ckpt.t) =
  let total = Prefix_log.count ckpt.Ckpt.prefix in
  let size = Stdlib.min 8192 (Stdlib.max 1 total) in
  let chunk = Array.make size 0 and served = Array.make size 0 in
  let cur = Prefix_log.cursor ckpt.Ckpt.prefix in
  let at = ref 0 in
  while !at < total do
    let want = Stdlib.min size (total - !at) in
    let got = Source.next_batch source chunk ~limit:want in
    if got = 0 then
      failwith
        (Printf.sprintf
           "resume: trace ends at request %d but the checkpoint already \
            served %d requests"
           !at ckpt.Ckpt.pos);
    ignore (Prefix_log.decode cur served ~limit:got);
    for j = 0 to got - 1 do
      if chunk.(j) <> served.(j) then
        failwith
          (Printf.sprintf
             "resume: trace diverges from checkpoint at request %d (trace \
              has %d, checkpoint served %d)"
             (!at + j) chunk.(j) served.(j))
    done;
    at := !at + got
  done

(* Supervised serving: run the loop, and on an engine / decode /
   sanitizer / injected failure restore the newest checkpoint generation
   that verifies, replay its verified prefix from the reopened trace, and
   continue — with bounded exponential backoff between restarts so a
   persistently failing source cannot spin.  Only failures the recovery
   machinery is built for are caught (named exception list below); anything
   else escapes to the top level untouched. *)
let supervised_serve ~alg ~accounting ~epsilon ~seed ~inst ~trace ~format
    ~mmap ~n ~decisions ~metrics_every ~checkpoint_path ~checkpoint_every
    ~checkpoint_keep ~stop_after ~batch ~budget_ns ~cooloff =
  let ckpt_path =
    match checkpoint_path with
    | Some p -> p
    | None -> invalid_arg "serve: --supervise requires --checkpoint"
  in
  if trace = "-" then
    invalid_arg
      "serve: --supervise needs a re-openable --trace file, not stdin";
  let max_restarts = 16 in
  let restarts = ref 0 in
  let rec attempt () =
    let engine, recovered =
      if !restarts = 0 then
        (Engine.create ~accounting ~epsilon ~alg ~seed inst, None)
      else
        match Ckpt.read_latest ~path:ckpt_path () with
        | r ->
            List.iter
              (fun (p, msg) ->
                Logs.warn (fun k ->
                    k "supervise: skipped checkpoint generation %s: %s" p msg))
              r.Ckpt.skipped;
            Logs.warn (fun k ->
                k "supervise: restored generation %d at request %d"
                  r.Ckpt.generation r.Ckpt.ckpt.Ckpt.pos);
            (Engine.resume ~accounting r.Ckpt.ckpt, Some r.Ckpt.ckpt)
        | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
            Logs.warn (fun k ->
                k "supervise: no verifiable checkpoint (%s); starting fresh"
                  msg);
            (Engine.create ~accounting ~epsilon ~alg ~seed inst, None)
    in
    Engine.set_solver_budget engine ~budget_ns ~cooloff;
    let source = open_source ~trace ~format ~mmap ~n in
    match
      Fun.protect
        ~finally:(fun () -> Source.close source)
        (fun () ->
          (match recovered with
          | Some ckpt -> consume_prefix source ckpt
          | None -> ());
          (* --stop-after counts the whole run, so a restarted attempt
             only serves what the restored engine has not already seen *)
          let stop_after =
            Option.map
              (fun s -> Stdlib.max 0 (s - Engine.pos engine))
              stop_after
          in
          serve_loop engine source ~decisions ~metrics_every
            ~checkpoint_path ~checkpoint_every ~checkpoint_keep ~stop_after
            ~batch)
    with
    | () -> ()
    | exception
        (( Fault.Injected_crash _ | Failure _ | Invalid_argument _
         | Sys_error _ | End_of_file
         | Unix.Unix_error _ ) as e)
      when !restarts < max_restarts ->
        incr restarts;
        Logs.warn (fun k ->
            k "supervise: attempt failed (%s); restart %d/%d"
              (Printexc.to_string e) !restarts max_restarts);
        Unix.sleepf
          (Stdlib.min (0.005 *. (2. ** float_of_int (!restarts - 1))) 0.5);
        attempt ()
  in
  attempt ()

let trace_arg =
  Arg.(
    value & opt string "-"
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Request source: a trace file (text or framed binary), or '-' for \
           stdin (the default) so requests can be piped in as they arrive.")

let format_arg =
  Arg.(
    value & opt format_conv `Auto
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Trace format: auto (detect by magic bytes; text for stdin), text \
           (one edge per line) or bin (framed binary, see DESIGN.md).")

let mmap_conv = Arg.enum [ ("auto", `Auto); ("on", `On); ("off", `Off) ]

let mmap_arg =
  Arg.(
    value & opt mmap_conv `Auto
    & info [ "mmap" ] ~docv:"MODE"
        ~doc:
          "Zero-copy trace replay: auto (default: mmap regular binary trace \
           files, stream everything else), on (require the mmap path; fails \
           on pipes), off (always stream through a channel).  Both paths \
           produce identical decisions, costs and checkpoints.")

let accounting_arg =
  Arg.(
    value & opt accounting_conv `Auto
    & info [ "accounting" ] ~docv:"MODE"
        ~doc:
          "Cost accounting mode: auto, incremental (require move journal), \
           diff (full scans), or check (incremental verified against the \
           full-scan oracle).")

let decisions_arg =
  Arg.(
    value & flag
    & info [ "no-decisions" ]
        ~doc:
          "Suppress per-request JSONL decision records (metrics and the \
           final result record are still emitted) — useful for raw \
           throughput measurements.")

let metrics_every_arg =
  Arg.(
    value & opt int 1000
    & info [ "metrics-every" ] ~docv:"N"
        ~doc:
          "Embed a metrics record in the JSONL stream every N requests \
           (0 disables).")

let checkpoint_path_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Write a snapshot to FILE at exit (and every N requests with \
              --checkpoint-every).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Refresh the --checkpoint snapshot every N requests (0: only \
              at exit).")

let stop_after_arg =
  Arg.(
    value & opt (some int) None
    & info [ "stop-after" ] ~docv:"N"
        ~doc:"Stop serving after N requests even if the source has more \
              (e.g. to take a mid-stream checkpoint).")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Ingest up to N requests per engine call (default 1).  Batching \
           lets interval-sharded algorithms pre-solve requests in parallel \
           across domains (see --domains); decisions, costs and \
           checkpoints are byte-identical to --batch 1.  Metrics and \
           checkpoint cadences are evaluated at batch boundaries.")

let checkpoint_keep_arg =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-keep" ] ~docv:"K"
        ~doc:
          "Keep K rolling checkpoint generations (FILE, FILE.1, ..., \
           FILE.(K-1), newest first); recovery falls back past torn or \
           corrupt generations to the newest one that verifies.  K = 1 \
           (the default) keeps a single atomically-replaced snapshot.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault-injection plan, e.g. \
           'ckpt-tear@3,read-eintr:0.01,solver-stall@5000' (see DESIGN.md \
           for the grammar).  Overrides \\$(b,RBGP_FAULTS).  For testing \
           the recovery machinery; without a plan every hook is disabled.")

let solver_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "solver-budget" ] ~docv:"NS"
        ~doc:
          "Per-request solver budget in nanoseconds (0 disables).  A \
           request whose solve exceeds the budget degrades the engine to \
           the never-move path for --budget-cooloff requests before \
           re-promoting; degraded spans are recorded in metrics and \
           checkpoints, and resume replays them exactly.")

let budget_cooloff_arg =
  Arg.(
    value & opt int 64
    & info [ "budget-cooloff" ] ~docv:"N"
        ~doc:
          "How many requests the engine serves on the degraded never-move \
           path after a solver-budget overrun before re-promoting to the \
           full algorithm.")

(* --- networked serving: rbgp serve --listen -------------------------- *)

let dump_tenant_metrics router =
  List.iter
    (fun tn ->
      match Tenant.metrics_snapshot tn with
      | Some s ->
          Printf.eprintf "[%s] %s\n" (Tenant.id tn)
            (Metrics.summary_of_snapshot s)
      | None -> ())
    (Tenant.tenants router);
  flush stderr

let install_handler signal handler =
  match Sys.set_signal signal (Sys.Signal_handle handler) with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let net_serve ~listen ~http ~checkpoint_dir ~checkpoint_every ~checkpoint_keep
    ~accounting ~supervise =
  let addr = Net.parse_addr listen in
  let http = Option.map Net.parse_addr http in
  (match checkpoint_dir with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        invalid_arg (Printf.sprintf "serve: --checkpoint-dir %s is a file" dir)
  | None -> ());
  let router =
    Tenant.create ?checkpoint_dir ~checkpoint_every ~checkpoint_keep
      ~accounting ()
  in
  let server = Net.server ?http ~supervise ~router addr in
  (* request_drain only sets a flag, so it is safe from a signal
     handler; the next select round performs the actual drain. *)
  install_handler Sys.sigterm (fun _ -> Net.request_drain server);
  install_handler Sys.sigint (fun _ -> Net.request_drain server);
  install_handler Sys.sigusr1 (fun _ -> dump_tenant_metrics router);
  install_handler Sys.sigpipe (fun _ -> ());
  Logs.app (fun k ->
      k "serving on %s%s%s" listen
        (match http with
        | Some a -> Printf.sprintf ", http on %s" (Net.addr_to_string a)
        | None -> "")
        (if supervise then " (supervised)" else ""));
  Net.run server;
  dump_tenant_metrics router

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve over a socket instead of a trace/stdin: listen on ADDR \
           (unix:PATH or tcp:HOST:PORT) speaking the RBGN framed binary \
           protocol, hosting one engine per tenant routed by the frame \
           stream id.  Tenants are configured by clients at OPEN time, so \
           --alg/--n/--ell/--trace do not apply; --checkpoint-dir, \
           --checkpoint-every, --checkpoint-keep, --accounting, --faults \
           and --supervise do.")

let http_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "http" ] ~docv:"ADDR"
        ~doc:
          "With --listen: also expose HTTP observability on ADDR \
           (unix:PATH or tcp:HOST:PORT): GET /metrics (Prometheus text \
           exposition of every tenant), /healthz and /tenants (JSON status \
           including checkpoint age).")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "With --listen: per-tenant rolling durable checkpoints in DIR \
           (DIR/<tenant>.ckpt), written every --checkpoint-every requests \
           and at close/drain; re-opened tenants resume from the newest \
           generation that verifies.")

(* --- client: drive a networked server -------------------------------- *)

type client_tenant_spec = {
  ct_id : string;
  ct_alg : string;
  ct_n : int;
  ct_ell : int;
  ct_epsilon : float;
  ct_seed : int;
  ct_trace : string;
  ct_out : string option;
}

let parse_tenant_spec s =
  let kvs = String.split_on_char ',' s in
  let find key =
    List.find_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i when String.equal (String.sub kv 0 i) key ->
            Some (String.sub kv (i + 1) (String.length kv - i - 1))
        | _ -> None)
      kvs
  in
  let int_of key default =
    match find key with
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "tenant spec: bad %s=%s" key v))
    | None -> Ok default
  in
  let float_of key default =
    match find key with
    | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "tenant spec: bad %s=%s" key v))
    | None -> Ok default
  in
  match (find "id", find "trace") with
  | None, _ -> Error "tenant spec: missing id="
  | _, None -> Error "tenant spec: missing trace="
  | Some id, Some trace -> (
      match (int_of "n" 256, int_of "ell" 8, int_of "seed" 42,
             float_of "epsilon" 0.5)
      with
      | Ok n, Ok ell, Ok seed, Ok epsilon ->
          Ok
            {
              ct_id = id;
              ct_alg = Option.value (find "alg") ~default:"onl-dynamic";
              ct_n = n;
              ct_ell = ell;
              ct_epsilon = epsilon;
              ct_seed = seed;
              ct_trace = trace;
              ct_out = find "out";
            }
      | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _
      | _, _, _, Error e ->
          Error e)

let tenant_spec_conv =
  let parse s =
    match parse_tenant_spec s with Ok t -> Ok t | Error e -> Error (`Msg e)
  in
  let print fmt t = Format.pp_print_string fmt t.ct_id in
  Arg.conv (parse, print)

(* Live client-side state for one tenant stream. *)
type client_tenant = {
  spec : client_tenant_spec;
  stream : int;
  open_payload : Proto.open_payload;
  oc : out_channel;
  mutable src : Source.t option;
  mutable written : int;  (** decision lines already in [oc] *)
  mutable acked : int;  (** requests the server has confirmed *)
  mutable finished : bool;
}

let client_result_json (ct : client_tenant) (c : Proto.closed_payload) =
  Printf.sprintf
    "{\"type\":\"result\",\"alg\":\"%s\",\"requests\":%d,\"comm\":%d,\
     \"mig\":%d,\"total\":%d,\"max_load\":%d,\"violations\":%d}"
    ct.spec.ct_alg c.Proto.closed_pos c.Proto.closed_comm c.Proto.closed_mig
    (c.Proto.closed_comm + c.Proto.closed_mig)
    c.Proto.closed_max_load c.Proto.closed_violations

let skip_requests src count =
  let chunk = Array.make (Stdlib.min 8192 (Stdlib.max 1 count)) 0 in
  let at = ref 0 in
  while !at < count do
    let want = Stdlib.min (Array.length chunk) (count - !at) in
    let got = Source.next_batch src chunk ~limit:want in
    if got = 0 then
      failwith
        (Printf.sprintf
           "client: trace ends at request %d but the server resumes at %d"
           !at count);
    at := !at + got
  done

(* (Re)position a tenant at the server's resume position: re-open the
   trace source and discard the prefix the server has already served.
   Decisions below [written] were already emitted in a previous attempt
   and are skipped on arrival — the engine is deterministic, so the
   replayed lines would be byte-identical anyway (latencies aside). *)
let position_tenant ct ~resume_pos =
  (match ct.src with Some s -> Source.close s | None -> ());
  let src =
    open_source ~trace:ct.spec.ct_trace ~format:`Auto ~mmap:`Auto
      ~n:ct.spec.ct_n
  in
  if resume_pos > 0 then skip_requests src resume_pos;
  ct.src <- Some src;
  ct.acked <- resume_pos

let client_open_all cl tenants =
  List.iter
    (fun ct ->
      if not ct.finished then begin
        let pos = Net.open_stream cl ~stream:ct.stream ct.open_payload in
        position_tenant ct ~resume_pos:pos
      end)
    tenants

let rec client_connect_with_retry ~addr ~attempts =
  match Net.connect addr with
  | cl -> cl
  | exception Net.Disconnected msg when attempts > 1 ->
      Unix.sleepf 0.1;
      Logs.debug (fun k -> k "client: reconnecting (%s)" msg);
      client_connect_with_retry ~addr ~attempts:(attempts - 1)

(* One round for one tenant: pull a batch from its trace, send it, and
   emit any decision lines not already written.  Returns [true] while
   the tenant has more requests. *)
let client_round cl ct ~batch ~quiet ~buf =
  match ct.src with
  | None -> false
  | Some src ->
      let want = Stdlib.min batch (Array.length buf) in
      let got = Source.next_batch src buf ~limit:want in
      if got = 0 then begin
        let closed = Net.close_stream cl ~stream:ct.stream in
        output_string ct.oc (client_result_json ct closed);
        output_char ct.oc '\n';
        flush ct.oc;
        Source.close src;
        ct.src <- None;
        ct.finished <- true;
        false
      end
      else begin
        (if quiet then begin
           let ack = Net.request_quiet cl ~stream:ct.stream buf ~pos:0 ~len:got in
           ct.acked <- ack.Proto.pos
         end
         else begin
           let ds = Net.request cl ~stream:ct.stream buf ~pos:0 ~len:got in
           Array.iter
             (fun (d : Engine.decision) ->
               if d.Engine.step >= ct.written then begin
                 output_string ct.oc (Engine.decision_to_json d);
                 output_char ct.oc '\n';
                 ct.written <- ct.written + 1
               end)
             ds;
           ct.acked <- ct.acked + got
         end);
        true
      end

let run_client ~connect ~tenant_specs ~batch ~quiet ~reconnect ~do_shutdown =
  let addr = Net.parse_addr connect in
  let tenants =
    List.mapi
      (fun i spec ->
        {
          spec;
          stream = i + 1;
          open_payload =
            {
              Proto.tenant = spec.ct_id;
              alg = spec.ct_alg;
              n = spec.ct_n;
              ell = spec.ct_ell;
              epsilon = spec.ct_epsilon;
              seed = spec.ct_seed;
            };
          oc =
            (match spec.ct_out with
            | Some path -> open_out path
            | None -> stdout);
          src = None;
          written = 0;
          acked = 0;
          finished = false;
        })
      tenant_specs
  in
  let buf = Array.make (Stdlib.max 1 batch) 0 in
  let cl = ref (client_connect_with_retry ~addr ~attempts:20) in
  client_open_all !cl tenants;
  let unfinished () = List.exists (fun ct -> not ct.finished) tenants in
  (* Round-robin across tenants, one batch per turn, so concurrent
     tenants genuinely interleave on the one connection. *)
  let reconnects = ref 0 in
  let max_reconnects = 32 in
  let recover msg =
    if (not reconnect) || !reconnects >= max_reconnects then
      failwith (Printf.sprintf "client: connection lost (%s)" msg)
    else begin
      incr reconnects;
      Logs.warn (fun k ->
          k "client: %s; reconnect %d/%d" msg !reconnects max_reconnects);
      Net.close !cl;
      Unix.sleepf (Stdlib.min (0.02 *. (2. ** float_of_int !reconnects)) 0.5);
      cl := client_connect_with_retry ~addr ~attempts:20;
      client_open_all !cl tenants
    end
  in
  while unfinished () do
    match
      List.iter
        (fun ct ->
          if not ct.finished then ignore (client_round !cl ct ~batch ~quiet ~buf))
        tenants
    with
    | () -> ()
    | exception Net.Disconnected msg -> recover msg
    | exception Net.Server_error (code, msg)
      when code = Proto.err_tenant_failed && reconnect ->
        (* Supervised server killed the tenant's engine (injected crash):
           the stream must be re-opened; the server answers with the
           checkpointed position to resume from. *)
        recover (Printf.sprintf "tenant failed: %s" msg)
  done;
  if do_shutdown then begin
    match Net.shutdown_server !cl with
    | () -> ()
    | exception Net.Disconnected _ -> ()
  end
  else Net.close !cl;
  List.iter
    (fun ct ->
      match ct.spec.ct_out with Some _ -> close_out ct.oc | None -> flush ct.oc)
    tenants

let client_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address (unix:PATH or tcp:HOST:PORT).")
  in
  let tenant_arg =
    Arg.(
      value & opt_all tenant_spec_conv []
      & info [ "tenant" ] ~docv:"SPEC"
          ~doc:
            "One tenant to serve (repeatable): comma-separated key=value \
             pairs id=, trace= (required) and alg=, n=, ell=, epsilon=, \
             seed=, out= (optional).  Requests are read from the trace \
             file, served over the connection, and decision/result JSONL \
             is written to out= (default stdout) — byte-compatible with \
             pipe-mode $(b,rbgp serve) output.")
  in
  let batch_arg =
    Arg.(
      value & opt int 512
      & info [ "batch" ] ~docv:"N"
          ~doc:"Requests per frame (one in-flight frame per tenant).")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "Quiet ingest: servers ack whole batches with aggregate \
             totals instead of per-request decisions (the --no-decisions \
             of the wire).")
  in
  let reconnect_arg =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "On connection loss or a supervised tenant failure, reconnect \
             with bounded backoff, re-open every stream and resume from \
             the server's checkpointed position (duplicate decisions are \
             suppressed client-side).")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "After all tenants finish (or immediately with no --tenant), \
             ask the server to drain gracefully and stop.")
  in
  let run connect tenant_specs batch quiet reconnect shutdown verbose =
    setup_logs verbose;
    run_client ~connect ~tenant_specs ~batch ~quiet ~reconnect
      ~do_shutdown:shutdown
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a networked rbgp server: open one stream per tenant over \
          a single connection, replay trace files through it, write the \
          decision/result JSONL locally, and optionally reconnect-resume \
          across server crashes.")
    Term.(
      const run $ connect_arg $ tenant_arg $ batch_arg $ quiet_arg
      $ reconnect_arg $ shutdown_arg $ verbose_arg)

let serve_cmd =
  let alg_arg =
    Arg.(
      value
      & opt (enum_of Rbgp_serve.Registry.names) "onl-dynamic"
      & info [ "alg" ] ~docv:"ALG" ~doc:"Algorithm to serve with.")
  in
  let n = Arg.(value & opt int 256 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 8 & info [ "ell" ] ~doc:"Number of servers.") in
  let epsilon =
    Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"Augmentation slack.")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Supervised serving: catch engine, decode and sanitizer \
             failures, restore the newest checkpoint generation that \
             verifies, replay the verified prefix and continue, with \
             bounded exponential backoff between restarts.  Requires \
             --checkpoint and a re-openable --trace file (not stdin).")
  in
  let run alg n ell epsilon seed trace format mmap accounting no_decisions
      metrics_every checkpoint_path checkpoint_every checkpoint_keep
      stop_after batch domains faults solver_budget budget_cooloff supervise
      listen http checkpoint_dir verbose =
    setup_logs verbose;
    Rbgp_util.Pool.set_domains domains;
    configure_faults faults;
    match listen with
    | Some listen ->
        net_serve ~listen ~http ~checkpoint_dir ~checkpoint_every
          ~checkpoint_keep ~accounting ~supervise
    | None ->
    let inst = Rbgp_ring.Instance.blocks ~n ~ell in
    if supervise then
      supervised_serve ~alg ~accounting ~epsilon ~seed ~inst ~trace ~format
        ~mmap ~n ~decisions:(not no_decisions) ~metrics_every
        ~checkpoint_path ~checkpoint_every ~checkpoint_keep ~stop_after
        ~batch ~budget_ns:solver_budget ~cooloff:budget_cooloff
    else begin
      let engine = Engine.create ~accounting ~epsilon ~alg ~seed inst in
      Engine.set_solver_budget engine ~budget_ns:solver_budget
        ~cooloff:budget_cooloff;
      let source = open_source ~trace ~format ~mmap ~n in
      Fun.protect
        ~finally:(fun () -> Source.close source)
        (fun () ->
          serve_loop engine source ~decisions:(not no_decisions)
            ~metrics_every ~checkpoint_path ~checkpoint_every
            ~checkpoint_keep ~stop_after ~batch)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Stream requests through an algorithm: one JSONL decision per \
          request, live metrics, optional rolling checkpoints, fault \
          injection and supervised crash recovery.")
    Term.(
      const run $ alg_arg $ n $ ell $ epsilon $ seed_arg $ trace_arg
      $ format_arg $ mmap_arg $ accounting_arg $ decisions_arg
      $ metrics_every_arg $ checkpoint_path_arg $ checkpoint_every_arg
      $ checkpoint_keep_arg $ stop_after_arg $ batch_arg $ domains_arg
      $ faults_arg $ solver_budget_arg $ budget_cooloff_arg $ supervise_arg
      $ listen_arg $ http_arg $ checkpoint_dir_arg $ verbose_arg)

let resume_cmd =
  let from_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"CKPT" ~doc:"Checkpoint file to resume from.")
  in
  let skip_prefix_arg =
    Arg.(
      value & flag
      & info [ "skip-prefix" ]
          ~doc:
            "The trace source contains the stream from the beginning: \
             consume the already-served prefix first, verifying it matches \
             the checkpoint request for request.")
  in
  let run from trace format mmap accounting skip_prefix no_decisions
      metrics_every checkpoint_path checkpoint_every checkpoint_keep
      stop_after batch domains faults solver_budget budget_cooloff verbose =
    setup_logs verbose;
    Rbgp_util.Pool.set_domains domains;
    configure_faults faults;
    let ckpt = Ckpt.read ~path:from in
    let engine = Engine.resume ~accounting ckpt in
    Engine.set_solver_budget engine ~budget_ns:solver_budget
      ~cooloff:budget_cooloff;
    let source = open_source ~trace ~format ~mmap ~n:ckpt.Ckpt.n in
    Fun.protect
      ~finally:(fun () -> Source.close source)
      (fun () ->
        if skip_prefix then consume_prefix source ckpt;
        serve_loop engine source ~decisions:(not no_decisions) ~metrics_every
          ~checkpoint_path ~checkpoint_every ~checkpoint_keep ~stop_after
          ~batch)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a checkpointed serving run (explicit state restore when \
          the algorithm supports it, deterministic prefix replay \
          otherwise; both verified against the snapshot).")
    Term.(
      const run $ from_arg $ trace_arg $ format_arg $ mmap_arg
      $ accounting_arg $ skip_prefix_arg $ decisions_arg $ metrics_every_arg
      $ checkpoint_path_arg $ checkpoint_every_arg $ checkpoint_keep_arg
      $ stop_after_arg $ batch_arg $ domains_arg $ faults_arg
      $ solver_budget_arg $ budget_cooloff_arg $ verbose_arg)

let checkpoint_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CKPT"
          ~doc:
            "Checkpoint file to inspect — or the literal word 'verify' \
             followed by the file, to check it (CRC trailer, header, full \
             decode) and exit 0 if valid, 1 if not.")
  in
  let second_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"CKPT" ~doc:"With 'verify': the checkpoint to check.")
  in
  let run first second =
    match (first, second) with
    | "verify", Some path -> (
        match Ckpt.verify ~path with
        | Ok t ->
            Printf.printf "%s: ok (%s, n=%d, ell=%d, pos %d)\n" path
              t.Ckpt.alg t.Ckpt.n t.Ckpt.ell t.Ckpt.pos
        | Error msg ->
            Printf.eprintf "%s: INVALID: %s\n" path msg;
            Stdlib.exit 1)
    | "verify", None ->
        prerr_endline "checkpoint verify: missing checkpoint file argument";
        Stdlib.exit 2
    | file, None -> print_endline (Ckpt.to_json (Ckpt.read ~path:file))
    | _, Some extra ->
        Printf.eprintf "checkpoint: unexpected extra argument %s\n" extra;
        Stdlib.exit 2
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Describe a checkpoint file as a JSON record, or verify its \
          integrity ('rbgp checkpoint verify FILE').")
    Term.(const run $ file_arg $ second_arg)

(* --- trace: generate / convert -------------------------------------- *)

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt
          (enum_of
             [ "uniform"; "hotspot"; "rotating"; "allreduce"; "zipf";
               "piecewise" ])
          "uniform"
      & info [ "workload" ] ~docv:"W"
          ~doc:"Workload generator (oblivious generators only).")
  in
  let n = Arg.(value & opt int 256 & info [ "n" ] ~doc:"Number of processes.") in
  let ell =
    Arg.(
      value & opt int 0
      & info [ "ell" ] ~doc:"Server count recorded in the binary header \
                             (0: unspecified).")
  in
  let steps = Arg.(value & opt int 10_000 & info [ "steps" ] ~doc:"Requests.") in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let convert_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "convert" ] ~docv:"FILE"
          ~doc:
            "Convert FILE (text or binary, auto-detected) instead of \
             generating a workload; --n must match the trace.")
  in
  let out_format_arg =
    Arg.(
      value & opt format_conv `Auto
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: text, bin, or auto (bin iff the output path \
             ends in .rbt).")
  in
  let run workload n ell steps seed convert out format =
    let format =
      match format with
      | (`Text | `Binary) as f -> f
      | `Auto -> if Filename.check_suffix out ".rbt" then `Binary else `Text
    in
    let trace, ell, seed, comment =
      match convert with
      | Some path ->
          let comment = Printf.sprintf "converted from %s (n=%d)" path n in
          if Rbgp_workloads.Trace_codec.looks_binary ~path then begin
            let hdr = Rbgp_workloads.Trace_codec.read_header ~path in
            ( Rbgp_workloads.Trace_codec.read ~path ~n,
              hdr.Rbgp_workloads.Trace_codec.ell,
              hdr.Rbgp_workloads.Trace_codec.seed,
              comment )
          end
          else (Rbgp_workloads.Trace_io.load ~path ~n, ell, seed, comment)
      | None -> (
          let rng = Rbgp_util.Rng.create seed in
          let comment =
            Printf.sprintf "workload=%s n=%d seed=%d" workload n seed
          in
          match workload_trace ~workload ~n ~steps rng with
          | Rbgp_ring.Trace.Fixed a -> (a, ell, seed, comment)
          | Rbgp_ring.Trace.Adaptive _ ->
              invalid_arg "trace: adaptive workloads cannot be exported")
    in
    (match format with
    | `Text -> Rbgp_workloads.Trace_io.save ~path:out ~comment trace
    | `Binary ->
        Rbgp_workloads.Trace_codec.write ~path:out ~n ~ell ~seed trace);
    Printf.printf "wrote %d requests to %s (%s)\n" (Array.length trace) out
      (match format with `Text -> "text" | `Binary -> "binary")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Generate a request trace file, or convert one between the text \
          and framed binary formats.")
    Term.(
      const run $ workload $ n $ ell $ steps $ seed_arg $ convert_arg
      $ out_arg $ out_format_arg)

(* --- lint: repo-specific static analysis ----------------------------- *)

let lint_cmd =
  let today =
    let tm = Unix.localtime (Unix.time ()) in
    (tm.Unix.tm_year + 1900, tm.Unix.tm_mon + 1, tm.Unix.tm_mday)
  in
  let exit_nonzero code = if code <> 0 then Stdlib.exit code in
  Cmd.v
    (Cmd.info "lint" ~doc:Rbgp_lint.Cli.doc)
    Term.(const exit_nonzero $ Rbgp_lint.Cli.term ~today)

let main =
  Cmd.group
    (Cmd.info "rbgp" ~version:"1.0.0"
       ~doc:
         "Online balanced graph partitioning for ring demands (SPAA 2023 \
          reproduction).")
    [ exp_cmd; sim_cmd; serve_cmd; client_cmd; resume_cmd; checkpoint_cmd;
      trace_cmd; lint_cmd ]

let () = exit (Cmd.eval main)
