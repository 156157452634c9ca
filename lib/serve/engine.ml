module Instance = Rbgp_ring.Instance
module Online = Rbgp_ring.Online
module Assignment = Rbgp_ring.Assignment
module Simulator = Rbgp_ring.Simulator
module Cost = Rbgp_ring.Cost

type decision = {
  step : int;
  edge : int;
  comm : int;
  moved : int;
  cum_comm : int;
  cum_mig : int;
  max_load : int;
  latency_ns : int;
}

type t = {
  inst : Instance.t;
  alg_name : string;
  epsilon : float;
  seed : int;
  online : Online.t;
  stepper : Simulator.stepper;
  metrics : Metrics.t;
  prefix : Prefix_log.t;  (* the served requests, encoded for checkpoints *)
  mutable pos : int;
  mutable stamp : int;  (* clock at the end of the last [ingest_step] *)
  sanitize : bool;
  (* solver-budget degradation: when a request's effective solve time
     exceeds [budget_ns] (> 0 enables), the next [cooloff] requests are
     served on the frozen never-move path, then the solver is re-promoted.
     [spans] records every frozen stretch, newest first, so checkpoints
     can reproduce the exact call sequence on replay. *)
  mutable budget_ns : int;
  mutable cooloff : int;
  mutable degraded_left : int;
  mutable spans : (int * int) list;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let sanitize_default () =
  match Sys.getenv_opt "RBGP_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* --- runtime sanitizer ------------------------------------------------ *)

(* Per-request invariant checks, run after every [Simulator.step] when the
   engine was created with [~sanitize:true] (or RBGP_SANITIZE=1).  Each
   check is an invariant the rest of the system silently relies on; the
   sanitizer turns a silent corruption into a [Failure] naming the request
   index at which it first became observable. *)
let check_step_invariants t ~step ~comm ~prev_comm ~prev_mig ~prev_max
    (r : Simulator.result) =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        failwith (Printf.sprintf "RBGP_SANITIZE: request %d: %s" step s))
      fmt
  in
  let a = t.online.Online.assignment () in
  let n = t.inst.Instance.n and ell = t.inst.Instance.ell in
  if Assignment.n a <> n then
    fail "assignment covers %d processes, instance has %d" (Assignment.n a) n;
  (* partition validity: every process on a real server, cached loads in
     sync with the map (their sum over all servers is then n by counting) *)
  let counts = Array.make ell 0 in
  for p = 0 to n - 1 do
    let s = Assignment.server_of a p in
    if s < 0 || s >= ell then
      fail "process %d assigned to invalid server %d (ell = %d)" p s ell;
    counts.(s) <- counts.(s) + 1
  done;
  let loads = Assignment.loads a in
  for s = 0 to ell - 1 do
    if counts.(s) <> loads.(s) then
      fail "server %d: cached load %d, but %d processes actually assigned" s
        loads.(s) counts.(s)
  done;
  (* augmented capacity bound claimed by the algorithm *)
  let augmentation = t.online.Online.augmentation in
  if not (Assignment.check_capacity a ~augmentation) then
    fail "max load %d exceeds augmentation bound %.3f * k = %.3f"
      (Assignment.max_load a) augmentation
      (augmentation *. float_of_int t.inst.Instance.k);
  (* accounting sanity: unit communication charges, monotone cumulatives *)
  if comm <> 0 && comm <> 1 then fail "communication charge %d not in {0,1}" comm;
  if r.Simulator.cost.Cost.comm < prev_comm then
    fail "cumulative comm decreased: %d -> %d" prev_comm
      r.Simulator.cost.Cost.comm;
  if r.Simulator.cost.Cost.mig < prev_mig then
    fail "cumulative mig decreased: %d -> %d" prev_mig r.Simulator.cost.Cost.mig;
  if r.Simulator.max_load < prev_max then
    fail "running max load decreased: %d -> %d" prev_max r.Simulator.max_load

let make_engine ?(strict = true) ?(accounting = `Auto) ?sanitize ~epsilon ~alg
    ~seed ?(cost = Cost.zero ()) ?max_load ?violations ?(steps_done = 0)
    ?prefix (inst : Instance.t) (online : Online.t) =
  let stepper =
    Simulator.stepper ~strict ~accounting ~cost ?max_load ?violations
      ~steps_done inst online
  in
  let sanitize =
    match sanitize with Some b -> b | None -> sanitize_default ()
  in
  {
    inst;
    alg_name = alg;
    epsilon;
    seed;
    online;
    stepper;
    metrics = Metrics.create ();
    prefix =
      (match prefix with
      | Some v -> Prefix_log.of_view v
      | None -> Prefix_log.create ());
    pos = steps_done;
    stamp = 0;
    sanitize;
    budget_ns = 0;
    cooloff = 64;
    degraded_left = 0;
    spans = [];
  }

let create ?strict ?accounting ?sanitize ?(epsilon = 0.5) ~alg ~seed inst =
  let spec = Registry.find alg in
  let online = spec.Registry.build ~epsilon ~seed inst in
  make_engine ?strict ?accounting ?sanitize ~epsilon ~alg ~seed inst online

(* One request's bookkeeping around [play] (the accounting step):
   identical for the per-request and batched paths, so every decision
   field except the wall-clock [latency_ns] is byte-identical between
   them.  [play] takes the stepper and a caller-chosen argument ([e] for
   the per-request paths, the batch index for the prepared path) so the
   per-request callers pass [Simulator.step]/[step_frozen] directly and
   allocate no thunk (r11 patrols this path).  [t0] is the request's
   start stamp; the end stamp is read once, kept in [t.stamp] so that a
   caller serving a run of requests can pass it on as the next [t0], and
   the latency is clamped at 0 should the wall clock step back. *)
let ingest_step t e play x t0 =
  let prev =
    if t.sanitize then begin
      (* capture scalars: the stepper's cost record is mutated in place *)
      let p = Simulator.stepper_result t.stepper in
      Some (p.Simulator.cost.Cost.comm, p.Simulator.cost.Cost.mig, p.Simulator.max_load)
    end
    else None
  in
  let comm, moved = play t.stepper x in
  Prefix_log.push t.prefix e;
  t.pos <- t.pos + 1;
  let r = Simulator.stepper_result t.stepper in
  (match prev with
  | Some (prev_comm, prev_mig, prev_max) ->
      check_step_invariants t ~step:(t.pos - 1) ~comm ~prev_comm ~prev_mig
        ~prev_max r
  | None -> ());
  let t1 = now_ns () in
  t.stamp <- t1;
  let latency_ns = if t1 > t0 then t1 - t0 else 0 in
  Metrics.observe t.metrics ~latency_ns ~comm ~moved
    ~max_load:r.Simulator.max_load;
  {
    step = t.pos - 1;
    edge = e;
    comm;
    moved;
    cum_comm = r.Simulator.cost.Cost.comm;
    cum_mig = r.Simulator.cost.Cost.mig;
    max_load = r.Simulator.max_load;
    latency_ns;
  }

(* --- solver-budget degradation ---------------------------------------- *)

let set_solver_budget t ~budget_ns ~cooloff =
  if budget_ns < 0 then invalid_arg "Engine.set_solver_budget: negative budget";
  if budget_ns > 0 && cooloff < 1 then
    invalid_arg "Engine.set_solver_budget: cooloff < 1";
  t.budget_ns <- budget_ns;
  t.cooloff <- cooloff

let degrading t = t.degraded_left > 0

let degraded_spans t =
  let l = List.rev t.spans in
  let a = Array.make (2 * List.length l) 0 in
  List.iteri
    (fun i (s, len) ->
      a.(2 * i) <- s;
      a.((2 * i) + 1) <- len)
    l;
  a

let spans_of_flat flat =
  let r = ref [] in
  for i = 0 to (Array.length flat / 2) - 1 do
    r := (flat.(2 * i), flat.((2 * i) + 1)) :: !r
  done;
  !r

(* Bookkeeping for one request just served frozen (pos already advanced):
   extend the current span or open a new one, and count the re-promotion
   when the cooloff ends. *)
let note_frozen t =
  let p = t.pos - 1 in
  (match t.spans with
  | (s, len) :: rest when s + len = p -> t.spans <- (s, len + 1) :: rest
  | spans -> t.spans <- (p, 1) :: spans);
  Metrics.note_degraded t.metrics;
  t.degraded_left <- t.degraded_left - 1;
  if t.degraded_left = 0 then Metrics.note_recovered t.metrics

(* Was this request slow enough to degrade?  The effective time is the
   measured solve latency plus any injected stall — virtual, so the fault
   path stays deterministic and fast. *)
let check_budget t ~latency_ns ~step =
  if t.budget_ns > 0 then begin
    let eff =
      latency_ns
      + (if Fault.armed () then Fault.solver_stall_ns ~step else 0)
    in
    if eff > t.budget_ns then t.degraded_left <- t.cooloff
  end

let ingest t e =
  if Fault.armed () then Fault.crash_check ~step:t.pos;
  if t.degraded_left > 0 then begin
    let d = ingest_step t e Simulator.step_frozen e (now_ns ()) in
    note_frozen t;
    d
  end
  else begin
    let d = ingest_step t e Simulator.step e (now_ns ()) in
    check_budget t ~latency_ns:d.latency_ns ~step:d.step;
    d
  end

let ingest_batch t edges =
  let b = Array.length edges in
  if b = 0 then [||]
  else if t.degraded_left > 0 || Fault.armed () then begin
    (* per-request path: frozen spans, crash points and injected stalls
       land on exact request indices (the batched pre-solve would consult
       the solver for requests that must be served frozen) *)
    let out = ref [] in
    Array.iter (fun e -> out := ingest t e :: !out) edges;
    Array.of_list (List.rev !out)
  end
  else begin
    let play = Simulator.prepare t.stepper edges in
    (* one play wrapper per batch, indexed by j — not one thunk per request *)
    let play_step _stepper j = play j in
    (* one clock read per request: request j runs from request j-1's end
       stamp (the batch-entry stamp for j = 0) to its own *)
    t.stamp <- now_ns ();
    let ds = Array.mapi (fun j e -> ingest_step t e play_step j t.stamp) edges in
    (* degradation triggers are evaluated at batch boundaries — a prepared
       batch's [play j] must run for every j in order, so the switch to the
       frozen path applies from the next batch on *)
    if t.budget_ns > 0 then begin
      let worst = ref 0 in
      Array.iter (fun d -> if d.latency_ns > !worst then worst := d.latency_ns) ds;
      if !worst > t.budget_ns then t.degraded_left <- t.cooloff
    end;
    ds
  end

(* The no-decision fast path: same accounting, replay prefix and
   checkpoint-observable state as [ingest_batch], but two clock reads and
   one aggregate metrics record per *batch* instead of per request, and no
   decision records allocated — the dominant per-request overheads once
   the solver itself is cheap (see the bench ingest section).  The
   sanitizer needs per-request before/after scalars, so sanitizing
   engines keep the checked path. *)
let ingest_batch_quiet t edges =
  let b = Array.length edges in
  if b = 0 then ()
  else if
    t.sanitize || t.degraded_left > 0
    || (Fault.armed () && Fault.request_fault_pending ~lo:t.pos ~hi:(t.pos + b))
  then
    (* blocks that need per-request treatment — sanitizing engines, an
       active degradation cooloff, or a counted fault landing inside this
       block — take the checked path; an armed-but-quiet fault plan costs
       this one range check per block (gated <2% in the bench) *)
    ignore (ingest_batch t edges)
  else begin
    let prev = Simulator.stepper_result t.stepper in
    (* capture scalars: the stepper's cost record is mutated in place *)
    let prev_comm = prev.Simulator.cost.Cost.comm
    and prev_mig = prev.Simulator.cost.Cost.mig in
    let t0 = now_ns () in
    let play = Simulator.prepare t.stepper edges in
    for j = 0 to b - 1 do
      ignore (play j);
      Prefix_log.push t.prefix edges.(j);
      t.pos <- t.pos + 1
    done;
    let latency_ns = now_ns () - t0 in
    let r = Simulator.stepper_result t.stepper in
    Metrics.observe_batch t.metrics ~count:b ~latency_ns
      ~comm:(r.Simulator.cost.Cost.comm - prev_comm)
      ~mig:(r.Simulator.cost.Cost.mig - prev_mig)
      ~max_load:r.Simulator.max_load;
    if t.budget_ns > 0 && latency_ns / b > t.budget_ns then
      t.degraded_left <- t.cooloff
  end

let pos t = t.pos
let alg_name t = t.alg_name
let epsilon t = t.epsilon
let seed t = t.seed
let instance t = t.inst
let result t = Simulator.stepper_result t.stepper
let assignment t = Assignment.to_array (t.online.Online.assignment ())
let online t = t.online
let metrics t = t.metrics

let checkpoint t =
  let r = result t in
  {
    Checkpoint.alg = t.alg_name;
    epsilon = t.epsilon;
    seed = t.seed;
    n = t.inst.Instance.n;
    ell = t.inst.Instance.ell;
    k = t.inst.Instance.k;
    initial = Array.copy t.inst.Instance.initial;
    pos = t.pos;
    prefix = Prefix_log.view t.prefix;
    comm = r.Simulator.cost.Cost.comm;
    mig = r.Simulator.cost.Cost.mig;
    max_load = r.Simulator.max_load;
    violations = r.Simulator.capacity_violations;
    assignment = assignment t;
    alg_state =
      Option.map (fun snap -> snap ()) t.online.Online.snapshot;
    degraded = degraded_spans t;
    degraded_left = t.degraded_left;
  }

let verify_against (ckpt : Checkpoint.t) t ~how =
  let r = result t in
  let mismatch what got want =
    failwith
      (Printf.sprintf
         "Engine.resume: %s of %s diverged from checkpoint after %s: %s = %d, \
          checkpoint says %d"
         what ckpt.Checkpoint.alg how what got want)
  in
  if r.Simulator.cost.Cost.comm <> ckpt.Checkpoint.comm then
    mismatch "comm" r.Simulator.cost.Cost.comm ckpt.Checkpoint.comm;
  if r.Simulator.cost.Cost.mig <> ckpt.Checkpoint.mig then
    mismatch "mig" r.Simulator.cost.Cost.mig ckpt.Checkpoint.mig;
  if r.Simulator.max_load <> ckpt.Checkpoint.max_load then
    mismatch "max_load" r.Simulator.max_load ckpt.Checkpoint.max_load;
  if r.Simulator.capacity_violations <> ckpt.Checkpoint.violations then
    mismatch "violations" r.Simulator.capacity_violations
      ckpt.Checkpoint.violations;
  let same_assignment a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b
  in
  if not (same_assignment (assignment t) ckpt.Checkpoint.assignment) then
    failwith
      (Printf.sprintf
         "Engine.resume: assignment of %s diverged from checkpoint after %s"
         ckpt.Checkpoint.alg how)

let resume ?(strict = true) ?(accounting = `Auto) ?sanitize
    (ckpt : Checkpoint.t) =
  let inst =
    Instance.make ~n:ckpt.Checkpoint.n ~ell:ckpt.Checkpoint.ell
      ~k:ckpt.Checkpoint.k ~initial:(Array.copy ckpt.Checkpoint.initial) ()
  in
  let spec = Registry.find ckpt.Checkpoint.alg in
  let online =
    spec.Registry.build ~epsilon:ckpt.Checkpoint.epsilon
      ~seed:ckpt.Checkpoint.seed inst
  in
  match (ckpt.Checkpoint.alg_state, online.Online.restore) with
  | Some state, Some restore ->
      (* explicit restore: O(state), no replay.  The stepper created below
         snapshots the restored assignment as its baseline, so restore-time
         moves are not billed, exactly like construction-time moves. *)
      restore state;
      let t =
        make_engine ~strict ~accounting ?sanitize ~epsilon:ckpt.Checkpoint.epsilon
          ~alg:ckpt.Checkpoint.alg ~seed:ckpt.Checkpoint.seed
          ~cost:
            {
              Cost.comm = ckpt.Checkpoint.comm;
              Cost.mig = ckpt.Checkpoint.mig;
            }
          ~max_load:ckpt.Checkpoint.max_load
          ~violations:ckpt.Checkpoint.violations
          ~steps_done:ckpt.Checkpoint.pos ~prefix:ckpt.Checkpoint.prefix inst
          online
      in
      verify_against ckpt t ~how:"explicit state restore";
      t.spans <- spans_of_flat ckpt.Checkpoint.degraded;
      t.degraded_left <- ckpt.Checkpoint.degraded_left;
      t
  | _ ->
      (* deterministic prefix replay: rebuild from (alg, epsilon, seed,
         instance) and re-serve the stored prefix through the same
         accounting *)
      let t =
        make_engine ~strict ~accounting ?sanitize ~epsilon:ckpt.Checkpoint.epsilon
          ~alg:ckpt.Checkpoint.alg ~seed:ckpt.Checkpoint.seed inst online
      in
      if Array.length ckpt.Checkpoint.degraded = 0 then begin
        (* replay through the quiet batched path, decoding the view into
           one reused chunk: byte-identical to per-request ingest by the
           Online.batch contract, without a decision record or a clock
           pair per request (replayed requests leave no metrics anyway) *)
        let cur = Prefix_log.cursor ckpt.Checkpoint.prefix in
        let chunk = Array.make 8192 0 in
        let continue = ref true in
        while !continue do
          let got = Prefix_log.decode cur chunk ~limit:(Array.length chunk) in
          if got = Array.length chunk then ingest_batch_quiet t chunk
          else begin
            if got > 0 then ingest_batch_quiet t (Array.sub chunk 0 got);
            continue := false
          end
        done
      end
      else begin
        (* span-aware replay: positions the live run served on the frozen
           never-move path are replayed frozen, everything else through
           the solver — the exact call sequence of the original run *)
        let prefix = Prefix_log.to_array ckpt.Checkpoint.prefix in
        let m = Array.length prefix in
        let spans = ckpt.Checkpoint.degraded in
        let nspans = Array.length spans / 2 in
        let si = ref 0 in
        let cur_frozen = ref false in
        let play stepper edge =
          if !cur_frozen then Simulator.step_frozen stepper edge
          else Simulator.step stepper edge
        in
        t.stamp <- now_ns ();
        for i = 0 to m - 1 do
          while
            !si < nspans && spans.(2 * !si) + spans.((2 * !si) + 1) <= i
          do
            incr si
          done;
          cur_frozen := !si < nspans && spans.(2 * !si) <= i;
          let e = prefix.(i) in
          ignore (ingest_step t e play e t.stamp)
        done
      end;
      verify_against ckpt t ~how:"prefix replay";
      t.spans <- spans_of_flat ckpt.Checkpoint.degraded;
      t.degraded_left <- ckpt.Checkpoint.degraded_left;
      Metrics.reset t.metrics;
      t

let decision_to_json d =
  Printf.sprintf
    "{\"type\":\"decision\",\"step\":%d,\"edge\":%d,\"comm\":%d,\"mig\":%d,\
     \"cum_comm\":%d,\"cum_mig\":%d,\"max_load\":%d,\"latency_ns\":%d}"
    d.step d.edge d.comm d.moved d.cum_comm d.cum_mig d.max_load d.latency_ns

let result_to_json t =
  let r = result t in
  Printf.sprintf
    "{\"type\":\"result\",\"alg\":\"%s\",\"requests\":%d,\"comm\":%d,\
     \"mig\":%d,\"total\":%d,\"max_load\":%d,\"violations\":%d}"
    t.alg_name r.Simulator.steps r.Simulator.cost.Cost.comm
    r.Simulator.cost.Cost.mig
    (Cost.total r.Simulator.cost)
    r.Simulator.max_load r.Simulator.capacity_violations
