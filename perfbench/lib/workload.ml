(* The benchmark's workloads.  Each stresses a different layer of the
   serving tier; see README.md for which metrics each one should move. *)

type path = Quiet | Decisions
type demand =
  | Rotating of int  (** hot arc advances one edge every [period] requests *)
  | Uniform

type t = {
  name : string;
  tenants : int;
  alg : string;
  n : int;
  ell : int;
  demand : demand;
  path : path;
  batch : int;
  work : int;  (** requests per tenant per session of a 10-second run *)
  sessions : int;  (** sessions per untraced run *)
  independent_sessions : bool;
      (** sessions draw their own seeds from the run seed; otherwise they
          all repeat it *)
  trace_len : int;  (** requests per tenant trace file; clients wrap around *)
  lb_prefix : int;  (** per-tenant prefix [ratio_to_lb] is computed on *)
  ckpt_every : int;  (** rolling checkpoint cadence in requests, 0 = none *)
  kill_at : int option;  (** per-tenant position of the one kill *)
  scrape_every : int;  (** RPCs between metrics scrapes, 0 = none *)
}

let solve_k256 =
  {
    name = "solve-k256";
    tenants = 1;
    alg = "onl-dynamic";
    n = 4096;
    ell = 16;
    demand = Rotating 64;
    path = Quiet;
    batch = 1024;
    work = 1 lsl 20;
    sessions = 2;
    independent_sessions = true;
    trace_len = 1 lsl 20;
    lb_prefix = 1 lsl 20;
    ckpt_every = 0;
    kill_at = None;
    scrape_every = 0;
  }

let wire_small =
  {
    name = "wire-small";
    tenants = 4;
    alg = "never-move";
    n = 4096;
    ell = 16;
    demand = Uniform;
    path = Decisions;
    batch = 64;
    work = 1 lsl 21;
    sessions = 8;
    independent_sessions = false;
    trace_len = 1 lsl 19;
    lb_prefix = 1 lsl 18;
    ckpt_every = 0;
    kill_at = None;
    scrape_every = 0;
  }

(* The kill lands halfway between two checkpoints, so every recovery
   reads a checkpoint, replays its prefix and has the client resend
   half a cadence. *)
let durable_recover =
  let every = 4096 in
  {
    name = "durable-recover";
    tenants = 4;
    alg = "onl-dynamic";
    n = 1024;
    ell = 16;
    demand = Rotating 16;
    path = Quiet;
    batch = 256;
    work = 96 * every;
    sessions = 2;
    independent_sessions = false;
    trace_len = 1 lsl 19;
    lb_prefix = 1 lsl 18;
    ckpt_every = every;
    kill_at = Some ((40 * every) + (every / 2));
    scrape_every = 64;
  }

let all = [ solve_k256; wire_small; durable_recover ]

(* Rolling checkpoint generations kept, the router's default. *)
let ckpt_keep = 3

(* Every run serves a fixed amount of work, so that what grows with
   requests served — each engine's replay prefix, checkpoint sizes,
   resume replays — is the same whatever the speed, and peak memory and
   checkpoint cost do not move with throughput.  [--seconds] scales it
   linearly from [work]; the result never drops below the ratio prefix
   or the 1000 RPCs a p99 needs. *)
let requests_per_tenant w ~seconds =
  let scaled = int_of_float (Float.ceil (float_of_int w.work *. seconds /. 10.)) in
  let rpcs = (1000 + w.tenants - 1) / w.tenants * w.batch in
  let r = Stdlib.max scaled (Stdlib.max w.lb_prefix rpcs) in
  (r + w.batch - 1) / w.batch * w.batch
let find name = List.find_opt (fun w -> String.equal w.name name) all
let instance w = Rbgp_ring.Instance.blocks ~n:w.n ~ell:w.ell

let trace w ~seed tenant =
  let rng = Rbgp_util.Rng.create (Seeds.trace_seed ~seed tenant) in
  let steps = w.trace_len in
  let t =
    match w.demand with
    | Rotating period -> Rbgp_workloads.Workloads.rotating ~n:w.n ~steps ~period rng
    | Uniform -> Rbgp_workloads.Workloads.uniform ~n:w.n ~steps rng
  in
  match t with
  | Rbgp_ring.Trace.Fixed a -> a
  | Rbgp_ring.Trace.Adaptive _ -> invalid_arg "Workload.trace: adaptive"

let tenant_id tenant = Printf.sprintf "t%d" tenant

let open_payload w ~seed tenant =
  {
    Rbgp_serve.Proto.tenant = tenant_id tenant;
    alg = w.alg;
    n = w.n;
    ell = w.ell;
    epsilon = 0.5;
    seed = Seeds.open_seed ~seed tenant;
  }

(* The seeds of an untraced run's sessions.  A single k=256 tenant's
   cost is a few thousand units, set by a few large migrations, so its
   [ratio_to_lb] varies by about a tenth between seeds: solve-k256 takes
   it over two independent sessions.  The four-tenant workloads already
   average four tenants and repeat one seed, which one set of twins
   checks. *)
let session_seeds w ~seed =
  List.init w.sessions (fun k ->
      if w.independent_sessions then Seeds.session_seed ~seed k else seed)

let trace_dir ~dir ~seed = Filename.concat dir (Printf.sprintf "traces-%d" seed)
let trace_file ~dir tenant = Filename.concat dir (tenant_id tenant ^ ".rbgt")
