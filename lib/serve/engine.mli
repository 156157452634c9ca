(** The incremental serving engine: request in, decision out.

    Wraps a registered algorithm ({!Registry}) and the simulator's
    accounting stepper ({!Rbgp_ring.Simulator.stepper}) behind an
    [ingest : int -> decision] API that can be driven from an unbounded
    source — a pipe, a socket, a trace file — one request at a time, with
    live {!Metrics} and {!Checkpoint} snapshots at any point.

    {2 Determinism contract}

    An engine is a deterministic function of
    [(alg, epsilon, seed, instance)] and the request sequence: serving the
    same requests always yields the same decisions, costs and assignments
    (latencies excepted).  This is what makes checkpoint/resume exact and
    cheap to verify — see {!resume}.

    {2 Runtime sanitizer}

    With [~sanitize:true] (or the environment variable [RBGP_SANITIZE] set
    to [1]/[true]/[yes]/[on]), every {!ingest} additionally asserts the
    engine's per-step invariants after the algorithm has served the
    request: the assignment is a valid partition (every process on a server
    in range, cached loads consistent with the map), the maximum load
    respects the algorithm's claimed augmentation bound, communication
    charges are unit-sized, and cumulative costs and the running max load
    are monotone.  The first violated invariant raises [Failure] with the
    offending request index.  Off by default — the checks are [O(n)] per
    request.

    {2 Solver budget and degraded serving}

    {!set_solver_budget} arms a per-request solve-time budget: when a
    request's effective latency (measured, plus any {!Fault}-injected
    stall) exceeds it, the next [cooloff] requests are served on the
    frozen never-move path ({!Rbgp_ring.Simulator.step_frozen}) — the
    solver is bypassed, communication is still billed, nothing moves —
    and the solver is re-promoted after the cooloff.  Frozen stretches
    are counted in {!Metrics} ([degraded]/[recovered]) and recorded as
    spans in every {!checkpoint}, so {!resume} replays the identical
    call sequence and the determinism contract survives degradation.
    Degradation triggers are evaluated at request boundaries (batch
    boundaries on the batched paths — a prepared batch is never split).

    {2 Fault hooks}

    When a {!Fault} plan is armed, ingest checks for planned crashes
    ([Injected_crash] before the designated request) and consults the
    plan for injected solver stalls; the batched paths fall back to
    per-request serving (identical decisions by the batch contract) so
    counted faults land on exact request indices.  Disarmed, the hooks
    cost one reference read per request or block. *)

type decision = {
  step : int;  (** 0-based index of the request just served *)
  edge : int;
  comm : int;  (** communication charged for this request (0/1) *)
  moved : int;  (** migrations charged for this request *)
  cum_comm : int;
  cum_mig : int;
  max_load : int;  (** running maximum load *)
  latency_ns : int;
      (** wall-clock ingest latency of this request, clamped at 0.  On the
          batched path the clock is read once per request, so the
          latencies of a batch chain: request [j] runs from request
          [j-1]'s end stamp (the batch-entry stamp for [j = 0]) to its
          own, and they add up to the batch's time in the engine. *)
}

type t

val create :
  ?strict:bool ->
  ?accounting:Rbgp_ring.Simulator.accounting ->
  ?sanitize:bool ->
  ?epsilon:float ->
  alg:string ->
  seed:int ->
  Rbgp_ring.Instance.t ->
  t
(** Builds the named algorithm through {!Registry.find} (raising
    [Invalid_argument] for unknown names) and starts a fresh accounting
    stepper.  [epsilon] defaults to [0.5]; [sanitize] defaults to the
    [RBGP_SANITIZE] environment variable (see the sanitizer section
    above). *)

val ingest : t -> int -> decision
(** Serve one request: charge communication, run the algorithm, charge
    migrations, check capacity ([Failure] in strict mode on violation),
    record the request in the replay prefix and update metrics. *)

val ingest_batch : t -> int array -> decision array
(** Serve a batch of requests through {!Rbgp_ring.Simulator.prepare}: the
    algorithm may pre-solve the whole batch sharded across pool domains
    (see {!Rbgp_ring.Online.t.batch}), while accounting, sanitizer checks,
    the replay prefix and metrics are still advanced request by request in
    arrival order, one clock read per request (see [latency_ns]).  Every
    decision field except the wall-clock [latency_ns] is byte-identical
    to calling {!ingest} on each edge in turn, for any batch decomposition and any domain count; checkpoints
    taken between batches resume identically.  All edges are validated up
    front; on a strict-mode capacity failure mid-batch the engine must
    not be used further (later requests were already pre-solved inside
    the algorithm). *)

val ingest_batch_quiet : t -> int array -> unit
(** {!ingest_batch} without the per-request instrumentation: identical
    accounting, replay prefix, sanitizer behaviour and checkpoints (a
    checkpoint taken after a quiet batch is byte-identical to one taken
    after the same requests through {!ingest}), but no decision records
    are built and the clock is read twice per batch instead of twice per
    request — metrics advance through one aggregate record (see
    {!Metrics.observe_batch}).  This is the [--no-decisions] serving path
    and the engine half of the BENCH_5 million-req/s number.  Sanitizing
    engines transparently fall back to the checked per-request path. *)

val set_solver_budget : t -> budget_ns:int -> cooloff:int -> unit
(** Arm ([budget_ns > 0]) or disarm ([budget_ns = 0]) the per-request
    solver budget; [cooloff] is the length of each frozen stretch.
    Raises [Invalid_argument] on a negative budget or, when arming,
    [cooloff < 1]. *)

val degrading : t -> bool
(** Currently inside a frozen cooloff stretch? *)

val degraded_spans : t -> int array
(** Flattened [(start, len)] pairs of every frozen stretch so far, in
    position order — the same record a {!checkpoint} carries. *)

val pos : t -> int
(** Requests served so far (including any checkpointed prefix). *)

val alg_name : t -> string
val epsilon : t -> float
val seed : t -> int

val instance : t -> Rbgp_ring.Instance.t
(** The run's identity parameters, as passed to {!create} (or recovered
    by {!resume}) — the tenant router matches these against re-[OPEN]
    configurations so one stream id can never silently switch runs. *)

val result : t -> Rbgp_ring.Simulator.result
(** Cumulative totals, identical to what a batch {!Rbgp_ring.Simulator.run}
    over the same request sequence reports. *)

val assignment : t -> int array
val online : t -> Rbgp_ring.Online.t
val metrics : t -> Metrics.t

val checkpoint : t -> Checkpoint.t
(** Snapshot the run: instance parameters, seed, served prefix, cumulative
    costs, current assignment, the algorithm's explicit state when it
    implements the snapshot hook, and the degraded-span record.  The
    prefix is an O(1) view of the engine's {!Prefix_log}, so a snapshot
    costs O(n + requests since the previous one), not O(prefix). *)

val resume :
  ?strict:bool ->
  ?accounting:Rbgp_ring.Simulator.accounting ->
  ?sanitize:bool ->
  Checkpoint.t ->
  t
(** Reconstruct an engine mid-stream.  Uses the explicit-restore fast path
    (O(state)) when the checkpoint carries an algorithm state blob and the
    rebuilt algorithm implements [restore]; otherwise replays the stored
    prefix deterministically (O(prefix)).  Either way the reconstructed
    assignment and cumulative costs are verified against the checkpoint,
    and [Failure] is raised on any mismatch — a resumed engine is
    therefore byte-identical (costs, assignments, reports) to one that
    never stopped.  Replayed requests are excluded from metrics. *)

val decision_to_json : decision -> string
(** One-line JSON record (type tag ["decision"]) for the [rbgp serve]
    JSONL stream. *)

val result_to_json : t -> string
(** Final summary record (type tag ["result"]): algorithm, requests
    served, cumulative costs, max load, violations. *)
