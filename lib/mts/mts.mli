(** Metrical task systems: the online problem the Section-3 reduction
    targets, and the common interface of its solvers.

    An MTS instance over a metric [(S, d)] starts in state [s0]; each step a
    cost vector [T] arrives, the solver moves to a state [s'] and pays
    [d(s, s') + T(s')].  The paper plugs an arbitrary [alpha(k)]-competitive
    MTS algorithm into each interval; here solvers are first-class values so
    the composed algorithm can be instantiated with any of
    {!Work_function}, {!Smin_mw}, {!Hst_mts} or {!Marking}
    (experiment E9 ablates this choice). *)

type t
(** A running solver instance with internal cost accounting. *)

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t
(** Solvers are created per MTS instance.  Deterministic solvers ignore the
    rng. *)

val make :
  ?next_indicator:(int -> int -> int) ->
  name:string ->
  metric:Metric.t ->
  start:int ->
  next:(float array -> int -> int) ->
  unit ->
  t
(** [make ~name ~metric ~start ~next ()] wraps a transition function
    [next cost_vector current_state -> new_state] with state tracking and
    cost accounting.  [next_indicator e current_state -> new_state] is the
    transition on the unit cost vector at [e] (see {!serve_indicator});
    when omitted, it sets entry [e] of one reused all-zero scratch vector,
    calls [next] and clears the entry again, so the solver behaves exactly
    as under [serve (indicator e ~n)].  Used by the solver modules; exposed
    for tests that need scripted solvers. *)

val name : t -> string
val metric : t -> Metric.t
val state : t -> int

val serve : t -> float array -> int
(** Feed one cost vector (length = number of states, entries >= 0); returns
    the new state.  Accumulates [hit] ([T(s')]) and [move] ([d(s, s')])
    costs.  The general path: the ring reduction only emits unit vectors
    and serves them through {!serve_indicator}. *)

val serve_indicator : t -> int -> int
(** [serve_indicator t e] is [serve t (indicator e ~n)] without building
    the vector: the same transition, the same random draws and the same
    [hit]/[move] accounting, through the solver's indicator step ({!Smin_mw}
    takes O(log n) here).  Raises [Invalid_argument
    "Mts.serve_indicator: index out of range"] unless [0 <= e < n]. *)

val hit_cost : t -> float
val move_cost : t -> float
val total_cost : t -> float

val steps : t -> int
(** Number of cost vectors served so far. *)

val indicator : int -> n:int -> float array
(** [indicator e ~n]: the unit cost vector charging 1 at state [e] — the
    only vector shape the ring reduction generates.  Serving paths use
    {!serve_indicator} instead, which never materialises it. *)
