(** Randomized smooth-minimum multiplicative-weights MTS solver.

    This is the paper's own Appendix-A machinery, lifted from the hitting
    game to a general MTS solver: maintain the cumulative cost vector [x]
    (sum of all task vectors seen), keep the state distributed as
    [p = grad smin_c x] with scale [c = diameter of the metric], and on each
    update resample through the maximal-stay L1 coupling
    ({!Rbgp_util.Dist.resample_coupled}).

    Why this is faithful: Lemma A.3 (iv) bounds the L1 change of the
    distribution per unit of incurred cost by [2/c], so the expected
    movement (at most diameter x L1/2 per step on the line) is within a
    constant of the expected hitting cost — the same argument as
    Lemma 4.3 b).  On indicator cost vectors (the only shape the ring
    reduction emits) the expected hitting cost telescopes into
    [smin_c(x_final) <= min(x) + c ln s] (Lemma A.3 (i)/(iii)), giving an
    O(log s)-competitive-against-static behaviour; against dynamic optima it
    is the randomized workhorse of experiments E2/E3/E9.

    State.  Besides [x] the solver keeps an array-backed, power-of-two
    padded sum tree over the unnormalised weights
    [w_i = exp(base - x_i / c)], so [p_i = w_i / root].  An indicator step
    ({!Mts.serve_indicator}) costs O(log s): it recomputes leaf [e] from
    [x_e], refreshes its ancestors from their children, and resamples by
    descending the tree, consuming exactly the random draws of the dense
    coupling.  When the root falls below a fixed underflow guard the tree
    is rebuilt at [base = min x / c] (O(s), amortised away).  A general
    cost vector ({!Mts.serve}) takes the dense O(s) path and the tree is
    rebuilt before the next indicator step.

    The indicator step checks what it computes and raises
    [Invalid_argument] with
    - ["Smin_mw.serve_indicator: leaf weight is negative or NaN"] when the
      recomputed leaf is not a non-negative number,
    - ["Smin_mw.serve_indicator: root total is not positive and finite"]
      when the tree's total mass is zero, infinite or NaN.  *)

val solver : Mts.factory

val solver_with_scale : c:float -> Mts.factory
(** Override the scale parameter (default: [max 1 (diameter metric)]).
    Smaller [c] reacts faster but moves more; E9's ablation sweeps this. *)

val solver_introspect :
  Metric.t ->
  start:int ->
  rng:Rbgp_util.Rng.t ->
  Mts.t * (unit -> float array * float array)
(** {!solver} plus a view of its state: a copy of the cumulative costs [x]
    and the sum tree's normalised leaf weights [w_i / root].  For tests
    comparing the tree against {!distribution}. *)

val distribution : Metric.t -> float array -> Rbgp_util.Dist.t
(** The distribution [grad smin_c x] this solver maintains for cumulative
    cost vector [x] (with the default scale); exposed for tests. *)
