(** Percentile selection for the benchmark's latency samples. *)

val ladder : float array
(** Candidate percentiles, ascending: p50, p90, p99, p99.9, p99.99. *)

val rank : n:int -> float -> int
(** [rank ~n q]: 1-based nearest rank [ceil (q * n)], clamped to
    [\[1, n\]].  Raises [Invalid_argument] on [n < 1] or [q] outside
    [\[0, 1\]]. *)

val beyond : n:int -> float -> int
(** Samples strictly above rank [q]: [n - rank ~n q]. *)

val highest_supported : n:int -> float option
(** The highest {!ladder} entry with at least 10 samples beyond it, or
    [None] when even the median is unsupported. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted q] on an ascending, non-empty array. *)
