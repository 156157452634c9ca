(** Seed derivation: one workload seed determines every generated
    input. *)

val trace_seed : seed:int -> int -> int
(** Seed of tenant [i]'s request trace. *)

val open_seed : seed:int -> int -> int
(** Engine seed tenant [i] is opened with ([Proto.open_payload.seed]). *)

val session_seed : seed:int -> int -> int
(** Seed of session [k] of a run whose sessions are independent. *)
