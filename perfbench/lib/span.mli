(** In-memory span recorder for the traced run: named, nestable spans
    with per-name total time, self time (total minus the time covered
    by child spans) and call counts.  Spans are recorded from the
    benchmark's own files, around calls into each layer's public
    functions. *)

type t

val monotonic_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds. *)

val create : ?clock:(unit -> int) -> unit -> t
(** [clock] (default {!monotonic_ns}) returns nanoseconds; tests pass a
    scripted one. *)

val register : t -> string -> int
(** The id of a span name, allocated on first use. *)

val enter : t -> int -> unit
val leave : t -> unit
(** Close the innermost open span.  Raises [Invalid_argument] when none
    is open. *)

val with_span : t -> int -> (unit -> 'a) -> 'a

val calibrate : t -> float * float
(** [(inner, outer)]: nanoseconds an empty span records as its own
    duration, and nanoseconds it adds to the span enclosing it — the
    per-span tracing cost, subtracted where spans are per request. *)

val total_ns : t -> string -> int
val self_ns : t -> string -> int
val count : t -> string -> int
(** Accumulated over every closed span of that name; [0] for a name
    never recorded. *)
