(** Versioned serving snapshots: everything needed to resume a streaming
    run and to verify the resumption is exact.

    A checkpoint captures the run's {e identity} (algorithm name, epsilon,
    rng seed, instance parameters), its {e position} (number of requests
    served, plus the full served prefix), its {e accounting} (cumulative
    communication/migration, running maximum load, capacity violations),
    its {e state} (the current assignment, plus — when the algorithm
    implements the explicit {!Rbgp_ring.Online.t} snapshot hook — an
    opaque algorithm-state blob) and its {e degradation history} (which
    prefix positions were served on the frozen never-move path, so replay
    reproduces the exact call sequence).

    {!Engine.resume} has two paths, both ending in verification against
    the stored assignment and cost:

    + {b explicit restore}: the algorithm state blob is handed to the
      algorithm's [restore] hook — O(state), no replay;
    + {b deterministic prefix replay}: the algorithm is rebuilt from
      [(name, epsilon, seed, instance)] and the stored prefix is re-served
      through the same accounting — O(prefix), available for {e every}
      registered algorithm because all of them are deterministic functions
      of those four parameters (plus the recorded degraded spans).

    On-disk layout: magic ["RBGC"], varint format version, then a
    Binc-framed record (see the implementation for field order).  Version
    2 appends the degraded-span record and a little-endian CRC-32 trailer
    over all preceding bytes; version 1 files remain readable.  Floats
    travel as ["%h"] hex-float strings, which round-trip exactly.

    {b Incremental encoding.}  A live engine keeps its served prefix as an
    append-only {!Prefix_log}: the requests' zigzag varints, exactly the
    bytes this record carries for them, plus a CRC-32 of those bytes that
    is advanced lazily over whatever was appended since the last
    snapshot.  [prefix] is an O(1) immutable view of that log (bytes,
    length, count, CRC), still valid after the log appends or reallocates.
    {!to_string} therefore encodes only the head (through the prefix
    count) and the tail, copies the prefix bytes once, and computes the
    record CRC as [crc(head ^ prefix ^ tail)] from [crc(head)], the
    view's cached CRC and [Rbgp_util.Crc32.combine], then streams the
    tail.  The bytes are unchanged because the log's encoding is
    [Binc.add_zigzag] per request and CRC-32 is linear, so the spliced
    checksum equals the one-pass checksum; the test suite keeps the
    one-pass Buffer encoder as the byte-for-byte oracle.  A roll costs
    O(requests since the last roll + n) encoding plus one copy, not
    O(prefix) encoding; {!write} skips even the copy, streaming the
    prefix bytes from the view to the file.  {!of_string} still verifies the full CRC first,
    then steps over the prefix varints (well-formed, count = [pos])
    before it trusts anything, and views them in place.

    {b Durability.}  {!write} routes through
    {!Rbgp_util.Durable.atomic_write} (tmp + fsync + rename + parent-dir
    fsync), so a crash mid-write never leaves a torn file at the
    published path.  {!write_rolling} additionally keeps [keep] rolling
    generations ([path], [path.1], ...), and {!read_latest} falls back
    past torn or corrupt generations to the newest one that verifies. *)

type t = {
  alg : string;
  epsilon : float;
  seed : int;
  n : int;
  ell : int;
  k : int;
  initial : int array;
  pos : int;  (** requests served before the snapshot *)
  prefix : Prefix_log.view;
      (** the served requests, [pos] of them, already encoded *)
  comm : int;
  mig : int;
  max_load : int;
  violations : int;
  assignment : int array;  (** assignment after request [pos - 1] *)
  alg_state : string option;  (** explicit algorithm snapshot, if supported *)
  degraded : int array;
      (** flattened [(start, len)] pairs: prefix positions served on the
          frozen never-move path (solver-budget degradation) *)
  degraded_left : int;
      (** remaining frozen requests if the snapshot was taken
          mid-degradation *)
}

val magic : string

val version : int
(** The current (newest writable) format version. *)

val write : path:string -> t -> unit
(** Atomic durable write via {!Rbgp_util.Durable.atomic_write_with}: the
    bytes of {!to_string}, streamed without a record-sized copy.  Honours
    the active {!Fault} plan: a planned tear writes truncated bytes
    directly to [path] and raises {!Fault.Injected_crash}; a planned bit
    flip corrupts the serialized record (still written atomically). *)

val write_rolling : path:string -> keep:int -> t -> unit
(** [write_rolling ~path ~keep t] rotates [path -> path.1 -> ...]
    keeping at most [keep] generations, then {!write}s [t] to [path].
    Rotation happens first, so dying between the two steps leaves
    [path.1] as the newest (complete) generation. *)

val read : path:string -> t
(** Raises [Invalid_argument] naming the path on bad magic, unsupported
    version, CRC mismatch or a torn record. *)

type recovery = {
  ckpt : t;
  generation : int;  (** 0 = [path] itself, g = [path.g] *)
  skipped : (string * string) list;
      (** generations that existed but failed verification, newest
          first, with the failure message *)
}

val read_latest : ?generations:int -> path:string -> unit -> recovery
(** Scan [path], [path.1], ... (up to [generations], default 8) and
    return the newest generation that decodes and verifies, recording
    the ones skipped over.  Raises [Invalid_argument] when none does. *)

val verify : path:string -> (t, string) result
(** Full check — magic, version, CRC (v2), field decode, internal
    consistency — as a [result] for the [rbgp checkpoint verify]
    subcommand. *)

val to_string : ?version:int -> t -> string
(** Serialize.  [~version:1] emits the legacy CRC-less layout (rejected
    if [t] carries degradation history) — used by compatibility tests. *)

val of_string : ?path:string -> string -> t

val to_json : t -> string
(** Inspection record for [rbgp checkpoint]: all scalar fields, array
    lengths rather than contents, and whether an explicit state blob is
    present. *)
