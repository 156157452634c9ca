(** Minimal binary codec: LEB128 varints over buffers, strings and
    channels.

    Shared by the framed binary trace format ({!Rbgp_workloads.Trace_codec})
    and the serving layer's checkpoint snapshots
    ({!Rbgp_serve.Checkpoint}): both need compact, versioned,
    endian-independent integer framing without pulling in a serialization
    dependency.  Unsigned varints are standard LEB128 (7 bits per byte,
    high bit = continuation); signed values go through the zigzag map
    [(n lsl 1) lxor (n asr 62)] first so small negatives stay short. *)

val add_varint : Buffer.t -> int -> unit
(** Append an unsigned LEB128 varint.  Requires the value [>= 0]. *)

val put_varint : bytes -> int -> int -> int
(** [put_varint b off v] writes [v] as {!add_varint} would append it,
    starting at byte [off] of [b], and returns the offset just past it.
    The caller guarantees room (at most 9 bytes for a non-negative int);
    raises [Invalid_argument] on a negative value or when [b] is too
    short. *)

val add_zigzag : Buffer.t -> int -> unit
(** Append a signed integer, zigzag-mapped then LEB128-encoded. *)

val add_string : Buffer.t -> string -> unit
(** Append a length-prefixed (varint) byte string. *)

val add_int_array : Buffer.t -> int array -> unit
(** Append a varint length followed by each element zigzag-encoded. *)

val unzigzag : int -> int
(** Inverse of the signed-to-unsigned map [add_zigzag] encodes. *)

type reader = { data : string; mutable pos : int }
(** A cursor over an immutable byte string: the next byte read is
    [data.[pos]].  The fields are exposed so that a decoder in another
    module can inline a fast path for short varints and fall back to
    {!read_varint} (builds compile libraries with [-opaque], so nothing
    here is inlined across modules). *)

val reader : ?pos:int -> string -> reader
val read_varint : reader -> int
val read_zigzag : reader -> int
val read_string : reader -> string
val read_int_array : reader -> int array
(** A length longer than the bytes left (every element takes at least
    one) raises before the array is allocated. *)

val skip_varints : reader -> int -> unit
(** [skip_varints r count] steps the cursor over [count] varints,
    checking each as {!read_varint} does, without decoding them into an
    array.  Every varint is at least one byte, so a hostile [count] fails
    on truncation after at most the remaining input. *)

val at_end : reader -> bool

val reader_pos : reader -> int
(** Current byte offset of the cursor — used by checkpoint decoding to
    reject trailing garbage and to report absolute offsets in errors. *)

(** All [read_*] functions raise [Invalid_argument] on truncated input or
    varints longer than 63 bits; truncation errors name the absolute byte
    offset at which input ran out. *)

(** {2 Block decoding over byte regions}

    The zero-copy counterpart of the channel readers: a {!region} is a
    cursor over a [Bigarray]-backed byte range (typically an [mmap]ed
    trace file, see {!Rbgp_workloads.Trace_codec}), and {!decode_varints}
    decodes whole blocks of varints out of it in one tight loop — no
    per-byte closure calls, no intermediate copies. *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type region
(** A mutable cursor over an immutable byte range. *)

val region : ?pos:int -> bigbytes -> region
(** View the whole array (from [pos], default 0) as a region. *)

val region_of_string : string -> region
(** Copies the string into a fresh bigarray — for tests and small inputs;
    the mmap path never goes through this. *)

val region_pos : region -> int
val region_length : region -> int
val region_at_end : region -> bool

val region_read_string : region -> int -> string
(** Read exactly [len] bytes; raises [Invalid_argument] when fewer remain. *)

val region_read_varint : region -> int
(** One varint at the cursor.  Raises [Invalid_argument] on a varint that
    runs past the region end (a torn frame — the region is the whole
    input, so there is no more data coming) or past 63 bits. *)

val region_read_zigzag : region -> int

val decode_varints : region -> int array -> limit:int -> int
(** [decode_varints r out ~limit] bulk-decodes up to [limit] varints into
    [out.(0 ..)], returning how many were decoded and advancing the cursor
    past them.  Returns [0] only at a clean end of region.  A torn varint
    at the region end is left unconsumed while the completed frames before
    it are delivered; the {e next} call then raises [Invalid_argument] —
    exactly the complete-frames-then-raise behaviour of the channel
    reader, so the two paths report corruption at the same request index.
    Raises [Invalid_argument] on [limit] outside [0 .. length out]. *)

val output_varint : out_channel -> int -> unit
val output_zigzag : out_channel -> int -> unit

val input_varint : in_channel -> int
(** Raises [End_of_file] when the channel is exhausted {e before the first
    byte}; a truncation mid-varint raises [Invalid_argument] instead, so a
    clean end-of-stream is distinguishable from a corrupt tail. *)

val input_varint_opt : in_channel -> int option
(** [None] at clean end-of-stream; mid-varint truncation still raises. *)

val input_zigzag : in_channel -> int
