(** The served request prefix as an append-only log of its encoded bytes.

    A prefix-replay checkpoint has to carry every request served so far,
    and encoding and checksumming that prefix afresh on every roll would
    make each roll O(prefix).  This log stores the requests already
    encoded, exactly as the RBGC record carries them (each request zigzag-mapped, then a
    LEB128 varint — {!Rbgp_util.Binc.add_zigzag}), together with the
    CRC-32 of those bytes, advanced lazily over the bytes appended since
    it was last asked for.

    A {!view} is an O(1) immutable snapshot of the log: its bytes, byte
    length, request count and CRC.  The log only ever appends, and it
    grows by copying into a fresh buffer, so the bytes a view covers are
    never written again — a view taken before later appends or a
    reallocation stays valid and unchanged. *)

type view
(** An immutable run of encoded requests. *)

val count : view -> int
(** Number of requests in the view. *)

val byte_length : view -> int

val crc : view -> int
(** CRC-32 of the view's bytes ({!Rbgp_util.Crc32.string} of them).  Views
    taken from a log carry it; views read back from a checkpoint file
    compute it on first use (once, O(bytes)). *)

val blit : view -> Bytes.t -> int -> unit
(** [blit v dst off] copies the view's bytes to [dst] at [off]. *)

val output : out_channel -> view -> unit
(** Write the view's bytes to a channel. *)

val to_array : view -> int array
(** Decode every request. *)

val of_string : string -> off:int -> len:int -> count:int -> view
(** [of_string s ~off ~len ~count] views [len] bytes of [s] at [off] as
    [count] encoded requests, without copying.  The caller vouches for the
    encoding: {!Checkpoint.of_string} first steps over the region with
    {!Rbgp_util.Binc.skip_varints}, which rejects malformed varints.
    Raises [Invalid_argument] when the range lies outside [s]. *)

(** {2 Decoding in blocks} *)

type cursor

val cursor : view -> cursor
(** A decoding cursor at the view's first request. *)

val decode : cursor -> int array -> limit:int -> int
(** [decode c out ~limit] decodes up to [limit] requests into
    [out.(0 ..)], returning how many it decoded ([0] only once the view is
    exhausted).  Raises [Invalid_argument] on [limit] outside
    [0 .. length out]. *)

(** {2 The log} *)

type t
(** A mutable, append-only log. *)

val create : unit -> t

val of_view : view -> t
(** A fresh log holding a copy of the view's bytes, ready to append. *)

val push : t -> int -> unit
(** Append one request.  Amortised O(1): usually a bounds check and one
    or two byte stores.  Raises [Invalid_argument] on a value whose
    zigzag image does not fit in 62 bits (never an edge index). *)

val view : t -> view
(** Snapshot the log, first folding the bytes appended since the last
    snapshot into the cached CRC — O(bytes appended since then). *)
