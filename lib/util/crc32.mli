(** CRC-32 (IEEE 802.3) checksums.

    The reflected-polynomial variant used by zlib, PNG and Ethernet.
    Checkpoint files append this as a little-endian 32-bit trailer so a
    torn or bit-flipped record is detected before any field is trusted.
    Results are in [\[0, 2^32)], carried in an OCaml [int]. *)

val string : ?pos:int -> ?len:int -> string -> int
(** [string s] is the CRC-32 of [s] (or of the designated substring). *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] extends a running checksum, so a large
    buffer can be streamed in chunks: [string s = update 0 s ...].
    Raises [Invalid_argument] on a range outside [s]. *)

val update_bytes : int -> Bytes.t -> pos:int -> len:int -> int
(** {!update} over a byte buffer (reads only [\[pos, pos + len)]). *)

val combine : int -> int -> int -> int
(** [combine crc_a crc_b len_b] is the CRC-32 of [a ^ b] given only the
    CRC-32 of [a], the CRC-32 of [b] and the length of [b] in bytes —
    zlib's [crc32_combine], O(log len_b).  This lets a checkpoint writer
    reuse a cached checksum of a long unchanged middle section.  Raises
    [Invalid_argument] on a negative length. *)
