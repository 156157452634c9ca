(** Durable file writes and transient-I/O retry.

    This module is the audited atomic-write helper referenced by lint
    rule [r9-durability]: durability-sensitive modules (checkpoints,
    trace writers in the serve stack) must route file creation through
    [atomic_write] instead of opening output channels directly, so that
    a crash mid-write can never leave a torn file at the published
    path. *)

val atomic_write : path:string -> string -> unit
(** [atomic_write ~path data] writes [data] to [path ^ ".tmp"], fsyncs
    it, atomically renames it over [path], then fsyncs the parent
    directory.  After a crash at any instruction, [path] holds either
    its previous complete contents or [data] in full — never a prefix.
    Raises [Sys_error] / [Unix.Unix_error] on genuine I/O failure; the
    tmp file is removed on the error path. *)

val atomic_write_with : path:string -> (out_channel -> unit) -> unit
(** [atomic_write_with ~path write] is {!atomic_write} for a payload
    that [write] streams to the tmp file's channel, so a large record
    assembled from pieces needs no contiguous copy. *)

val fsync_dir : string -> unit
(** [fsync_dir dir] fsyncs the directory [dir] so a preceding rename in
    it survives power loss.  Filesystems that cannot fsync a directory
    (the open or fsync is refused) are tolerated silently — the rename
    is still atomic, only its durability window widens. *)

val retry_transient : ?attempts:int -> (unit -> 'a) -> 'a
(** [retry_transient f] runs [f], retrying when it raises
    [Unix.Unix_error] with [EINTR], [EAGAIN] or [EWOULDBLOCK] — the
    transient conditions a signal-heavy or slow-source process sees on
    reads.  At most [attempts] (default 64) tries; the last attempt's
    exception propagates.  [f] must be safe to re-run, i.e. it must not
    have consumed input when it raises (true for the fault-injection
    hooks and for [Unix] calls that fail before transferring bytes). *)
