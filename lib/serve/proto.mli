(** RBGN/v1: the framed binary wire protocol of the networked serving
    tier.

    Every frame is [stream varint · op varint · payload-length varint ·
    payload bytes].  The stream id routes the frame to a tenant bound by
    a prior {!Open_stream} on the same connection (stream [0] is the
    connection-control stream: hello, shutdown, drain notices).  Payloads
    are themselves varint-packed with {!Rbgp_util.Binc}, the same codec
    the RBGT/v1 trace format and RBGC checkpoints use.

    Socket reads deliver arbitrary byte boundaries, so decoding goes
    through a {!dechunker} that parks torn frames — the discipline the
    mmap/channel {!Source} readers already follow: complete frames are
    delivered, an incomplete tail is retained until more bytes arrive,
    and only impossible input (varint overflow, oversized payload)
    raises. *)

exception Protocol_error of string
(** Corrupt or hostile input: varint longer than 63 bits, unknown
    opcode, payload over {!max_payload}, bad hello magic.  Never raised
    for merely-incomplete input. *)

val magic : string
(** ["RBGN"] *)

val version : int

val max_payload : int
(** Hard upper bound on a frame payload (16 MiB).  A length field above
    this raises {!Protocol_error} before any allocation, so a corrupt or
    hostile length prefix cannot trigger an unbounded read. *)

(** {2 Opcodes} *)

type op =
  | Hello  (** c→s, stream 0: magic + protocol version *)
  | Open_stream  (** c→s: bind a stream id to a tenant configuration *)
  | Req  (** c→s: batch of ring requests; server replies {!Decisions} *)
  | Req_quiet  (** c→s: batch on the quiet path; server replies {!Ack} *)
  | Ckpt  (** c→s: force a durable checkpoint now *)
  | Close_stream  (** c→s: final checkpoint + release the stream id *)
  | Shutdown  (** c→s, stream 0: drain and stop the server *)
  | Opened  (** s→c: stream bound; payload carries the resume position *)
  | Decisions  (** s→c: per-request decisions for one {!Req} batch *)
  | Ack  (** s→c: aggregate totals for one {!Req_quiet} batch *)
  | Ckpt_ok  (** s→c: checkpoint durable at the carried position *)
  | Closed  (** s→c: stream released; payload carries final totals *)
  | Error_frame  (** s→c: error code + message (see error codes below) *)
  | Draining  (** s→c, stream 0: server is draining; no new opens *)

val op_to_int : op -> int
val op_of_int : int -> op
(** Raises {!Protocol_error} on an unknown opcode. *)

val op_name : op -> string

(** {2 Error codes carried by [Error_frame]} *)

val err_proto : int  (** 1 — malformed frame or payload *)

val err_unknown_stream : int  (** 2 — frame for a stream never opened *)

val err_tenant_failed : int
(** 3 — the tenant's engine died (supervised mode); re-open to resume
    from its last durable checkpoint *)

val err_config_mismatch : int
(** 4 — [Open_stream] config disagrees with the live tenant or its
    checkpoint *)

val err_draining : int  (** 5 — server is draining; no new work *)

(** {2 Frames} *)

type frame = { stream : int; op : op; payload : string }

val frame_to_string : stream:int -> op -> string -> string
(** One encoded frame.  Raises {!Protocol_error} when the payload is
    over {!max_payload}. *)

val max_header : int
(** Upper bound on an encoded frame header (three varints). *)

val put_header : bytes -> int -> stream:int -> op -> len:int -> int
(** [put_header b off ~stream op ~len] writes the header of a frame with
    a [len]-byte payload at [off] and returns the offset where the
    payload goes — the bytes {!frame_to_string} puts before it.  The
    caller leaves {!max_header} bytes of room.  Raises {!Protocol_error}
    when [len] is over {!max_payload}. *)

(** {2 Incremental decoding: the dechunker} *)

type dechunker
(** Reassembles frames from arbitrarily-split byte arrivals.  Feed it
    whatever a socket read returned; pull complete frames with {!next}.
    A torn frame (header or payload) is parked until completed by later
    feeds — byte boundaries are invisible in the frame sequence. *)

val dechunker : unit -> dechunker

val feed : dechunker -> bytes -> int -> int -> unit
(** [feed d buf off len] appends [len] bytes starting at [off]. *)

val feed_string : dechunker -> string -> unit

val next : dechunker -> frame option
(** The next complete frame, or [None] if the buffered bytes end in a
    torn frame (or are empty).  Raises {!Protocol_error} on input no
    completion could repair. *)

val pending_bytes : dechunker -> int
(** Bytes buffered but not yet delivered as frames (parked tail). *)

(** {2 Payload codecs}

    Encoders append to a [Buffer.t]; decoders read a payload string and
    raise {!Protocol_error} on truncated or trailing bytes. *)

val add_hello : Buffer.t -> unit
val read_hello : string -> int
(** Returns the peer's protocol version; raises on bad magic. *)

type open_payload = {
  tenant : string;  (** tenant id, [[A-Za-z0-9._-]{1,64}] *)
  alg : string;
  n : int;
  ell : int;
  epsilon : float;
  seed : int;
}

val add_open : Buffer.t -> open_payload -> unit
val read_open : string -> open_payload

val add_req : Buffer.t -> int array -> pos:int -> len:int -> unit
(** Payload is [len] consecutive edge varints from [pos] — identical to
    the RBGT/v1 request framing, so a trace block can be re-framed
    without re-encoding. *)

val read_req : string -> int array

val add_opened : Buffer.t -> pos:int -> unit
val read_opened : string -> int

val add_decisions : Buffer.t -> start_pos:int -> Engine.decision array -> unit
val read_decisions : string -> int * Engine.decision array
(** Steps are reconstructed from the carried start position, so the
    per-decision wire cost is edge/comm/moved/cumulative-totals/latency
    varints only.  A count the payload cannot hold (seven varints of at
    least one byte per decision) raises before the array is allocated. *)

type ack_payload = {
  count : int;
  pos : int;
  cum_comm : int;
  cum_mig : int;
  ack_max_load : int;
  violations : int;
}

val add_ack : Buffer.t -> ack_payload -> unit
val read_ack : string -> ack_payload

val add_ckpt_ok : Buffer.t -> pos:int -> unit
val read_ckpt_ok : string -> int

type closed_payload = {
  closed_pos : int;
  closed_comm : int;
  closed_mig : int;
  closed_max_load : int;
  closed_violations : int;
}

val add_closed : Buffer.t -> closed_payload -> unit
val read_closed : string -> closed_payload

val add_error : Buffer.t -> code:int -> string -> unit
val read_error : string -> int * string
