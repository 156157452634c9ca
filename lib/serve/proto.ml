exception Protocol_error of string

let magic = "RBGN"
let version = 1
let max_payload = 16 * 1024 * 1024

type op =
  | Hello
  | Open_stream
  | Req
  | Req_quiet
  | Ckpt
  | Close_stream
  | Shutdown
  | Opened
  | Decisions
  | Ack
  | Ckpt_ok
  | Closed
  | Error_frame
  | Draining

let op_to_int = function
  | Hello -> 1
  | Open_stream -> 2
  | Req -> 3
  | Req_quiet -> 4
  | Ckpt -> 5
  | Close_stream -> 6
  | Shutdown -> 7
  | Opened -> 8
  | Decisions -> 9
  | Ack -> 10
  | Ckpt_ok -> 11
  | Closed -> 12
  | Error_frame -> 13
  | Draining -> 14

let op_of_int = function
  | 1 -> Hello
  | 2 -> Open_stream
  | 3 -> Req
  | 4 -> Req_quiet
  | 5 -> Ckpt
  | 6 -> Close_stream
  | 7 -> Shutdown
  | 8 -> Opened
  | 9 -> Decisions
  | 10 -> Ack
  | 11 -> Ckpt_ok
  | 12 -> Closed
  | 13 -> Error_frame
  | 14 -> Draining
  | n -> raise (Protocol_error (Printf.sprintf "unknown opcode %d" n))

let op_name = function
  | Hello -> "hello"
  | Open_stream -> "open"
  | Req -> "req"
  | Req_quiet -> "req-quiet"
  | Ckpt -> "ckpt"
  | Close_stream -> "close"
  | Shutdown -> "shutdown"
  | Opened -> "opened"
  | Decisions -> "decisions"
  | Ack -> "ack"
  | Ckpt_ok -> "ckpt-ok"
  | Closed -> "closed"
  | Error_frame -> "error"
  | Draining -> "draining"

let err_proto = 1
let err_unknown_stream = 2
let err_tenant_failed = 3
let err_config_mismatch = 4
let err_draining = 5

type frame = { stream : int; op : op; payload : string }

let check_payload_len len =
  if len > max_payload then
    raise (Protocol_error (Printf.sprintf "payload %d over limit" len))

let max_header = 3 * 9

let put_header b off ~stream op ~len =
  check_payload_len len;
  let off = Rbgp_util.Binc.put_varint b off stream in
  let off = Rbgp_util.Binc.put_varint b off (op_to_int op) in
  Rbgp_util.Binc.put_varint b off len

let rec varint_size v = if v < 0x80 then 1 else 1 + varint_size (v lsr 7)

let frame_to_string ~stream op payload =
  let len = String.length payload in
  check_payload_len len;
  let hlen =
    varint_size stream + varint_size (op_to_int op) + varint_size len
  in
  let b = Bytes.create (hlen + len) in
  let off = put_header b 0 ~stream op ~len in
  Bytes.blit_string payload 0 b off len;
  Bytes.unsafe_to_string b

(* The dechunker keeps undelivered bytes in [buf.(start .. start+len)];
   [feed] appends (compacting or growing first) and [next] parses frames
   off the front.  A frame whose header or payload runs past the
   buffered bytes is a torn frame: [next] returns [None] and leaves the
   cursor untouched, exactly the parking discipline of the mmap/channel
   trace readers. *)
type dechunker = {
  mutable buf : bytes;
  mutable start : int;
  mutable len : int;
  mutable vlen : int;  (* bytes of the varint [varint_at] last parsed *)
}

let dechunker () = { buf = Bytes.create 4096; start = 0; len = 0; vlen = 0 }

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Proto.feed";
  let cap = Bytes.length d.buf in
  if d.start + d.len + len > cap then begin
    if d.len + len <= cap then begin
      Bytes.blit d.buf d.start d.buf 0 d.len;
      d.start <- 0
    end
    else begin
      let cap' =
        let rec grow c = if c >= d.len + len then c else grow (2 * c) in
        grow (2 * cap)
      in
      let nb = Bytes.create cap' in
      Bytes.blit d.buf d.start nb 0 d.len;
      d.buf <- nb;
      d.start <- 0
    end
  end;
  Bytes.blit src off d.buf (d.start + d.len) len;
  d.len <- d.len + len

let feed_string d s =
  feed d (Bytes.unsafe_of_string s) 0 (String.length s)

let pending_bytes d = d.len

(* Incremental LEB128 parse at [pos + i] relative to the undelivered
   window (call with [i = shift = acc = 0]): returns the value and leaves
   its byte count in [d.vlen], or leaves [d.vlen = 0] when the varint runs
   past the buffered bytes.  Over 10 bytes can never complete into a
   63-bit varint, so that raises rather than parks.  Top-level and
   tail-recursive, so a header parse allocates nothing. *)
let rec varint_at d pos i shift acc =
  if i >= 10 then raise (Protocol_error "varint over 63 bits")
  else if pos + i >= d.len then begin
    d.vlen <- 0;
    0
  end
  else begin
    let b = Bytes.get_uint8 d.buf (d.start + pos + i) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then begin
      d.vlen <- i + 1;
      acc
    end
    else varint_at d pos (i + 1) (shift + 7) acc
  end

let next d =
  let stream = varint_at d 0 0 0 0 in
  let c1 = d.vlen in
  if c1 = 0 then None
  else begin
    let opn = varint_at d c1 0 0 0 in
    let c2 = d.vlen in
    if c2 = 0 then None
    else begin
      let op = op_of_int opn in
      let plen = varint_at d (c1 + c2) 0 0 0 in
      let c3 = d.vlen in
      if c3 = 0 then None
      else begin
        if plen < 0 || stream < 0 then
          raise (Protocol_error "negative header field");
        check_payload_len plen;
        let hdr = c1 + c2 + c3 in
        if d.len < hdr + plen then None
        else begin
          let payload = Bytes.sub_string d.buf (d.start + hdr) plen in
          d.start <- d.start + hdr + plen;
          d.len <- d.len - hdr - plen;
          if d.len = 0 then d.start <- 0;
          Some { stream; op; payload }
        end
      end
    end
  end

(* Payload codecs.  Decoders wrap Binc's [Invalid_argument] (truncated
   input) into [Protocol_error] so connection handlers distinguish a bad
   peer from a programming error, and reject trailing bytes the same way
   checkpoint decoding does. *)

let reader_of payload = Rbgp_util.Binc.reader payload

(* One- and two-byte varints (every value below 2^14) for the Req and
   Decisions payloads, inlined at each call site; longer ones and every
   error go through Binc's loops, so the bytes and the error messages are
   Binc's.  These live here rather than in Binc because libraries are
   compiled with -opaque, which rules out inlining across modules. *)
let[@inline] add_varint buf v =
  if v land lnot 0x7f = 0 then Buffer.add_uint8 buf v
  else if v land lnot 0x3fff = 0 then
    Buffer.add_uint16_le buf (0x80 lor (v land 0x7f) lor ((v lsr 7) lsl 8))
  else Rbgp_util.Binc.add_varint buf v

let[@inline] read_varint (r : Rbgp_util.Binc.reader) =
  let d = r.data and p = r.pos in
  if p + 1 < String.length d then begin
    let b0 = String.get_uint8 d p in
    if b0 < 0x80 then begin
      r.pos <- p + 1;
      b0
    end
    else begin
      let b1 = String.get_uint8 d (p + 1) in
      if b1 < 0x80 then begin
        r.pos <- p + 2;
        (b0 land 0x7f) lor (b1 lsl 7)
      end
      else Rbgp_util.Binc.read_varint r
    end
  end
  else Rbgp_util.Binc.read_varint r

let finish r what =
  if not (Rbgp_util.Binc.at_end r) then
    raise (Protocol_error (Printf.sprintf "%s: trailing bytes" what))

let decode what f payload =
  match f (reader_of payload) with
  | v -> v
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "%s: %s" what m))

let add_hello buf =
  Buffer.add_string buf magic;
  Rbgp_util.Binc.add_varint buf version

let read_hello payload =
  if
    String.length payload < 4
    || not (String.equal (String.sub payload 0 4) magic)
  then raise (Protocol_error "bad hello magic");
  match
    let r = Rbgp_util.Binc.reader ~pos:4 payload in
    let v = Rbgp_util.Binc.read_varint r in
    finish r "hello";
    v
  with
  | v -> v
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "hello: %s" m))

type open_payload = {
  tenant : string;
  alg : string;
  n : int;
  ell : int;
  epsilon : float;
  seed : int;
}

let add_open buf (o : open_payload) =
  Rbgp_util.Binc.add_string buf o.tenant;
  Rbgp_util.Binc.add_string buf o.alg;
  Rbgp_util.Binc.add_varint buf o.n;
  Rbgp_util.Binc.add_varint buf o.ell;
  (* Hex float round-trips bit-exactly through the decimal-free path, so
     both sides agree on epsilon to the last bit. *)
  Rbgp_util.Binc.add_string buf (Printf.sprintf "%h" o.epsilon);
  Rbgp_util.Binc.add_zigzag buf o.seed

let read_open payload =
  decode "open"
    (fun r ->
      let tenant = Rbgp_util.Binc.read_string r in
      let alg = Rbgp_util.Binc.read_string r in
      let n = Rbgp_util.Binc.read_varint r in
      let ell = Rbgp_util.Binc.read_varint r in
      let eps_s = Rbgp_util.Binc.read_string r in
      let epsilon =
        match float_of_string_opt eps_s with
        | Some f -> f
        | None -> raise (Protocol_error "open: bad epsilon")
      in
      let seed = Rbgp_util.Binc.read_zigzag r in
      finish r "open";
      { tenant; alg; n; ell; epsilon; seed })
    payload

let add_req buf edges ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length edges then
    invalid_arg "Proto.add_req";
  for i = pos to pos + len - 1 do
    add_varint buf edges.(i)
  done

(* Closure-free: the count of bytes below 0x80 is the count of varints
   that end in the payload, so the array is sized in one scan and filled
   by the cursor; bytes left after the last terminator form a torn or
   over-long varint, and reading it raises the reader's own error. *)
let read_req payload =
  let n = ref 0 in
  for i = 0 to String.length payload - 1 do
    if String.get_uint8 payload i < 0x80 then incr n
  done;
  let edges = Array.make !n 0 in
  let r = reader_of payload in
  match
    for i = 0 to !n - 1 do
      edges.(i) <- read_varint r
    done;
    if not (Rbgp_util.Binc.at_end r) then ignore (read_varint r)
  with
  | () -> edges
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "req: %s" m))

let add_opened buf ~pos = Rbgp_util.Binc.add_varint buf pos

let read_opened payload =
  decode "opened"
    (fun r ->
      let pos = Rbgp_util.Binc.read_varint r in
      finish r "opened";
      pos)
    payload

let add_decisions buf ~start_pos (ds : Engine.decision array) =
  add_varint buf start_pos;
  add_varint buf (Array.length ds);
  for i = 0 to Array.length ds - 1 do
    let d = ds.(i) in
    add_varint buf d.edge;
    add_varint buf d.comm;
    add_varint buf d.moved;
    add_varint buf d.cum_comm;
    add_varint buf d.cum_mig;
    add_varint buf d.max_load;
    add_varint buf d.latency_ns
  done

(* Placeholder filling the array until the cursor loop overwrites it. *)
let no_decision =
  {
    Engine.step = 0;
    edge = 0;
    comm = 0;
    moved = 0;
    cum_comm = 0;
    cum_mig = 0;
    max_load = 0;
    latency_ns = 0;
  }

let read_decisions payload =
  let r = reader_of payload in
  match
    let start_pos = read_varint r in
    let count = read_varint r in
    (* every decision is seven varints of at least one byte each, so the
       payload bounds the count before anything is allocated for it *)
    let left = String.length payload - Rbgp_util.Binc.reader_pos r in
    if count < 0 || count > left / 7 then
      raise
        (Protocol_error
           (Printf.sprintf "decisions: count %d over a %d-byte payload" count
              left));
    let ds = Array.make count no_decision in
    for i = 0 to count - 1 do
      let edge = read_varint r in
      let comm = read_varint r in
      let moved = read_varint r in
      let cum_comm = read_varint r in
      let cum_mig = read_varint r in
      let max_load = read_varint r in
      let latency_ns = read_varint r in
      ds.(i) <-
        {
          Engine.step = start_pos + i;
          edge;
          comm;
          moved;
          cum_comm;
          cum_mig;
          max_load;
          latency_ns;
        }
    done;
    finish r "decisions";
    (start_pos, ds)
  with
  | v -> v
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "decisions: %s" m))

type ack_payload = {
  count : int;
  pos : int;
  cum_comm : int;
  cum_mig : int;
  ack_max_load : int;
  violations : int;
}

let add_ack buf (a : ack_payload) =
  Rbgp_util.Binc.add_varint buf a.count;
  Rbgp_util.Binc.add_varint buf a.pos;
  Rbgp_util.Binc.add_varint buf a.cum_comm;
  Rbgp_util.Binc.add_varint buf a.cum_mig;
  Rbgp_util.Binc.add_varint buf a.ack_max_load;
  Rbgp_util.Binc.add_varint buf a.violations

let read_ack payload =
  decode "ack"
    (fun r ->
      let count = Rbgp_util.Binc.read_varint r in
      let pos = Rbgp_util.Binc.read_varint r in
      let cum_comm = Rbgp_util.Binc.read_varint r in
      let cum_mig = Rbgp_util.Binc.read_varint r in
      let ack_max_load = Rbgp_util.Binc.read_varint r in
      let violations = Rbgp_util.Binc.read_varint r in
      finish r "ack";
      { count; pos; cum_comm; cum_mig; ack_max_load; violations })
    payload

let add_ckpt_ok buf ~pos = Rbgp_util.Binc.add_varint buf pos

let read_ckpt_ok payload =
  decode "ckpt-ok"
    (fun r ->
      let pos = Rbgp_util.Binc.read_varint r in
      finish r "ckpt-ok";
      pos)
    payload

type closed_payload = {
  closed_pos : int;
  closed_comm : int;
  closed_mig : int;
  closed_max_load : int;
  closed_violations : int;
}

let add_closed buf (c : closed_payload) =
  Rbgp_util.Binc.add_varint buf c.closed_pos;
  Rbgp_util.Binc.add_varint buf c.closed_comm;
  Rbgp_util.Binc.add_varint buf c.closed_mig;
  Rbgp_util.Binc.add_varint buf c.closed_max_load;
  Rbgp_util.Binc.add_varint buf c.closed_violations

let read_closed payload =
  decode "closed"
    (fun r ->
      let closed_pos = Rbgp_util.Binc.read_varint r in
      let closed_comm = Rbgp_util.Binc.read_varint r in
      let closed_mig = Rbgp_util.Binc.read_varint r in
      let closed_max_load = Rbgp_util.Binc.read_varint r in
      let closed_violations = Rbgp_util.Binc.read_varint r in
      finish r "closed";
      { closed_pos; closed_comm; closed_mig; closed_max_load; closed_violations })
    payload

let add_error buf ~code msg =
  Rbgp_util.Binc.add_varint buf code;
  Rbgp_util.Binc.add_string buf msg

let read_error payload =
  decode "error"
    (fun r ->
      let code = Rbgp_util.Binc.read_varint r in
      let msg = Rbgp_util.Binc.read_string r in
      finish r "error";
      (code, msg))
    payload
