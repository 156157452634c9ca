module Binc = Rbgp_util.Binc
module Crc32 = Rbgp_util.Crc32

(* [bytes.[off, off + len)] is frozen: a log never writes below its
   length, and views of files alias strings that are never written. *)
type view = {
  bytes : Bytes.t;
  off : int;
  len : int;
  count : int;
  mutable crc : int;  (* -1 until computed; a pure function of the bytes *)
}

type t = {
  mutable buf : Bytes.t;
  mutable blen : int;
  mutable n : int;
  (* CRC-32 of [buf.[0, crc_len)]; [view] folds in the rest *)
  mutable crc_sum : int;
  mutable crc_len : int;
}

let count v = v.count
let byte_length v = v.len

let crc v =
  if v.crc < 0 then v.crc <- Crc32.update_bytes 0 v.bytes ~pos:v.off ~len:v.len;
  v.crc

let blit v dst off = Bytes.blit v.bytes v.off dst off v.len
let output oc v = Stdlib.output oc v.bytes v.off v.len

let of_string s ~off ~len ~count =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Prefix_log.of_string: range out of bounds";
  (* read-only alias: views never write their bytes *)
  { bytes = Bytes.unsafe_of_string s; off; len; count; crc = -1 }

(* --- decoding --------------------------------------------------------- *)

type cursor = { v : view; mutable at : int; mutable taken : int }

let cursor v = { v; at = v.off; taken = 0 }

(* The bytes were either written by [push] or stepped over by
   [Binc.skip_varints] when the record was read, so every varint is
   complete; the bounds-checked reads still keep a bad caller safe. *)
let decode c out ~limit =
  if limit < 0 || limit > Array.length out then
    invalid_arg "Prefix_log.decode: bad limit";
  let b = c.v.bytes in
  let want = Stdlib.min limit (c.v.count - c.taken) in
  let at = ref c.at in
  for j = 0 to want - 1 do
    let b0 = Bytes.get_uint8 b !at in
    if b0 < 0x80 then begin
      out.(j) <- Binc.unzigzag b0;
      incr at
    end
    else begin
      let z = ref (b0 land 0x7f) and shift = ref 7 and p = ref (!at + 1) in
      let continue = ref true in
      while !continue do
        let bi = Bytes.get_uint8 b !p in
        incr p;
        z := !z lor ((bi land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := bi land 0x80 <> 0
      done;
      out.(j) <- Binc.unzigzag !z;
      at := !p
    end
  done;
  c.at <- !at;
  c.taken <- c.taken + want;
  want

let to_array v =
  let out = Array.make v.count 0 in
  ignore (decode (cursor v) out ~limit:v.count);
  out

(* --- the log ---------------------------------------------------------- *)

(* the longest varint of a non-negative 63-bit int *)
let max_varint = 9
let min_capacity = 4096

let create () =
  { buf = Bytes.create min_capacity; blen = 0; n = 0; crc_sum = 0; crc_len = 0 }

let of_view v =
  let buf = Bytes.create (Stdlib.max min_capacity v.len) in
  blit v buf 0;
  let crc_sum, crc_len = if v.crc >= 0 then (v.crc, v.len) else (0, 0) in
  { buf; blen = v.len; n = v.count; crc_sum; crc_len }

let grow t =
  let bigger = Bytes.create (2 * Bytes.length t.buf) in
  Bytes.blit t.buf 0 bigger 0 t.blen;
  t.buf <- bigger

(* One or two bytes cover every edge of a ring with n <= 8192. *)
let push t e =
  (* [Binc.zigzag], spelled out to keep the hot path call-free *)
  let z = (e lsl 1) lxor (e asr 62) in
  if t.blen + max_varint > Bytes.length t.buf then grow t;
  let b = t.buf and l = t.blen in
  if z land lnot 0x7f = 0 then begin
    Bytes.set_uint8 b l z;
    t.blen <- l + 1
  end
  else if z land lnot 0x3fff = 0 then begin
    Bytes.set_uint16_le b l (0x80 lor (z land 0x7f) lor ((z lsr 7) lsl 8));
    t.blen <- l + 2
  end
  else begin
    if z < 0 then invalid_arg "Prefix_log.push: value out of range";
    t.blen <- Binc.put_varint b l z
  end;
  t.n <- t.n + 1

let view t =
  if t.crc_len < t.blen then begin
    t.crc_sum <-
      Crc32.update_bytes t.crc_sum t.buf ~pos:t.crc_len ~len:(t.blen - t.crc_len);
    t.crc_len <- t.blen
  end;
  { bytes = t.buf; off = 0; len = t.blen; count = t.n; crc = t.crc_sum }
