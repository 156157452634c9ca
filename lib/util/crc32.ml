(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
   Used as the integrity trailer of RBGC/v2 checkpoints.  The tables are
   built once at module init. *)

let poly = 0xEDB88320

(* Slicing-by-8: [tables.(k * 256 + b)] is the register update for byte
   [b] followed by [k] zero bytes, so eight input bytes fold into the
   register with eight independent lookups instead of a chain of eight.
   Slice 0 is the classic byte-at-a-time table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let update_bytes crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: range out of bounds";
  let t = tables in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    let lo = (!c lxor Int64.to_int w) land 0xFFFFFFFF
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      t.((7 * 256) + (lo land 0xFF))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xFF))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t.((!c lxor Bytes.get_uint8 b !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* read-only: the string is never written through the alias *)
let update crc s ~pos ~len = update_bytes crc (Bytes.unsafe_of_string s) ~pos ~len

let string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  update 0 s ~pos ~len

(* CRC arithmetic over GF(2) polynomials modulo [poly], in the reflected
   bit order (bit 31 is x^0), as in zlib's crc32_combine.  Appending
   [len2] bytes after message A multiplies A's register by x^(8 len2), and
   the pre/post conditioning (xor with all ones) cancels between the two
   pieces, so crc(A ^ B) = crc(A) * x^(8 len2) + crc(B). *)
let multmodp a b =
  let p = ref 0 and b = ref b and m = ref (1 lsl 31) in
  while !m <> 0 do
    if a land !m <> 0 then p := !p lxor !b;
    b := if !b land 1 <> 0 then (!b lsr 1) lxor poly else !b lsr 1;
    m := !m lsr 1
  done;
  !p

(* [x2n.(k)] = x^(2^k): byte lengths below 2^62 need bit lengths below
   2^65, so 65 entries cover every [int] length. *)
let x2n =
  let t = Array.make 65 0 in
  t.(0) <- 1 lsl 30 (* x^1 *);
  for k = 1 to 64 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine: negative length";
  (* x^(8 len2), from the set bits of len2 shifted up by three *)
  let p = ref (1 lsl 31) (* x^0 *) and n = ref len2 and k = ref 3 in
  while !n <> 0 do
    if !n land 1 <> 0 then p := multmodp x2n.(!k) !p;
    n := !n lsr 1;
    incr k
  done;
  multmodp !p crc1 lxor crc2
