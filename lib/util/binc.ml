let add_varint buf v =
  if v < 0 then invalid_arg "Binc.add_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let rec put_varint_loop b off v =
  if v < 0x80 then begin
    Bytes.set_uint8 b off v;
    off + 1
  end
  else begin
    Bytes.set_uint8 b off (0x80 lor (v land 0x7f));
    put_varint_loop b (off + 1) (v lsr 7)
  end

let put_varint b off v =
  if v < 0 then invalid_arg "Binc.put_varint: negative";
  put_varint_loop b off v

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let add_zigzag buf n = add_varint buf (zigzag n)

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_int_array buf a =
  add_varint buf (Array.length a);
  Array.iter (fun x -> add_zigzag buf x) a

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }

let truncated who pos =
  invalid_arg (Printf.sprintf "Binc.%s: truncated input at byte %d" who pos)

let read_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.pos >= String.length r.data then truncated "read_varint" r.pos;
    if !shift > 62 then invalid_arg "Binc.read_varint: varint too long";
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let read_zigzag r = unzigzag (read_varint r)

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then truncated "read_string" r.pos;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_int_array r =
  let len = read_varint r in
  (* every element takes at least one byte: a length the input cannot
     hold is truncation, found before the array is allocated *)
  if len < 0 then invalid_arg "Binc.read_int_array: negative length";
  if len > String.length r.data - r.pos then truncated "read_int_array" r.pos;
  Array.init len (fun _ -> read_zigzag r)

let skip_varints r count =
  for _ = 1 to count do
    ignore (read_varint r)
  done

let at_end r = r.pos >= String.length r.data
let reader_pos r = r.pos

(* --- block decoding over byte regions --------------------------------- *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type region = { big : bigbytes; mutable rpos : int; rend : int }

let region ?(pos = 0) big =
  let len = Bigarray.Array1.dim big in
  if pos < 0 || pos > len then invalid_arg "Binc.region: position out of range";
  { big; rpos = pos; rend = len }

let region_of_string s =
  let len = String.length s in
  let big = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.set big i s.[i]
  done;
  { big; rpos = 0; rend = len }

let region_pos r = r.rpos
let region_length r = r.rend
let region_at_end r = r.rpos >= r.rend

let region_read_string r len =
  if len < 0 || r.rpos + len > r.rend then
    truncated "region_read_string" r.rpos;
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Bigarray.Array1.get r.big (r.rpos + i))
  done;
  r.rpos <- r.rpos + len;
  Bytes.unsafe_to_string b

let region_read_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.rpos >= r.rend then truncated "region_read_varint" r.rpos;
    if !shift > 62 then invalid_arg "Binc.region_read_varint: varint too long";
    let b = Char.code (Bigarray.Array1.get r.big r.rpos) in
    r.rpos <- r.rpos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let region_read_zigzag r = unzigzag (region_read_varint r)

(* The bulk decoder behind [Source.next_batch]: one tight loop over the
   mapped bytes, no closure per byte or per frame.  Torn-frame parity with
   the channel reader is load-bearing: complete varints decoded before a
   torn tail are delivered (return value < limit with the cursor parked on
   the torn byte), and only a call that cannot make progress — the torn
   varint is the very next thing in the region — raises.  A clean end of
   region returns 0, the block analogue of [input_varint_opt]'s [None]. *)
let decode_varints r out ~limit =
  if limit < 0 || limit > Array.length out then
    invalid_arg "Binc.decode_varints: bad limit";
  let big = r.big and rend = r.rend in
  let pos = ref r.rpos and count = ref 0 in
  (try
     while !count < limit && !pos < rend do
       let b0 = Char.code (Bigarray.Array1.get big !pos) in
       if b0 < 0x80 then begin
         (* single-byte fast path: the common case for small rings *)
         out.(!count) <- b0;
         incr count;
         incr pos
       end
       else begin
         let v = ref (b0 land 0x7f) and shift = ref 7 and p = ref (!pos + 1) in
         let continue = ref true in
         while !continue do
           if !p >= rend then raise Exit;
           if !shift > 62 then
             invalid_arg "Binc.decode_varints: varint too long";
           let b = Char.code (Bigarray.Array1.get big !p) in
           incr p;
           v := !v lor ((b land 0x7f) lsl !shift);
           shift := !shift + 7;
           continue := b land 0x80 <> 0
         done;
         out.(!count) <- !v;
         incr count;
         pos := !p
       end
     done
   with Exit ->
     (* torn varint at the end of the region: deliver what we have; a call
        that decoded nothing has hit the tear head-on, which is corruption
        (the region is the whole file), not end-of-stream *)
     if !count = 0 then begin
       r.rpos <- !pos;
       truncated "decode_varints" !pos
     end);
  r.rpos <- !pos;
  !count

let output_varint oc v =
  if v < 0 then invalid_arg "Binc.output_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    output_char oc (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  output_char oc (Char.chr !v)

let output_zigzag oc n = output_varint oc (zigzag n)

(* [first]: a clean EOF before any byte is a normal end-of-stream
   (End_of_file propagates / None); after the first byte the varint is
   torn, which is corruption, not end-of-stream *)
let input_varint_from ~first oc_byte =
  let v = ref 0 and shift = ref 0 and continue = ref true and first = ref first in
  while !continue do
    if !shift > 62 then invalid_arg "Binc.input_varint: varint too long";
    let b =
      if !first then oc_byte ()
      else
        try oc_byte ()
        with End_of_file -> invalid_arg "Binc.input_varint: truncated input"
    in
    first := false;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let input_varint ic = input_varint_from ~first:true (fun () -> input_byte ic)

let input_varint_opt ic =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 ->
      if b0 land 0x80 = 0 then Some b0
      else
        let rest =
          input_varint_from ~first:false (fun () -> input_byte ic)
        in
        Some ((b0 land 0x7f) lor (rest lsl 7))

let input_zigzag ic = unzigzag (input_varint ic)
