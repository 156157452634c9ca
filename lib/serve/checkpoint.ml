module Binc = Rbgp_util.Binc
module Crc32 = Rbgp_util.Crc32
module Durable = Rbgp_util.Durable

type t = {
  alg : string;
  epsilon : float;
  seed : int;
  n : int;
  ell : int;
  k : int;
  initial : int array;
  pos : int;
  prefix : Prefix_log.view;
  comm : int;
  mig : int;
  max_load : int;
  violations : int;
  assignment : int array;
  alg_state : string option;
  degraded : int array;
  degraded_left : int;
}

let magic = "RBGC"
let version = 2

let fail ?(path = "<string>") fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Checkpoint: %s: %s" path msg))
    fmt

(* "%h" prints the exact bits as a hex float literal; float_of_string
   reads it back losslessly *)
let add_float buf f = Binc.add_string buf (Printf.sprintf "%h" f)

let read_float ?path r =
  let s = Binc.read_string r in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ?path "bad float literal %S" s

(* v1 layout: magic, varint version, Binc-framed fields through alg_state.
   v2 appends the degraded-span record (flattened (start, len) pairs plus
   the in-flight cooloff remainder) and a little-endian CRC-32 trailer
   over every preceding byte, so torn or bit-flipped records are detected
   before any field is trusted.

   The prefix's bytes are already encoded in the view, exactly as
   [Binc.add_int_array] would emit its elements, so only the head (through
   the prefix count) and the tail are encoded here, and the prefix's
   cached CRC is spliced in with [Crc32.combine].  [pieces] returns the
   head and the tail (for v2 ending in the CRC trailer); [to_string]
   copies the prefix between them once, [write] streams it to the file. *)
let pieces ~version t =
  if version <> 1 && version <> 2 then
    invalid_arg (Printf.sprintf "Checkpoint.to_string: unknown version %d" version);
  if version = 1 && (Array.length t.degraded > 0 || t.degraded_left > 0) then
    invalid_arg "Checkpoint.to_string: degraded spans need version >= 2";
  let head = Buffer.create (64 + (2 * t.n)) in
  Buffer.add_string head magic;
  Binc.add_varint head version;
  Binc.add_string head t.alg;
  add_float head t.epsilon;
  Binc.add_zigzag head t.seed;
  Binc.add_varint head t.n;
  Binc.add_varint head t.ell;
  Binc.add_varint head t.k;
  Binc.add_int_array head t.initial;
  Binc.add_varint head t.pos;
  Binc.add_varint head (Prefix_log.count t.prefix);
  let tail = Buffer.create (64 + (2 * t.n)) in
  Binc.add_varint tail t.comm;
  Binc.add_varint tail t.mig;
  Binc.add_varint tail t.max_load;
  Binc.add_varint tail t.violations;
  Binc.add_int_array tail t.assignment;
  (match t.alg_state with
  | None -> Binc.add_varint tail 0
  | Some s ->
      Binc.add_varint tail 1;
      Binc.add_string tail s);
  if version >= 2 then begin
    Binc.add_int_array tail t.degraded;
    Binc.add_varint tail t.degraded_left;
    let rest = Buffer.contents tail in
    let crc =
      Crc32.update
        (Crc32.combine
           (Crc32.string (Buffer.contents head))
           (Prefix_log.crc t.prefix)
           (Prefix_log.byte_length t.prefix))
        rest ~pos:0 ~len:(String.length rest)
    in
    Buffer.add_int32_le tail (Int32.of_int crc)
  end;
  (head, tail)

let to_string ?(version = version) t =
  let head, tail = pieces ~version t in
  let hl = Buffer.length head and pl = Prefix_log.byte_length t.prefix in
  let out = Bytes.create (hl + pl + Buffer.length tail) in
  Buffer.blit head 0 out 0 hl;
  Prefix_log.blit t.prefix out hl;
  Buffer.blit tail 0 out (hl + pl) (Buffer.length tail);
  Bytes.unsafe_to_string out

let of_string ?path s =
  if String.length s < String.length magic
     || not (String.equal (String.sub s 0 (String.length magic)) magic)
  then fail ?path "bad magic (not a checkpoint file)";
  let r = Binc.reader ~pos:(String.length magic) s in
  (try
     let v = Binc.read_varint r in
     if v <> 1 && v <> 2 then fail ?path "unsupported checkpoint version %d" v;
     let body_end =
       if v >= 2 then begin
         (* verify the CRC trailer before trusting any field *)
         let len = String.length s in
         if len < Binc.reader_pos r + 4 then
           fail ?path "torn record (no room for CRC trailer, %d bytes)" len;
         let stored =
           Char.code s.[len - 4]
           lor (Char.code s.[len - 3] lsl 8)
           lor (Char.code s.[len - 2] lsl 16)
           lor (Char.code s.[len - 1] lsl 24)
         in
         let actual = Crc32.string ~len:(len - 4) s in
         if stored <> actual then
           fail ?path "CRC mismatch (stored %08x, computed %08x over %d bytes)"
             stored actual (len - 4);
         len - 4
       end
       else String.length s
     in
     let alg = Binc.read_string r in
     let epsilon = read_float ?path r in
     let seed = Binc.read_zigzag r in
     let n = Binc.read_varint r in
     let ell = Binc.read_varint r in
     let k = Binc.read_varint r in
     let initial = Binc.read_int_array r in
     let pos = Binc.read_varint r in
     let count = Binc.read_varint r in
     (* step over the encoded prefix without decoding it: the view below
        aliases these bytes, and resume decodes them block by block *)
     let prefix_at = Binc.reader_pos r in
     Binc.skip_varints r count;
     let prefix =
       Prefix_log.of_string s ~off:prefix_at
         ~len:(Binc.reader_pos r - prefix_at) ~count
     in
     let comm = Binc.read_varint r in
     let mig = Binc.read_varint r in
     let max_load = Binc.read_varint r in
     let violations = Binc.read_varint r in
     let assignment = Binc.read_int_array r in
     let alg_state =
       match Binc.read_varint r with
       | 0 -> None
       | 1 -> Some (Binc.read_string r)
       | tag -> fail ?path "bad alg_state tag %d" tag
     in
     (* explicit sequencing: tuple components evaluate right-to-left *)
     let degraded = if v >= 2 then Binc.read_int_array r else [||] in
     let degraded_left = if v >= 2 then Binc.read_varint r else 0 in
     if v >= 2 && Binc.reader_pos r <> body_end then
       fail ?path "record has %d trailing bytes before the CRC"
         (body_end - Binc.reader_pos r);
     if count <> pos then
       fail ?path "prefix length %d does not match pos %d" count pos;
     if Array.length initial <> n || Array.length assignment <> n then
       fail ?path "assignment arrays do not match n = %d" n;
     if Array.length degraded land 1 <> 0 then
       fail ?path "degraded span record has odd length %d"
         (Array.length degraded);
     {
       alg; epsilon; seed; n; ell; k; initial; pos; prefix;
       comm; mig; max_load; violations; assignment; alg_state;
       degraded; degraded_left;
     }
   with Invalid_argument msg when String.length msg >= 4
                                  && String.equal (String.sub msg 0 4) "Binc"
     -> fail ?path "torn record (%s)" msg)

(* All checkpoint bytes reach disk through [Durable.atomic_write] — except
   when the fault plan tears this write, in which case the truncated bytes
   are deliberately written straight to the final path (modelling a legacy
   non-atomic writer or a device that acknowledged an incomplete flush)
   and the process "dies": recovery must then fall back to an older
   generation, which is exactly what the crash matrix exercises. *)
let write ~path t =
  let head, tail = pieces ~version t in
  let len =
    Buffer.length head + Prefix_log.byte_length t.prefix + Buffer.length tail
  in
  match Fault.checkpoint_write_plan ~len with
  | `Full ->
      (* streamed: no record-sized copy of the prefix per roll *)
      Durable.atomic_write_with ~path (fun oc ->
          Buffer.output_buffer oc head;
          Prefix_log.output oc t.prefix;
          Buffer.output_buffer oc tail)
  | `Flip bit ->
      let b = Bytes.of_string (to_string t) in
      let i = bit lsr 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
      Durable.atomic_write ~path (Bytes.unsafe_to_string b)
  | `Tear keep ->
      let data = to_string t in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (String.sub data 0 (min keep (String.length data))));
      raise (Fault.Injected_crash (Printf.sprintf "ckpt-tear (%d bytes kept)" keep))

let read ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string ~path (really_input_string ic len))

let verify ~path =
  match read ~path with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg

(* --- rolling generations ---------------------------------------------- *)

let generation_path path g =
  if g = 0 then path else Printf.sprintf "%s.%d" path g

(* Rotate before writing: if the process dies between the rotation and the
   new write, [path] is missing but [path.1] holds the previous good
   generation, so [read_latest] still recovers. *)
let write_rolling ~path ~keep t =
  if keep < 1 then invalid_arg "Checkpoint.write_rolling: keep < 1";
  for g = keep - 2 downto 0 do
    let src = generation_path path g in
    if Sys.file_exists src then Sys.rename src (generation_path path (g + 1))
  done;
  write ~path t

type recovery = {
  ckpt : t;
  generation : int;
  skipped : (string * string) list;
}

let read_latest ?(generations = 8) ~path () =
  let rec scan g skipped =
    if g >= generations then
      match skipped with
      | [] ->
          fail ~path "no checkpoint generation found (looked at %d paths)"
            generations
      | _ ->
          fail ~path "no verifiable checkpoint generation: %s"
            (String.concat "; "
               (List.rev_map (fun (p, m) -> Printf.sprintf "%s: %s" p m) skipped))
    else
      let p = generation_path path g in
      if not (Sys.file_exists p) then
        (* a missing newest generation is normal right after rotation; a
           gap below an existing one just means fewer generations kept *)
        scan (g + 1) skipped
      else
        match read ~path:p with
        | ckpt -> { ckpt; generation = g; skipped = List.rev skipped }
        | exception Invalid_argument msg -> scan (g + 1) ((p, msg) :: skipped)
        | exception Sys_error msg -> scan (g + 1) ((p, msg) :: skipped)
  in
  scan 0 []

let to_json t =
  Printf.sprintf
    "{\"type\":\"checkpoint\",\"version\":%d,\"alg\":\"%s\",\"epsilon\":%g,\
     \"seed\":%d,\"n\":%d,\"ell\":%d,\"k\":%d,\"pos\":%d,\"comm\":%d,\
     \"mig\":%d,\"max_load\":%d,\"violations\":%d,\"explicit_state\":%b,\
     \"prefix_len\":%d,\"degraded_spans\":%d,\"degraded_left\":%d}"
    version t.alg t.epsilon t.seed t.n t.ell t.k t.pos t.comm t.mig
    t.max_load t.violations
    (Option.is_some t.alg_state)
    (Prefix_log.count t.prefix)
    (Array.length t.degraded / 2)
    t.degraded_left
