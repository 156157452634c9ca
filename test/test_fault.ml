(* Tests for the crash-safety layer:

   - CRC-32 against the standard check vector, incremental updates and
     [combine];
   - Durable.atomic_write / retry_transient semantics;
   - fault-plan parsing (including malformed specs) and the determinism
     of the seeded probabilistic faults;
   - checkpoint v2 integrity (CRC detection, torn records, v1 compat,
     malformed prefixes) and the injected tear / bit-flip write paths;
   - the incremental checkpoint writer against the one-pass Buffer
     encoder it replaced, which is kept here as the byte-for-byte oracle;
   - rolling generations: write_rolling rotation and read_latest
     fallback past corrupt generations. *)

module Crc32 = Rbgp_util.Crc32
module Binc = Rbgp_util.Binc
module Durable = Rbgp_util.Durable
module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Fault = Rbgp_serve.Fault
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Prefix_log = Rbgp_serve.Prefix_log
module Registry = Rbgp_serve.Registry

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

(* Every fault test must leave the process-global plan disarmed. *)
let with_faults spec f =
  Fault.configure spec;
  Fun.protect ~finally:Fault.disable f

let with_tempdir f =
  let dir = Filename.temp_file "rbgp_fault" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A small served engine to produce realistic checkpoints. *)
let engine_at ?(n = 32) ~alg ~steps () =
  let ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:7 in
  let e = Engine.create ~alg ~seed:3 inst in
  Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
  e

(* --- CRC-32 ----------------------------------------------------------- *)

let test_crc32 () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty input" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let oneshot = Crc32.string s in
  let split = Crc32.update (Crc32.string ~len:20 s) s ~pos:20
      ~len:(String.length s - 20)
  in
  Alcotest.(check int) "incremental == one-shot" oneshot split;
  Alcotest.(check bool) "corruption changes the sum" true
    (Crc32.string "123456788" <> oneshot);
  match Crc32.update 0 s ~pos:40 ~len:10 with
  | _ -> Alcotest.fail "out-of-bounds range accepted"
  | exception Invalid_argument _ -> ()

let test_crc32_combine () =
  let whole = Crc32.string "123456789" in
  Alcotest.(check int) "check vector from two pieces" 0xCBF43926
    (Crc32.combine (Crc32.string "12345") (Crc32.string "6789") 4);
  Alcotest.(check int) "empty right piece" whole (Crc32.combine whole 0 0);
  Alcotest.(check int) "empty left piece" whole (Crc32.combine 0 whole 9);
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "update_bytes over a range" whole
    (Crc32.update_bytes 0 b ~pos:2 ~len:9);
  match Crc32.combine whole whole (-1) with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ()

let prop_crc32_combine =
  (* short and long right pieces, so [len b] runs through many bit
     patterns; a cut at either end makes one piece empty *)
  let gen =
    QCheck2.Gen.(
      let* len = oneof [ int_range 0 16; int_range 0 5000 ] in
      let* s = string_size (return len) in
      let* cut = int_range 0 len in
      return (s, cut))
  in
  qtest ~count:300 "combine (string a) (string b) (len b) = string (a ^ b)"
    gen (fun (s, cut) ->
      let a = String.sub s 0 cut
      and b = String.sub s cut (String.length s - cut) in
      Crc32.combine (Crc32.string a) (Crc32.string b) (String.length b)
      = Crc32.string s)

(* --- Durable ----------------------------------------------------------- *)

let test_atomic_write () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "blob" in
      Durable.atomic_write ~path "first";
      Alcotest.(check string) "written" "first"
        (In_channel.with_open_bin path In_channel.input_all);
      Durable.atomic_write ~path "second, longer";
      Alcotest.(check string) "atomically replaced" "second, longer"
        (In_channel.with_open_bin path In_channel.input_all);
      Alcotest.(check bool) "no tmp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_retry_transient () =
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
    else 42
  in
  Alcotest.(check int) "transient errors retried" 42
    (Durable.retry_transient flaky);
  Alcotest.(check int) "exactly three attempts" 3 !calls;
  (* a non-transient error propagates on the first attempt *)
  let hard = ref 0 in
  (match
     Durable.retry_transient (fun () ->
         incr hard;
         raise (Unix.Unix_error (Unix.ENOENT, "open", "gone")))
   with
  | _ -> Alcotest.fail "ENOENT treated as transient"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Alcotest.(check int) "no retry for hard errors" 1 !hard);
  (* bounded attempts: a persistent EINTR eventually surfaces *)
  let spins = ref 0 in
  match
    Durable.retry_transient ~attempts:5 (fun () ->
        incr spins;
        raise (Unix.Unix_error (Unix.EAGAIN, "read", "")))
  with
  | _ -> Alcotest.fail "persistent EAGAIN absorbed forever"
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
      Alcotest.(check int) "attempt budget honoured" 5 !spins

(* --- fault plan parsing ------------------------------------------------ *)

let test_spec_parsing () =
  Alcotest.(check bool) "disarmed by default" false (Fault.armed ());
  with_faults "crash@5,read-eintr:0.25,solver-stall@9:77,seed=12" (fun () ->
      Alcotest.(check bool) "armed" true (Fault.armed ());
      (match Fault.describe () with
      | Some spec ->
          Alcotest.(check bool) "describe echoes the spec" true
            (Astring.String.is_infix ~affix:"crash@5" spec)
      | None -> Alcotest.fail "armed plan has no description"));
  Alcotest.(check bool) "disabled again" false (Fault.armed ());
  Fault.configure "";
  Alcotest.(check bool) "empty spec disarms" false (Fault.armed ());
  List.iter
    (fun bad ->
      match Fault.configure bad with
      | () -> Alcotest.failf "malformed spec %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "bogus"; "crash@"; "crash@x"; "read-eintr:nope"; "read-eintr:1.5";
      "ckpt-tear@0"; "solver-stall@3:"; "seed="; "crash@5@6" ]

let test_counted_faults_fire_once () =
  with_faults "crash@5" (fun () ->
      Fault.crash_check ~step:4;
      (match Fault.crash_check ~step:5 with
      | () -> Alcotest.fail "crash@5 did not fire"
      | exception Fault.Injected_crash _ -> ());
      (* fired faults disarm: a supervised restart replaying past the
         same index must not die again *)
      Fault.crash_check ~step:5);
  with_faults "solver-stall@7:123" (fun () ->
      Alcotest.(check int) "no stall before the index" 0
        (Fault.solver_stall_ns ~step:6);
      Alcotest.(check int) "stall fires with its budget" 123
        (Fault.solver_stall_ns ~step:7);
      Alcotest.(check int) "stall is one-shot" 0
        (Fault.solver_stall_ns ~step:7))

let test_request_fault_pending () =
  with_faults "crash@10" (fun () ->
      Alcotest.(check bool) "inside the block" true
        (Fault.request_fault_pending ~lo:8 ~hi:16);
      Alcotest.(check bool) "below the block" false
        (Fault.request_fault_pending ~lo:0 ~hi:10);
      Alcotest.(check bool) "above the block" false
        (Fault.request_fault_pending ~lo:11 ~hi:20));
  Alcotest.(check bool) "disarmed plans have nothing pending" false
    (Fault.request_fault_pending ~lo:0 ~hi:max_int)

let test_probabilistic_determinism () =
  let schedule () =
    with_faults "read-eintr:0.4,read-eagain:0.2,seed=99" (fun () ->
        List.init 200 (fun _ ->
            match Fault.before_read () with
            | () -> 'n'
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> 'i'
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                'a'))
  in
  let a = schedule () and b = schedule () in
  Alcotest.(check bool) "same seed, same fault schedule" true (a = b);
  Alcotest.(check bool) "faults actually fire" true (List.mem 'i' a);
  Alcotest.(check bool) "reads actually succeed" true (List.mem 'n' a)

let test_read_flip () =
  with_faults "read-flip@2" (fun () ->
      let dst = [| 1; 2; 3; 4; 5 |] in
      Alcotest.(check bool) "batch containing the ordinal is mangled" true
        (Fault.mangle_batch dst ~got:5);
      Alcotest.(check bool) "the planned slot changed" true (dst.(2) <> 3);
      Alcotest.(check int) "neighbours untouched" 2 dst.(1);
      let dst2 = [| 1; 2; 3 |] in
      Alcotest.(check bool) "flip is one-shot" false
        (Fault.mangle_batch dst2 ~got:3));
  with_faults "read-flip@0" (fun () ->
      let v = Fault.mangle_one 5 in
      Alcotest.(check bool) "single-request variant mangles" true (v <> 5);
      Alcotest.(check int) "and disarms" 5 (Fault.mangle_one 5))

(* --- checkpoint integrity ---------------------------------------------- *)

let test_v2_crc_detects_corruption () =
  let e = engine_at ~alg:"onl-dynamic" ~steps:120 () in
  let data = Ckpt.to_string (Engine.checkpoint e) in
  (* round-trips clean *)
  ignore (Ckpt.of_string data);
  (* any flipped byte in the body or trailer must be caught *)
  List.iter
    (fun frac ->
      let i = String.length data * frac / 100 in
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      match Ckpt.of_string (Bytes.to_string b) with
      | _ -> Alcotest.failf "corruption at byte %d accepted" i
      | exception Invalid_argument _ -> ())
    [ 20; 50; 80; 99 ];
  (* torn records are named as such *)
  match Ckpt.of_string (String.sub data 0 (String.length data - 7)) with
  | _ -> Alcotest.fail "torn record accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error mentions the tear or the trailer" true
        (Astring.String.is_infix ~affix:"torn" msg
        || Astring.String.is_infix ~affix:"CRC" msg)

let test_v1_still_readable () =
  let e = engine_at ~alg:"greedy-colocate" ~steps:90 () in
  let ckpt = Engine.checkpoint e in
  let v1 = Ckpt.to_string ~version:1 ckpt in
  let v2 = Ckpt.to_string ckpt in
  Alcotest.(check bool) "v1 and v2 encodings differ" true (v1 <> v2);
  let back = Ckpt.of_string v1 in
  Alcotest.(check string) "alg" ckpt.Ckpt.alg back.Ckpt.alg;
  Alcotest.(check int) "pos" ckpt.Ckpt.pos back.Ckpt.pos;
  Alcotest.(check (array int)) "prefix"
    (Prefix_log.to_array ckpt.Ckpt.prefix)
    (Prefix_log.to_array back.Ckpt.prefix);
  Alcotest.(check (array int)) "assignment" ckpt.Ckpt.assignment
    back.Ckpt.assignment;
  Alcotest.(check (array int)) "v1 carries no degradation" [||]
    back.Ckpt.degraded;
  (* a degraded snapshot cannot be downgraded: v1 has no field for it *)
  let degraded = { ckpt with Ckpt.degraded = [| 3; 2 |] } in
  match Ckpt.to_string ~version:1 degraded with
  | _ -> Alcotest.fail "v1 encoding silently dropped degradation"
  | exception Invalid_argument _ -> ()

(* --- the incremental checkpoint writer ---------------------------------- *)

(* The one-pass Buffer encoder [Checkpoint.to_string] used before it
   spliced in the log's pre-encoded prefix and cached CRC: every field
   re-encoded, the CRC computed over the whole body.  The writer must match
   it byte for byte.  [encode_prefix] replaces the prefix count and
   elements, so malformed records can be built with a valid CRC. *)
let oracle_to_string ?(version = Ckpt.version) ?encode_prefix (t : Ckpt.t) =
  if version <> 1 && version <> 2 then invalid_arg "oracle: unknown version";
  if version = 1 && (Array.length t.Ckpt.degraded > 0 || t.Ckpt.degraded_left > 0)
  then invalid_arg "oracle: degraded spans need version >= 2";
  let buf = Buffer.create 256 in
  Buffer.add_string buf Ckpt.magic;
  Binc.add_varint buf version;
  Binc.add_string buf t.Ckpt.alg;
  Binc.add_string buf (Printf.sprintf "%h" t.Ckpt.epsilon);
  Binc.add_zigzag buf t.Ckpt.seed;
  Binc.add_varint buf t.Ckpt.n;
  Binc.add_varint buf t.Ckpt.ell;
  Binc.add_varint buf t.Ckpt.k;
  Binc.add_int_array buf t.Ckpt.initial;
  Binc.add_varint buf t.Ckpt.pos;
  (match encode_prefix with
  | Some f -> f buf
  | None -> Binc.add_int_array buf (Prefix_log.to_array t.Ckpt.prefix));
  Binc.add_varint buf t.Ckpt.comm;
  Binc.add_varint buf t.Ckpt.mig;
  Binc.add_varint buf t.Ckpt.max_load;
  Binc.add_varint buf t.Ckpt.violations;
  Binc.add_int_array buf t.Ckpt.assignment;
  (match t.Ckpt.alg_state with
  | None -> Binc.add_varint buf 0
  | Some st ->
      Binc.add_varint buf 1;
      Binc.add_string buf st);
  if version >= 2 then begin
    Binc.add_int_array buf t.Ckpt.degraded;
    Binc.add_varint buf t.Ckpt.degraded_left;
    let crc = Crc32.string (Buffer.contents buf) in
    for i = 0 to 3 do
      Buffer.add_char buf (Char.chr ((crc lsr (8 * i)) land 0xff))
    done
  end;
  Buffer.contents buf

let encodings_agree ?version ck =
  match (Ckpt.to_string ?version ck, oracle_to_string ?version ck) with
  | got, want -> String.equal got want
  | exception Invalid_argument _ -> (
      match oracle_to_string ?version ck with
      | _ -> false
      | exception Invalid_argument _ -> true)

let prop_writer_matches_oracle =
  let algs = Array.of_list Registry.names in
  let gen =
    QCheck2.Gen.(
      let* alg = int_range 0 (Array.length algs - 1) in
      (* past 4096 one-byte requests the log reallocates *)
      let* cut = oneof [ int_range 0 64; int_range 0 6000 ] in
      let* version = int_range 1 2 in
      let* spans = list_size (int_range 0 3) (pair (int_range 0 5000) (int_range 1 64)) in
      let* left = oneof [ return 0; int_range 0 64 ] in
      return (alg, cut, version, spans, left))
  in
  let print (alg, cut, version, spans, left) =
    Printf.sprintf "%s cut=%d v%d spans=[%s] left=%d" algs.(alg) cut version
      (String.concat ";"
         (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b) spans))
      left
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~print
       ~name:"to_string = one-pass oracle (alg x cut x version x spans)" gen
       (fun (alg, cut, version, spans, left) ->
         let e = engine_at ~alg:algs.(alg) ~steps:cut () in
         let ck = Engine.checkpoint e in
         let degraded =
           Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) spans)
         in
         let marked = { ck with Ckpt.degraded; degraded_left = left } in
         (* a record read back views the file's bytes and computes its
            prefix CRC lazily; a resumed engine logs a copy of them *)
         let back = Ckpt.of_string (Ckpt.to_string ck) in
         let resumed = Engine.resume back in
         Array.iter
           (fun q -> ignore (Engine.ingest resumed q))
           (gen_trace ~n:32 ~steps:100 ~seed:11);
         encodings_agree ~version ck
         && encodings_agree ~version marked
         && encodings_agree ~version back
         && Prefix_log.to_array back.Ckpt.prefix
            = Prefix_log.to_array ck.Ckpt.prefix
         && encodings_agree ~version (Engine.checkpoint resumed)))

let test_view_survives_reallocation () =
  (* n = 512: most requests take two varint bytes *)
  let e = engine_at ~n:512 ~alg:"never-move" ~steps:1000 () in
  let ck = Engine.checkpoint e in
  let before = Ckpt.to_string ck in
  Array.iter
    (fun q -> ignore (Engine.ingest e q))
    (gen_trace ~n:512 ~steps:20_000 ~seed:13);
  Alcotest.(check int) "view keeps its count" 1000
    (Prefix_log.count ck.Ckpt.prefix);
  Alcotest.(check string) "old view encodes as before" before
    (Ckpt.to_string ck);
  Alcotest.(check string) "old view = oracle" (oracle_to_string ck)
    (Ckpt.to_string ck);
  let now = Engine.checkpoint e in
  Alcotest.(check string) "grown log = oracle" (oracle_to_string now)
    (Ckpt.to_string now)

(* prefix replay decodes the view in 8192-request blocks: cross several,
   ending on a partial one *)
let test_resume_replays_blocks () =
  let e = engine_at ~alg:"onl-dynamic" ~steps:20_000 () in
  let ck = Engine.checkpoint e in
  let resumed = Engine.resume (Ckpt.of_string (Ckpt.to_string ck)) in
  Alcotest.(check int) "position" 20_000 (Engine.pos resumed);
  Alcotest.(check string) "same checkpoint bytes" (Ckpt.to_string ck)
    (Ckpt.to_string (Engine.checkpoint resumed))

let prop_prefix_log_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 3000)
           (oneof [ int_range 0 200; int_range (-5000) 100_000; int_range (-(1 lsl 40)) (1 lsl 40) ]))
        (int_range 1 700))
  in
  qtest ~count:150 "prefix log: encode = Binc, decode in chunks, CRC" gen
    (fun (a, chunk) ->
      (* a view taken halfway folds the first half into the cached CRC;
         the later view must extend it, and the early one stay as it was *)
      let half = Array.length a / 2 in
      let log = Prefix_log.create () in
      Array.iter (Prefix_log.push log) (Array.sub a 0 half);
      let early = Prefix_log.view log in
      Array.iter (Prefix_log.push log) (Array.sub a half (Array.length a - half));
      let v = Prefix_log.view log in
      let buf = Buffer.create 64 in
      Array.iter (Binc.add_zigzag buf) a;
      let bytes = Buffer.contents buf in
      let early_bytes = Buffer.sub buf 0 (Prefix_log.byte_length early) in
      let out = Bytes.create (Prefix_log.byte_length v) in
      Prefix_log.blit v out 0;
      let cur = Prefix_log.cursor v in
      let scratch = Array.make chunk 0 and got = ref [] in
      let continue = ref true in
      while !continue do
        let k = Prefix_log.decode cur scratch ~limit:chunk in
        if k = 0 then continue := false
        else got := Array.sub scratch 0 k :: !got
      done;
      String.equal (Bytes.to_string out) bytes
      && Prefix_log.count v = Array.length a
      && Prefix_log.crc v = Crc32.string bytes
      && Array.concat (List.rev !got) = a
      && Prefix_log.to_array v = a
      && Prefix_log.to_array early = Array.sub a 0 half
      && Prefix_log.crc early = Crc32.string early_bytes)

let test_malformed_prefix_rejected () =
  let e = engine_at ~alg:"never-move" ~steps:50 () in
  let ck = Engine.checkpoint e in
  let served = Prefix_log.to_array ck.Ckpt.prefix in
  let elements buf k =
    for i = 0 to k - 1 do
      Binc.add_zigzag buf served.(i)
    done
  in
  let rejected what data =
    match Ckpt.of_string data with
    | _ -> Alcotest.failf "%s: malformed prefix accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what msg)
          true
          (String.starts_with ~prefix:"Checkpoint: " msg)
  in
  (* every record below carries a valid CRC: the structure check,
     not the checksum, has to catch it *)
  rejected "overlong varint"
    (oracle_to_string ck ~encode_prefix:(fun buf ->
         Binc.add_varint buf 50;
         elements buf 49;
         Buffer.add_string buf (String.make 10 '\x80');
         Buffer.add_char buf '\x01'));
  rejected "count < pos"
    (oracle_to_string ck ~encode_prefix:(fun buf ->
         Binc.add_varint buf 49;
         elements buf 49));
  rejected "count > pos"
    (oracle_to_string ck ~encode_prefix:(fun buf ->
         Binc.add_varint buf 51;
         elements buf 50;
         Binc.add_zigzag buf 0));
  rejected "count past the record"
    (oracle_to_string ck ~encode_prefix:(fun buf ->
         Binc.add_varint buf (1 lsl 60);
         elements buf 50));
  let good = oracle_to_string ck in
  Alcotest.(check string) "the unmodified record is the writer's"
    (Ckpt.to_string ck) good;
  (* torn inside the prefix, and a bit flipped in it *)
  rejected "torn" (String.sub good 0 (String.length good / 2));
  let flipped = Bytes.of_string good in
  let i = String.length good / 2 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x04));
  rejected "flipped" (Bytes.to_string flipped);
  (* a v1 record has no CRC, so the structure check is all there is *)
  rejected "v1 overlong varint"
    (oracle_to_string ~version:1 ck ~encode_prefix:(fun buf ->
         Binc.add_varint buf 50;
         Buffer.add_string buf (String.make 12 '\xff')))

(* A v1 record has no CRC, so a hostile array length reaches the reader:
   32 bytes claiming 2^20 [initial] entries must fail as a typed
   checkpoint error without an array sized by the claim. *)
let test_hostile_array_length () =
  let b = Buffer.create 32 in
  Buffer.add_string b "RBGC";
  Binc.add_varint b 1;
  Binc.add_string b "never-move";
  Binc.add_string b (Printf.sprintf "%h" 0.5);
  Binc.add_zigzag b 1;
  List.iter (Binc.add_varint b) [ 64; 4; 16; 1 lsl 20 ];
  Buffer.add_string b (String.make (32 - Buffer.length b) '\x02');
  let data = Buffer.contents b in
  Alcotest.(check int) "record size" 32 (String.length data);
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  (match Ckpt.of_string data with
  | _ -> Alcotest.fail "hostile length accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "typed error: %s" msg)
        true
        (String.starts_with ~prefix:"Checkpoint: " msg));
  let used = words () -. before in
  if used > 4096. then
    Alcotest.failf "rejecting the record allocated %.0f words" used

let test_injected_tear_and_flip () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      let e = engine_at ~alg:"onl-static" ~steps:100 () in
      let ckpt = Engine.checkpoint e in
      (* a flipped write lands (atomically) but fails verification *)
      with_faults "ckpt-flip@1" (fun () ->
          Ckpt.write ~path ckpt;
          (match Ckpt.verify ~path with
          | Ok _ -> Alcotest.fail "bit-flipped checkpoint verified"
          | Error msg ->
              Alcotest.(check bool) "flip caught by CRC" true
                (Astring.String.is_infix ~affix:"CRC" msg));
          (* the fault disarms: the next write is clean *)
          Ckpt.write ~path ckpt;
          match Ckpt.verify ~path with
          | Ok back -> Alcotest.(check int) "clean rewrite" ckpt.Ckpt.pos
              back.Ckpt.pos
          | Error msg -> Alcotest.failf "clean rewrite failed: %s" msg);
      (* a torn write dies mid-write and leaves a truncated final file *)
      with_faults "ckpt-tear@1:40" (fun () ->
          (match Ckpt.write ~path ckpt with
          | () -> Alcotest.fail "torn write did not kill the process"
          | exception Fault.Injected_crash _ -> ());
          Alcotest.(check int) "exactly the torn prefix on disk" 40
            (let ic = open_in_bin path in
             Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () -> in_channel_length ic));
          match Ckpt.verify ~path with
          | Ok _ -> Alcotest.fail "torn checkpoint verified"
          | Error _ -> ()))

(* --- rolling generations ----------------------------------------------- *)

let test_rolling_generations_and_fallback () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      let snapshot steps =
        Engine.checkpoint (engine_at ~alg:"counter-threshold" ~steps ())
      in
      let c1 = snapshot 40 and c2 = snapshot 80 and c3 = snapshot 120 in
      Ckpt.write_rolling ~path ~keep:3 c1;
      Ckpt.write_rolling ~path ~keep:3 c2;
      Ckpt.write_rolling ~path ~keep:3 c3;
      Alcotest.(check bool) "three generations on disk" true
        (Sys.file_exists path
        && Sys.file_exists (path ^ ".1")
        && Sys.file_exists (path ^ ".2"));
      let r = Ckpt.read_latest ~path () in
      Alcotest.(check int) "newest generation wins" 0 r.Ckpt.generation;
      Alcotest.(check int) "and holds the newest snapshot" 120
        r.Ckpt.ckpt.Ckpt.pos;
      (* tear generation 0: fallback must land on generation 1 *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw / 2)));
      let r = Ckpt.read_latest ~path () in
      Alcotest.(check int) "fallback generation" 1 r.Ckpt.generation;
      Alcotest.(check int) "fallback snapshot" 80 r.Ckpt.ckpt.Ckpt.pos;
      Alcotest.(check int) "the torn generation is reported" 1
        (List.length r.Ckpt.skipped);
      (* corrupt every generation: recovery must fail loudly *)
      List.iter
        (fun p ->
          Out_channel.with_open_bin p (fun oc ->
              Out_channel.output_string oc "not a checkpoint"))
        [ path; path ^ ".1"; path ^ ".2" ];
      match Ckpt.read_latest ~path () with
      | _ -> Alcotest.fail "recovery from all-corrupt generations"
      | exception (Invalid_argument _ | Failure _) -> ())

let () =
  Alcotest.run "fault"
    [
      ( "integrity",
        [
          Alcotest.test_case "crc32 vectors and updates" `Quick test_crc32;
          Alcotest.test_case "crc32 combine vectors" `Quick test_crc32_combine;
          prop_crc32_combine;
          Alcotest.test_case "atomic_write" `Quick test_atomic_write;
          Alcotest.test_case "retry_transient" `Quick test_retry_transient;
        ] );
      ( "plan",
        [
          Alcotest.test_case "spec parsing + malformed specs" `Quick
            test_spec_parsing;
          Alcotest.test_case "counted faults fire once" `Quick
            test_counted_faults_fire_once;
          Alcotest.test_case "request_fault_pending windows" `Quick
            test_request_fault_pending;
          Alcotest.test_case "seeded faults are deterministic" `Quick
            test_probabilistic_determinism;
          Alcotest.test_case "read-flip mangles one request" `Quick
            test_read_flip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "v2 CRC detects corruption" `Quick
            test_v2_crc_detects_corruption;
          Alcotest.test_case "v1 records remain readable" `Quick
            test_v1_still_readable;
          Alcotest.test_case "injected tear and flip" `Quick
            test_injected_tear_and_flip;
          prop_writer_matches_oracle;
          Alcotest.test_case "view survives log reallocation" `Quick
            test_view_survives_reallocation;
          Alcotest.test_case "resume replays a multi-block prefix" `Quick
            test_resume_replays_blocks;
          prop_prefix_log_roundtrip;
          Alcotest.test_case "hostile array length rejected" `Quick
            test_hostile_array_length;
          Alcotest.test_case "malformed prefixes rejected" `Quick
            test_malformed_prefix_rejected;
          Alcotest.test_case "rolling generations + fallback" `Quick
            test_rolling_generations_and_fallback;
        ] );
    ]
