(* The networked serving tier, end to end and in process.

   The dechunker suite is the satellite-2 contract: a multi-frame byte
   stream split at EVERY byte boundary — and at random boundaries under
   qcheck — reassembles frame for frame into the unsplit sequence.

   The isolation suite is the tentpole's acceptance criterion: two
   tenants interleaved over one socket connection produce decisions,
   final totals and checkpoint bytes identical to two engines run in
   isolation (the pipe-mode baseline), including after a supervised
   mid-connection engine kill followed by reconnect-and-resume.  Both
   ends of the socket run in this process: the client's [pump] callback
   single-steps the server whenever the client would block.

   The HTTP suite pins the observability contract: /metrics (Prometheus
   text exposition), /tenants (JSON) and the per-tenant metric
   snapshots all report the same numbers. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Fault = Rbgp_serve.Fault
module Metrics = Rbgp_serve.Metrics
module Proto = Rbgp_serve.Proto
module Tenant = Rbgp_serve.Tenant
module Http = Rbgp_serve.Http
module Net = Rbgp_serve.Net

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

(* Every decision field except the wall-clock latency. *)
let decision_key (d : Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d" d.Engine.step d.Engine.edge
    d.Engine.comm d.Engine.moved d.Engine.cum_comm d.Engine.cum_mig
    d.Engine.max_load

let with_tempdir f =
  let dir = Filename.temp_file "rbgp_net" ".d" in
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

(* --- dechunker: split-anywhere reassembly ------------------------------ *)

let frame_key (f : Proto.frame) =
  Printf.sprintf "%d|%d|%S" f.Proto.stream
    (Proto.op_to_int f.Proto.op)
    f.Proto.payload

let encode_frames frames =
  String.concat ""
    (List.map
       (fun (stream, op, payload) -> Proto.frame_to_string ~stream op payload)
       frames)

let drain_frames d =
  let rec go acc =
    match Proto.next d with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

(* Feed [wire] in pieces cut at [cuts] (sorted positions), pulling
   complete frames after every piece exactly as the serve loop does. *)
let reassemble wire cuts =
  let d = Proto.dechunker () in
  let acc = ref [] in
  let prev = ref 0 in
  List.iter
    (fun cut ->
      Proto.feed_string d (String.sub wire !prev (cut - !prev));
      acc := !acc @ drain_frames d;
      prev := cut)
    (cuts @ [ String.length wire ]);
  if Proto.pending_bytes d <> 0 then
    Alcotest.failf "dechunker parked %d bytes of a complete stream"
      (Proto.pending_bytes d);
  !acc

let sample_frames =
  [
    (0, Proto.Hello, "RBGN\001");
    (1, Proto.Open_stream, "tenant-config-bytes");
    (1, Proto.Req, String.init 40 (fun i -> Char.chr (i * 3 mod 256)));
    (2, Proto.Req_quiet, "");
    (1, Proto.Decisions, String.make 120 '\xff');
    (0, Proto.Draining, "");
    (7, Proto.Closed, "totals");
  ]

let test_dechunker_every_boundary () =
  let wire = encode_frames sample_frames in
  let want = List.map frame_key (reassemble wire []) in
  Alcotest.(check int)
    "unsplit decode yields every frame" (List.length sample_frames)
    (List.length want);
  for cut = 0 to String.length wire do
    let got = List.map frame_key (reassemble wire [ cut ]) in
    if not (List.equal String.equal want got) then
      Alcotest.failf "split at byte %d changed the frame sequence" cut
  done

let test_dechunker_byte_at_a_time () =
  let wire = encode_frames sample_frames in
  let want = List.map frame_key (reassemble wire []) in
  let cuts = List.init (String.length wire) (fun i -> i + 1) in
  let got = List.map frame_key (reassemble wire cuts) in
  Alcotest.(check (list string)) "byte-at-a-time identical" want got

let gen_wire_and_cuts =
  QCheck2.Gen.(
    let frame =
      triple (int_range 0 1000)
        (map Proto.op_of_int (int_range 1 14))
        (string_size ~gen:char (int_range 0 300))
    in
    let* frames = list_size (int_range 1 12) frame in
    let wire = encode_frames frames in
    let* cuts =
      list_size (int_range 0 20) (int_range 0 (String.length wire))
    in
    return (frames, wire, List.sort_uniq Int.compare cuts))

let qcheck_dechunker_random_splits =
  qtest ~count:300 "qcheck: random splits reassemble frame-for-frame"
    gen_wire_and_cuts
    (fun (frames, wire, cuts) ->
      let got = List.map frame_key (reassemble wire cuts) in
      let want =
        List.map (fun (stream, op, payload) ->
            frame_key { Proto.stream; op; payload })
          frames
      in
      List.equal String.equal want got)

let test_dechunker_rejects_garbage () =
  (* A varint that never terminates within 10 bytes is unrepairable. *)
  let d = Proto.dechunker () in
  Alcotest.check_raises "varint overflow raises"
    (Proto.Protocol_error "varint over 63 bits") (fun () ->
      Proto.feed_string d (String.make 11 '\xff');
      ignore (Proto.next d))

(* --- payload codecs against the Binc-loop oracle ----------------------- *)

(* The Req/Decisions payload codecs and the frame encoder as they were
   written over Binc's loops, before the inlined fast paths and the
   in-place header: the oracle for the bytes on the wire, for the
   decodes and for the inputs that must be rejected. *)
module Oracle = struct
  module Binc = Rbgp_util.Binc

  let add_frame buf ~stream op payload =
    let len = String.length payload in
    if len > Proto.max_payload then
      raise (Proto.Protocol_error (Printf.sprintf "payload %d over limit" len));
    Binc.add_varint buf stream;
    Binc.add_varint buf (Proto.op_to_int op);
    Binc.add_varint buf len;
    Buffer.add_string buf payload

  let frame_to_string ~stream op payload =
    let buf = Buffer.create (String.length payload + 12) in
    add_frame buf ~stream op payload;
    Buffer.contents buf

  let finish r what =
    if not (Binc.at_end r) then
      raise (Proto.Protocol_error (Printf.sprintf "%s: trailing bytes" what))

  let decode what f payload =
    match f (Binc.reader payload) with
    | v -> v
    | exception Invalid_argument m ->
        raise (Proto.Protocol_error (Printf.sprintf "%s: %s" what m))

  let add_req buf edges ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Array.length edges then
      invalid_arg "Proto.add_req";
    for i = pos to pos + len - 1 do
      Binc.add_varint buf edges.(i)
    done

  let read_req payload =
    decode "req"
      (fun r ->
        let cap = ref (Array.make 64 0) in
        let n = ref 0 in
        while not (Binc.at_end r) do
          if !n = Array.length !cap then begin
            let b = Array.make (2 * !n) 0 in
            Array.blit !cap 0 b 0 !n;
            cap := b
          end;
          !cap.(!n) <- Binc.read_varint r;
          incr n
        done;
        Array.sub !cap 0 !n)
      payload

  let add_decisions buf ~start_pos (ds : Engine.decision array) =
    Binc.add_varint buf start_pos;
    Binc.add_varint buf (Array.length ds);
    Array.iter
      (fun (d : Engine.decision) ->
        Binc.add_varint buf d.edge;
        Binc.add_varint buf d.comm;
        Binc.add_varint buf d.moved;
        Binc.add_varint buf d.cum_comm;
        Binc.add_varint buf d.cum_mig;
        Binc.add_varint buf d.max_load;
        Binc.add_varint buf d.latency_ns)
      ds

  let read_decisions payload =
    decode "decisions"
      (fun r ->
        let start_pos = Binc.read_varint r in
        let count = Binc.read_varint r in
        if count > Proto.max_payload then
          raise (Proto.Protocol_error "decisions: count over limit");
        let ds =
          Array.init count (fun i ->
              let edge = Binc.read_varint r in
              let comm = Binc.read_varint r in
              let moved = Binc.read_varint r in
              let cum_comm = Binc.read_varint r in
              let cum_mig = Binc.read_varint r in
              let max_load = Binc.read_varint r in
              let latency_ns = Binc.read_varint r in
              {
                Engine.step = start_pos + i;
                edge;
                comm;
                moved;
                cum_comm;
                cum_mig;
                max_load;
                latency_ns;
              })
        in
        finish r "decisions";
        (start_pos, ds))
      payload
end

let encode f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

(* A frame as the server and client now write one: the header put in
   place, then the payload behind it. *)
let frame_in_place ~stream op payload =
  let len = String.length payload in
  let b = Bytes.create (Proto.max_header + len) in
  let off = Proto.put_header b 0 ~stream op ~len in
  Bytes.blit_string payload 0 b off len;
  Bytes.sub_string b 0 (off + len)

(* Every field, latency included. *)
let full_key (d : Engine.decision) =
  Printf.sprintf "%s|%d" (decision_key d) d.Engine.latency_ns

(* Both decoders reject the input with [Protocol_error], or both accept
   it with equal results. *)
let agree ~equal f g s =
  let run h =
    match h s with v -> Some v | exception Proto.Protocol_error _ -> None
  in
  match (run f, run g) with
  | Some a, Some b -> equal a b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let same_req = agree ~equal:( = ) Proto.read_req Oracle.read_req

let same_decisions =
  agree
    ~equal:(fun (p, a) (q, b) ->
      p = q && List.equal String.equal
                 (List.map full_key (Array.to_list a))
                 (List.map full_key (Array.to_list b)))
    Proto.read_decisions Oracle.read_decisions

let both_reject what s =
  let rejects f =
    match f s with _ -> false | exception Proto.Protocol_error _ -> true
  in
  if not (rejects (fun s -> ignore (Proto.read_decisions s))) then
    Alcotest.failf "%s: accepted by the decoder" what;
  if not (rejects (fun s -> ignore (Oracle.read_decisions s))) then
    Alcotest.failf "%s: accepted by the oracle" what

(* One-, two-, three- and nine-byte varints, max_int included. *)
let gen_value =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range 0 127);
        (3, int_range 128 16383);
        (2, int_range 16384 ((1 lsl 21) - 1));
        (1, map (fun x -> max_int - x) (int_range 0 1000));
      ])

let gen_decision =
  QCheck2.Gen.(
    let* edge = gen_value and* comm = gen_value and* moved = gen_value in
    let* cum_comm = gen_value and* cum_mig = gen_value in
    let* max_load = gen_value and* latency_ns = gen_value in
    return
      {
        Engine.step = 0;
        edge;
        comm;
        moved;
        cum_comm;
        cum_mig;
        max_load;
        latency_ns;
      })

let gen_batch =
  QCheck2.Gen.(
    let* stream = gen_value and* start_pos = gen_value in
    let* edges = array_size (int_range 0 80) gen_value in
    let* ds = array_size (int_range 0 80) gen_decision in
    return (stream, start_pos, edges, ds))

let qcheck_codec_oracle =
  qtest ~count:300 "qcheck: payloads and frames == Binc-loop oracle" gen_batch
    (fun (stream, start_pos, edges, ds) ->
      let len = Array.length edges in
      let req = encode (fun b -> Proto.add_req b edges ~pos:0 ~len) in
      let dec = encode (fun b -> Proto.add_decisions b ~start_pos ds) in
      String.equal req (encode (fun b -> Oracle.add_req b edges ~pos:0 ~len))
      && String.equal dec
           (encode (fun b -> Oracle.add_decisions b ~start_pos ds))
      && List.for_all
           (fun (op, payload) ->
             let want = Oracle.frame_to_string ~stream op payload in
             String.equal want (Proto.frame_to_string ~stream op payload)
             && String.equal want (frame_in_place ~stream op payload))
           [ (Proto.Req, req); (Proto.Decisions, dec); (Proto.Ack, "") ]
      && Proto.read_req req = edges
      && same_req req && same_decisions dec
      && List.equal String.equal
           (List.map full_key (Array.to_list (snd (Proto.read_decisions dec))))
           (List.mapi
              (fun i (d : Engine.decision) ->
                full_key { d with Engine.step = start_pos + i })
              (Array.to_list ds)))

(* Truncations, an over-long varint spliced in and a trailing byte:
   both codecs reject the same Decisions inputs, and agree on every Req
   input (a Req cut at a varint boundary is a shorter, valid batch). *)
let qcheck_codec_hostile =
  qtest ~count:200 "qcheck: hostile payloads rejected by both codecs"
    QCheck2.Gen.(pair gen_batch (int_range 0 1_000_000))
    (fun ((_, start_pos, edges, ds), at) ->
      let len = Array.length edges in
      let req = encode (fun b -> Proto.add_req b edges ~pos:0 ~len) in
      let dec = encode (fun b -> Proto.add_decisions b ~start_pos ds) in
      let splice s =
        let i = at mod (String.length s + 1) in
        String.sub s 0 i ^ String.make 10 '\xff' ^ "\x01"
        ^ String.sub s i (String.length s - i)
      in
      for cut = 0 to String.length dec - 1 do
        both_reject "truncated decisions" (String.sub dec 0 cut)
      done;
      both_reject "over-long varint in decisions" (splice dec);
      both_reject "decisions with a trailing byte" (dec ^ "\x00");
      let rec prefixes cut =
        cut > String.length req
        || (same_req (String.sub req 0 cut) && prefixes (cut + 1))
      in
      prefixes 0 && same_req (splice req) && same_req (req ^ "\x80")
      && (match Proto.read_req (splice req) with
         | _ -> false
         | exception Proto.Protocol_error _ -> true))

let test_codec_edge_values () =
  let values = [| 0; 127; 128; 16383; 16384; (1 lsl 21) - 1; 1 lsl 21; max_int |] in
  let ds =
    Array.map
      (fun v ->
        {
          Engine.step = 0;
          edge = v;
          comm = v;
          moved = v;
          cum_comm = v;
          cum_mig = v;
          max_load = v;
          latency_ns = v;
        })
      values
  in
  let len = Array.length values in
  let req = encode (fun b -> Proto.add_req b values ~pos:0 ~len) in
  Alcotest.(check string) "req bytes"
    (encode (fun b -> Oracle.add_req b values ~pos:0 ~len)) req;
  Alcotest.(check (array int)) "req decode" values (Proto.read_req req);
  let dec = encode (fun b -> Proto.add_decisions b ~start_pos:max_int ds) in
  Alcotest.(check string) "decisions bytes"
    (encode (fun b -> Oracle.add_decisions b ~start_pos:max_int ds)) dec;
  Alcotest.(check bool) "decisions decode" true (same_decisions dec);
  (* the empty batch, both ways *)
  let empty_req = encode (fun b -> Proto.add_req b values ~pos:3 ~len:0) in
  Alcotest.(check string) "empty req" "" empty_req;
  Alcotest.(check (array int)) "empty req decode" [||] (Proto.read_req "");
  let empty = encode (fun b -> Proto.add_decisions b ~start_pos:7 [||]) in
  Alcotest.(check string) "empty decisions bytes"
    (encode (fun b -> Oracle.add_decisions b ~start_pos:7 [||])) empty;
  (match Proto.read_decisions empty with
  | 7, [||] -> ()
  | _ -> Alcotest.fail "empty decisions decode");
  Alcotest.(check string) "empty frame"
    (Oracle.frame_to_string ~stream:3 Proto.Decisions "")
    (Proto.frame_to_string ~stream:3 Proto.Decisions "");
  (* a 10-byte varint is over 63 bits for both *)
  both_reject "10-byte count" ("\x00" ^ String.make 9 '\xff' ^ "\x01");
  Alcotest.(check bool) "10-byte req varint" true
    (match Proto.read_req (String.make 9 '\x80' ^ "\x01") with
    | _ -> false
    | exception Proto.Protocol_error _ -> true)

let allocated_words f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  f ();
  words () -. before

(* A 12-byte Decisions payload claiming 2^22 decisions is rejected before
   an array is sized by the claim (the oracle allocates 2^22 words). *)
let test_decisions_count_bounded () =
  let b = Buffer.create 12 in
  Rbgp_util.Binc.add_varint b 0;
  Rbgp_util.Binc.add_varint b (1 lsl 22);
  Buffer.add_string b (String.make 7 '\x00');
  let payload = Buffer.contents b in
  Alcotest.(check int) "payload size" 12 (String.length payload);
  let words =
    allocated_words (fun () ->
        match Proto.read_decisions payload with
        | _ -> Alcotest.fail "hostile count accepted"
        | exception Proto.Protocol_error _ -> ())
  in
  if words > 4096. then
    Alcotest.failf "rejecting the payload allocated %.0f words" words

(* --- in-process server + client ---------------------------------------- *)

let next_sock =
  let c = ref 0 in
  fun dir ->
    incr c;
    Filename.concat dir (Printf.sprintf "s%d.sock" !c)

let with_server ?(supervise = false) ?checkpoint_every ~dir f =
  let router =
    Tenant.create ~checkpoint_dir:dir
      ?checkpoint_every ~checkpoint_keep:3 ()
  in
  let addr = Net.Unix_sock (next_sock dir) in
  let server = Net.server ~supervise ~router addr in
  Fun.protect
    ~finally:(fun () -> Net.shutdown server)
    (fun () -> f router server addr)

let connect_pumped server addr =
  Net.connect ~pump:(fun () -> ignore (Net.step server)) addr

let open_cfg ~tenant ~alg ~seed ~n ~ell =
  { Proto.tenant; alg; n; ell; epsilon = 0.5; seed }

(* Reference: the same tenant served by a directly-driven engine. *)
let reference_run ~alg ~seed ~n ~ell trace =
  let engine =
    Engine.create ~epsilon:0.5 ~alg ~seed (Instance.blocks ~n ~ell)
  in
  let decisions = Engine.ingest_batch engine trace in
  (Array.to_list decisions, Engine.result engine, Engine.checkpoint engine)

let batches_of trace ~batch =
  let rec go pos acc =
    if pos >= Array.length trace then List.rev acc
    else
      let len = Stdlib.min batch (Array.length trace - pos) in
      go (pos + len) (Array.sub trace pos len :: acc)
  in
  go 0 []

let test_two_tenants_isolated () =
  let n = 128 and ell = 8 and steps = 600 in
  let trace_a = gen_trace ~n ~steps ~seed:11 in
  let trace_b = gen_trace ~n ~steps ~seed:12 in
  let ref_a = reference_run ~alg:"onl-dynamic" ~seed:1 ~n ~ell trace_a in
  let ref_b = reference_run ~alg:"greedy-colocate" ~seed:2 ~n ~ell trace_b in
  with_tempdir (fun dir ->
      with_server ~dir ~checkpoint_every:100 (fun router server addr ->
          let cl = connect_pumped server addr in
          let pos_a =
            Net.open_stream cl ~stream:1
              (open_cfg ~tenant:"a" ~alg:"onl-dynamic" ~seed:1 ~n ~ell)
          and pos_b =
            Net.open_stream cl ~stream:2
              (open_cfg ~tenant:"b" ~alg:"greedy-colocate" ~seed:2 ~n ~ell)
          in
          Alcotest.(check (pair int int)) "fresh tenants start at 0" (0, 0)
            (pos_a, pos_b);
          (* interleave: one batch per tenant per round, over one wire *)
          let got_a = ref [] and got_b = ref [] in
          List.iter2
            (fun ba bb ->
              let da = Net.request cl ~stream:1 ba ~pos:0 ~len:(Array.length ba)
              and db =
                Net.request cl ~stream:2 bb ~pos:0 ~len:(Array.length bb)
              in
              got_a := !got_a @ Array.to_list da;
              got_b := !got_b @ Array.to_list db)
            (batches_of trace_a ~batch:97)
            (batches_of trace_b ~batch:97);
          let check_tenant name tid (ref_ds, ref_result, ref_ckpt) got =
            Alcotest.(check (list string))
              (name ^ ": decisions identical to the isolated engine")
              (List.map decision_key ref_ds)
              (List.map decision_key got);
            (match Tenant.find router tid with
            | Some tn -> (
                match Tenant.engine tn with
                | Some engine ->
                    Alcotest.(check string)
                      (name ^ ": checkpoint bytes identical")
                      (Ckpt.to_string ref_ckpt)
                      (Ckpt.to_string (Engine.checkpoint engine))
                | None -> Alcotest.fail (name ^ ": engine released early"))
            | None -> Alcotest.fail (name ^ ": tenant missing"));
            let closed =
              Net.close_stream cl
                ~stream:(if String.equal tid "a" then 1 else 2)
            in
            let cost = ref_result.Rbgp_ring.Simulator.cost in
            Alcotest.(check (list int))
              (name ^ ": closed totals match the isolated result")
              [
                ref_result.Rbgp_ring.Simulator.steps;
                cost.Rbgp_ring.Cost.comm;
                cost.Rbgp_ring.Cost.mig;
                ref_result.Rbgp_ring.Simulator.max_load;
              ]
              [
                closed.Proto.closed_pos;
                closed.Proto.closed_comm;
                closed.Proto.closed_mig;
                closed.Proto.closed_max_load;
              ]
          in
          check_tenant "tenant a" "a" ref_a !got_a;
          check_tenant "tenant b" "b" ref_b !got_b;
          Net.close cl))

let test_quiet_path_identity () =
  let n = 128 and ell = 8 and steps = 500 in
  let trace = gen_trace ~n ~steps ~seed:21 in
  let _, ref_result, ref_ckpt =
    reference_run ~alg:"onl-dynamic" ~seed:5 ~n ~ell trace
  in
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"q" ~alg:"onl-dynamic" ~seed:5 ~n ~ell));
          let last = ref None in
          List.iter
            (fun b ->
              last :=
                Some (Net.request_quiet cl ~stream:1 b ~pos:0 ~len:(Array.length b)))
            (batches_of trace ~batch:128);
          (match !last with
          | Some ack ->
              let cost = ref_result.Rbgp_ring.Simulator.cost in
              Alcotest.(check (list int))
                "final ack totals match the isolated result"
                [ steps; cost.Rbgp_ring.Cost.comm; cost.Rbgp_ring.Cost.mig ]
                [ ack.Proto.pos; ack.Proto.cum_comm; ack.Proto.cum_mig ]
          | None -> Alcotest.fail "no ack received");
          (match Tenant.find router "q" with
          | Some tn -> (
              match Tenant.engine tn with
              | Some engine ->
                  Alcotest.(check string)
                    "quiet-path checkpoint identical to decision-path"
                    (Ckpt.to_string ref_ckpt)
                    (Ckpt.to_string (Engine.checkpoint engine))
              | None -> Alcotest.fail "engine released early")
          | None -> Alcotest.fail "tenant missing");
          Net.close cl))

let test_config_mismatch_and_unknown_stream () =
  with_tempdir (fun dir ->
      with_server ~dir (fun _router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"x" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4));
          (match
             Net.open_stream cl ~stream:2
               (open_cfg ~tenant:"x" ~alg:"onl-dynamic" ~seed:9 ~n:64 ~ell:4)
           with
          | _ -> Alcotest.fail "config mismatch not reported"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "config mismatch code"
                Proto.err_config_mismatch code);
          (match Net.request cl ~stream:9 [| 0 |] ~pos:0 ~len:1 with
          | _ -> Alcotest.fail "unknown stream not reported"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "unknown stream code"
                Proto.err_unknown_stream code);
          Net.close cl))

(* --- supervised kill mid-connection + reconnect-resume ----------------- *)

let test_kill_and_reconnect_resume () =
  let n = 128 and ell = 8 and steps = 700 in
  let trace = gen_trace ~n ~steps ~seed:31 in
  let ref_ds, _, ref_ckpt =
    reference_run ~alg:"onl-dynamic" ~seed:3 ~n ~ell trace
  in
  with_tempdir (fun dir ->
      with_server ~supervise:true ~checkpoint_every:64 ~dir
        (fun router server addr ->
          let cfg = open_cfg ~tenant:"k" ~alg:"onl-dynamic" ~seed:3 ~n ~ell in
          let cl = connect_pumped server addr in
          ignore (Net.open_stream cl ~stream:1 cfg);
          (* Overlay semantics: keep the latest decision seen per step. *)
          let seen = Hashtbl.create 1024 in
          let record ds =
            Array.iter
              (fun (d : Engine.decision) ->
                Hashtbl.replace seen d.Engine.step (decision_key d))
              ds
          in
          Fault.configure "crash@351";
          Fun.protect ~finally:Fault.disable (fun () ->
              let batches = batches_of trace ~batch:90 in
              let crashed = ref false in
              let rec send cl pos = function
                | [] -> cl
                | b :: rest -> (
                    match
                      Net.request cl ~stream:1 b ~pos:0 ~len:(Array.length b)
                    with
                    | ds ->
                        record ds;
                        send cl (pos + Array.length b) rest
                    | exception Net.Server_error (code, _)
                      when code = Proto.err_tenant_failed ->
                        crashed := true;
                        (* The connection survives a supervised kill:
                           re-open on the same wire and resume from the
                           checkpointed position. *)
                        let resume = Net.open_stream cl ~stream:1 cfg in
                        if resume > pos then
                          Alcotest.failf
                            "resume position %d is past the unsent suffix %d"
                            resume pos;
                        let tail =
                          Array.sub trace resume (Array.length trace - resume)
                        in
                        send cl resume (batches_of tail ~batch:90))
              in
              let cl = send cl 0 batches in
              Alcotest.(check bool) "the injected crash fired" true !crashed;
              Alcotest.(check bool) "tenant was killed and revived" true
                (match Tenant.find router "k" with
                | Some tn -> (
                    match Tenant.state tn with Tenant.Serving -> true | _ -> false)
                | None -> false);
              let overlay =
                List.init steps (fun i ->
                    match Hashtbl.find_opt seen i with
                    | Some key -> key
                    | None -> Printf.sprintf "missing step %d" i)
              in
              Alcotest.(check (list string))
                "overlaid decisions identical to the uninterrupted run"
                (List.map decision_key ref_ds)
                overlay;
              (match Tenant.find router "k" with
              | Some tn -> (
                  match Tenant.engine tn with
                  | Some engine ->
                      Alcotest.(check string)
                        "post-recovery checkpoint identical"
                        (Ckpt.to_string ref_ckpt)
                        (Ckpt.to_string (Engine.checkpoint engine))
                  | None -> Alcotest.fail "engine released early")
              | None -> Alcotest.fail "tenant missing");
              Net.close cl)))

(* --- drain semantics ---------------------------------------------------- *)

let test_drain_rejects_new_opens () =
  with_tempdir (fun dir ->
      with_server ~dir (fun _router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"d" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4));
          Net.begin_drain server;
          (match
             Net.open_stream cl ~stream:2
               (open_cfg ~tenant:"e" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4)
           with
          | _ -> Alcotest.fail "open during drain not rejected"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "draining code" Proto.err_draining code
          | exception Net.Disconnected _ -> ());
          Alcotest.(check bool) "drain closed the serving tenant" true
            (match Tenant.find _router "d" with
            | Some tn -> (
                match Tenant.state tn with Tenant.Closed -> true | _ -> false)
            | None -> false)))

(* --- HTTP observability ------------------------------------------------- *)

(* Pull "metric{...tenant="id"...} value" out of an exposition body. *)
let prom_value body metric tenant =
  let needle = Printf.sprintf "%s{tenant=\"%s\"" metric tenant in
  let lines = String.split_on_char '\n' body in
  let rec find = function
    | [] -> None
    | line :: rest ->
        if
          String.length line > String.length needle
          && String.equal (String.sub line 0 (String.length needle)) needle
        then
          match String.rindex_opt line ' ' with
          | Some i ->
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        else find rest
  in
  find lines

let json_int body key =
  (* first occurrence of "key":<int> — enough for a single-tenant body *)
  let needle = Printf.sprintf "\"%s\":" key in
  let rec search from =
    match String.index_from_opt body from needle.[0] with
    | None -> None
    | Some i ->
        if
          i + String.length needle <= String.length body
          && String.equal (String.sub body i (String.length needle)) needle
        then
          let j = ref (i + String.length needle) in
          let start = !j in
          while
            !j < String.length body
            && (match body.[!j] with '0' .. '9' | '-' -> true | _ -> false)
          do
            incr j
          done;
          int_of_string_opt (String.sub body start (!j - start))
        else search (i + 1)
  in
  search 0

let body_of response =
  match Astring.String.cut ~sep:"\r\n\r\n" response with
  | Some (_, body) -> body
  | None -> Alcotest.fail "malformed HTTP response"

let test_http_observability () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:400 ~seed:41 in
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"m" ~alg:"onl-dynamic" ~seed:7 ~n ~ell));
          let ds = Net.request cl ~stream:1 trace ~pos:0 ~len:(Array.length trace) in
          let last = ds.(Array.length ds - 1) in
          let metrics =
            body_of (Http.handle ~router ~draining:false "GET /metrics HTTP/1.0\r\n\r\n")
          and tenants =
            body_of (Http.handle ~router ~draining:false "GET /tenants HTTP/1.0\r\n\r\n")
          in
          let check_prom name metric want =
            match prom_value metrics metric "m" with
            | Some v -> Alcotest.(check int) name want (int_of_float v)
            | None -> Alcotest.failf "%s: %s missing from /metrics" name metric
          in
          check_prom "/metrics requests" "rbgp_requests_total" 400;
          check_prom "/metrics comm" "rbgp_comm_cost_total" last.Engine.cum_comm;
          check_prom "/metrics mig" "rbgp_migration_cost_total"
            last.Engine.cum_mig;
          check_prom "/metrics max load" "rbgp_max_load" last.Engine.max_load;
          check_prom "/metrics position" "rbgp_tenant_position" 400;
          check_prom "/metrics up" "rbgp_tenant_up" 1;
          let check_json name key want =
            match json_int tenants key with
            | Some v -> Alcotest.(check int) name want v
            | None -> Alcotest.failf "%s: %s missing from /tenants" name key
          in
          check_json "/tenants requests agree" "requests" 400;
          check_json "/tenants comm agrees" "comm" last.Engine.cum_comm;
          check_json "/tenants mig agrees" "mig" last.Engine.cum_mig;
          check_json "/tenants position agrees" "pos" 400;
          (match Tenant.find router "m" with
          | Some tn -> (
              match Tenant.metrics_snapshot tn with
              | Some s ->
                  Alcotest.(check int) "snapshot agrees with both surfaces" 400
                    (Metrics.snapshot_requests s)
              | None -> Alcotest.fail "no metrics snapshot")
          | None -> Alcotest.fail "tenant missing");
          Alcotest.(check bool) "healthz serving" true
            (Astring.String.is_infix ~affix:"200 OK"
               (Http.handle ~router ~draining:false "GET /healthz HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "healthz draining" true
            (Astring.String.is_infix ~affix:"503"
               (Http.handle ~router ~draining:true "GET /healthz HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "unknown path 404" true
            (Astring.String.is_infix ~affix:"404"
               (Http.handle ~router ~draining:false "GET /nope HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "non-GET 405" true
            (Astring.String.is_infix ~affix:"405"
               (Http.handle ~router ~draining:false
                  "POST /metrics HTTP/1.0\r\n\r\n"));
          Net.close cl))

let test_prometheus_escaping () =
  let m = Metrics.create () in
  let body =
    Metrics.prometheus_exposition
      [ ([ ("tenant", "a\\b\"c\nd") ], Metrics.snapshot m) ]
  in
  Alcotest.(check bool) "label value escaped" true
    (Astring.String.is_infix ~affix:{|tenant="a\\b\"c\nd"|} body)

let () =
  Alcotest.run "net"
    [
      ( "dechunker",
        [
          Alcotest.test_case "split at every byte boundary" `Quick
            test_dechunker_every_boundary;
          Alcotest.test_case "byte-at-a-time feed" `Quick
            test_dechunker_byte_at_a_time;
          qcheck_dechunker_random_splits;
          Alcotest.test_case "unrepairable input raises" `Quick
            test_dechunker_rejects_garbage;
        ] );
      ( "codec",
        [
          qcheck_codec_oracle;
          qcheck_codec_hostile;
          Alcotest.test_case "varint classes and the empty batch" `Quick
            test_codec_edge_values;
          Alcotest.test_case "decision count bounded by the payload" `Quick
            test_decisions_count_bounded;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "two tenants over one socket == isolated runs"
            `Quick test_two_tenants_isolated;
          Alcotest.test_case "quiet path reaches the same state" `Quick
            test_quiet_path_identity;
          Alcotest.test_case "config mismatch and unknown stream errors"
            `Quick test_config_mismatch_and_unknown_stream;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "supervised kill + reconnect-resume bit-exact"
            `Quick test_kill_and_reconnect_resume;
          Alcotest.test_case "drain closes tenants and rejects opens" `Quick
            test_drain_rejects_new_opens;
        ] );
      ( "http",
        [
          Alcotest.test_case "/metrics, /tenants and snapshots agree" `Quick
            test_http_observability;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_escaping;
        ] );
    ]
