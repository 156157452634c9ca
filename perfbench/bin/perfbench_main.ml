(* The end-to-end serving benchmark.

     perfbench_main gen --workload W --seed S --trace 0|1 --dir D
     perfbench_main plan --workload W --seed S --trace 0|1 --dir D
     perfbench_main session --kind untraced|traced --out FILE
       --workload W --seed S --seconds N --dir D
     perfbench_main report --trace 0|1 --workload W --seed S --seconds N
       --dir D FILE...

   [plan] lists the sessions a run is made of, with their seeds; [gen]
   writes each session seed's RBGT traces under D.  [session] serves them once
   through the real networked tier — one client, one RBGN connection
   over a Unix socket, one request in flight, the server pumped on the
   client's thread — and marshals what it measured and served to FILE.
   [report] checks the sessions' outputs against pipe-mode twins and
   prints one JSON result line last.  Each step is its own process;
   perfbench/run.py drives them (see perfbench/README.md). *)

module Net = Rbgp_serve.Net
module Proto = Rbgp_serve.Proto
module Tenant = Rbgp_serve.Tenant
module Engine = Rbgp_serve.Engine
module Source = Rbgp_serve.Source
module Checkpoint = Rbgp_serve.Checkpoint
module Metrics = Rbgp_serve.Metrics
module Registry = Rbgp_serve.Registry
module Simulator = Rbgp_ring.Simulator
module Online = Rbgp_ring.Online
module Cost = Rbgp_ring.Cost
module W = Perfbench.Workload
module Span = Perfbench.Span
module Q = Perfbench.Quantile
module Stats = Rbgp_util.Stats

let now_ns = Span.monotonic_ns

(* Set-up samples per untraced session: the serving tier's own, then
   more on a side socket, spread over the timed phase.  [setup_s] is the
   median over all sessions. *)
let setup_reps = 100

(* [recovery_s] on workloads without kills: [probe_reps] probe tenants
   per untraced session, spread over its timed phase, each serving
   [probe_len] requests before it is killed and re-opened. *)
let probe_len = 16384
let probe_reps = 10

exception Check_failed of string

let check_fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Runs [f], turning what the tier answers with instead of a result —
   an error frame, a lost connection, a malformed frame — and a failed
   output check into [Error]. *)
let attempt f =
  match f () with
  | v -> Ok v
  | exception Net.Server_error (code, msg) -> Error (Printf.sprintf "error frame %d: %s" code msg)
  | exception Net.Disconnected msg -> Error ("disconnected: " ^ msg)
  | exception Proto.Protocol_error msg -> Error ("protocol error: " ^ msg)
  | exception Check_failed msg -> Error ("output check: " ^ msg)

(* ---- growable sample vector ----------------------------------------- *)

module Fvec = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0. in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

(* ---- trace cursors: Source reads with wrap-around ------------------- *)

(* A tenant's request stream is its trace file read through
   [Source.open_file]/[next_batch] exactly as [rbgp client] does,
   restarted at end of file, so a faster serving tier never runs out of
   input.  Trace lengths are multiples of every batch size, so no batch
   straddles the wrap. *)
type cursor = {
  path : string;
  cn : int;
  mutable src : Source.t;
  mutable at : int;  (** absolute position in the wrapped stream *)
}

let open_cursor ~n path = { path; cn = n; src = Source.open_file ~n path; at = 0 }

let reopen c =
  Source.close c.src;
  c.src <- Source.open_file ~n:c.cn c.path

let cursor_next c buf ~limit =
  let got =
    match Source.next_batch c.src buf ~limit with
    | 0 ->
        reopen c;
        Source.next_batch c.src buf ~limit
    | got -> got
  in
  if got = 0 then check_fail "trace %s is empty" c.path;
  c.at <- c.at + got;
  got

let cursor_seek c pos scratch =
  reopen c;
  c.at <- 0;
  while c.at < pos do
    ignore
      (cursor_next c scratch ~limit:(Stdlib.min (Array.length scratch) (pos - c.at)))
  done

let close_cursor c = Source.close c.src

(* ---- decision-stream oracle ----------------------------------------- *)

(* Everything a decision carries except the wall-clock latency. *)
let fold_decision h (d : Engine.decision) =
  let mix h x = (h * 1_000_003) lxor x in
  let h = mix h d.Engine.step in
  let h = mix h d.Engine.edge in
  let h = mix h d.Engine.comm in
  let h = mix h d.Engine.moved in
  let h = mix h d.Engine.cum_comm in
  let h = mix h d.Engine.cum_mig in
  mix h d.Engine.max_load

(* ---- files ----------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> check_fail "no VmHWM in /proc/self/status"
  in
  go ()

(* ---- the serving tier under test -------------------------------------- *)

(* One in-process server over its own router, and the one client. *)
type tier = {
  w : W.t;
  seed : int;
  router : Tenant.t;
  server : Net.server;
  client : Net.client;
  pumps : int ref;  (** [Net.step] rounds run from the client's pump *)
}

let pump_of server pumps () =
  incr pumps;
  ignore (Net.step server)

let start_tier w ~seed ~addr ~ckpt_dir =
  let router =
    match ckpt_dir with
    | Some dir ->
        Tenant.create ~checkpoint_dir:dir ~checkpoint_every:w.W.ckpt_every
          ~checkpoint_keep:W.ckpt_keep ()
    | None -> Tenant.create ()
  in
  let server = Net.server ~router addr in
  let pumps = ref 0 in
  let client = Net.connect ~pump:(pump_of server pumps) addr in
  for i = 0 to w.W.tenants - 1 do
    let pos = Net.open_stream client ~stream:(i + 1) (W.open_payload w ~seed i) in
    if pos <> 0 then check_fail "fresh tenant %d opened at %d" i pos
  done;
  { w; seed; router; server; client; pumps }

let stop_tier s =
  Net.close s.client;
  Net.shutdown s.server

(* One [setup_s] sample: bind, connect, hello and every open_stream
   (engine and solver construction), up to the first request. *)
let timed_setup w ~seed ~addr ~ckpt_dir =
  Option.iter fresh_dir ckpt_dir;
  let t0 = now_ns () in
  let s = start_tier w ~seed ~addr ~ckpt_dir in
  (s, float_of_int (now_ns () - t0) /. 1e9)

(* ---- the closed loop ------------------------------------------------- *)

type tenant_run = {
  idx : int;
  stream : int;
  cursor : cursor;
  mutable served : int;  (** position the server has acknowledged *)
  mutable cost_at_prefix : int option;  (** comm + mig at [lb_prefix] *)
  mutable hash : int;  (** decision-stream digest *)
  mutable kill : (int * int) option;  (** (killed at, resumed from) *)
}

type tracer = {
  sp : Span.t;
  source : int;
  rpc : int;
  recover : int;
}

type loop = {
  tenants : tenant_run array;
  wall_ns : int;
  rpcs : int;
  lat_ms : float array;
  recoveries_s : float array;
  scrapes_us : float array;
  error : string option;
}

let scrape router =
  let snaps =
    List.filter_map
      (fun tn ->
        Option.map
          (fun snap -> ([ ("tenant", Tenant.id tn) ], snap))
          (Tenant.metrics_snapshot tn))
      (Tenant.tenants router)
  in
  Metrics.prometheus_exposition snaps

let traced tracer id f =
  match tracer with Some tr -> Span.with_span tr.sp (id tr) f | None -> f ()

(* Serves [work] requests per tenant, round-robin, one RPC in flight.
   [between r] runs after round [r]; its time is left out of the timed
   phase. *)
let run_loop s ~dir ~work ~tracer ~between =
  let w = s.w in
  let tenants =
    Array.init w.W.tenants (fun i ->
        {
          idx = i;
          stream = i + 1;
          cursor = open_cursor ~n:w.W.n (W.trace_file ~dir i);
          served = 0;
          cost_at_prefix = None;
          hash = 0;
          kill = None;
        })
  in
  let buf = Array.make w.W.batch 0 in
  let scratch = Array.make 8192 0 in
  let lat = Fvec.create () and recoveries = Fvec.create ()
  and scrapes = Fvec.create () in
  let rpcs = ref 0 in
  let note_prefix t ~pos cost =
    if pos = w.W.lb_prefix then t.cost_at_prefix <- Some cost
  in
  let recover t =
    (* a supervised server's kill: the engine is discarded, the client
       re-opens over the wire and resends from the returned position *)
    let killed_at = t.served in
    (match Tenant.find s.router (W.tenant_id t.idx) with
    | Some tn -> Tenant.kill s.router tn "perfbench kill"
    | None -> check_fail "tenant %d missing" t.idx);
    let t0 = now_ns () in
    let pos =
      traced tracer
        (fun tr -> tr.recover)
        (fun () ->
          Net.open_stream s.client ~stream:t.stream (W.open_payload w ~seed:s.seed t.idx))
    in
    Fvec.push recoveries (float_of_int (now_ns () - t0) /. 1e9);
    if pos > killed_at then check_fail "tenant %d resumed past its kill" t.idx;
    t.kill <- Some (killed_at, pos);
    traced tracer (fun tr -> tr.source) (fun () -> cursor_seek t.cursor pos scratch);
    t.served <- pos
  in
  let one_rpc t =
    let got =
      traced tracer
        (fun tr -> tr.source)
        (fun () -> cursor_next t.cursor buf ~limit:w.W.batch)
    in
    (match tracer with Some tr -> Span.enter tr.sp tr.rpc | None -> ());
    let t0 = now_ns () in
    (match w.W.path with
    | W.Quiet ->
        let ack = Net.request_quiet s.client ~stream:t.stream buf ~pos:0 ~len:got in
        Fvec.push lat (float_of_int (now_ns () - t0) /. 1e6);
        if ack.Proto.pos <> t.served + got || ack.Proto.count <> got then
          check_fail "tenant %d: ack at %d after serving %d+%d" t.idx
            ack.Proto.pos t.served got;
        t.served <- ack.Proto.pos;
        note_prefix t ~pos:t.served (ack.Proto.cum_comm + ack.Proto.cum_mig)
    | W.Decisions ->
        let ds = Net.request s.client ~stream:t.stream buf ~pos:0 ~len:got in
        Fvec.push lat (float_of_int (now_ns () - t0) /. 1e6);
        if Array.length ds <> got then
          check_fail "tenant %d: %d decisions for %d requests" t.idx
            (Array.length ds) got;
        Array.iter (fun d -> t.hash <- fold_decision t.hash d) ds;
        t.served <- t.served + got;
        let last = ds.(got - 1) in
        note_prefix t ~pos:t.served (last.Engine.cum_comm + last.Engine.cum_mig));
    (match tracer with Some tr -> Span.leave tr.sp | None -> ());
    incr rpcs;
    (match w.W.kill_at with
    | Some k when t.kill = None && t.served >= k -> recover t
    | _ -> ());
    if w.W.scrape_every > 0 && !rpcs mod w.W.scrape_every = 0 then begin
      let t0 = now_ns () in
      let text = scrape s.router in
      Fvec.push scrapes (float_of_int (now_ns () - t0) /. 1e3);
      if String.length text = 0 then check_fail "empty metrics exposition"
    end
  in
  let t_start = now_ns () in
  let round = ref 0 and paused = ref 0 in
  let error =
    match
      attempt (fun () ->
          while Array.exists (fun t -> t.served < work) tenants do
            Array.iter (fun t -> if t.served < work then one_rpc t) tenants;
            let t0 = now_ns () in
            between !round;
            paused := !paused + (now_ns () - t0);
            incr round
          done)
    with
    | Ok () -> None
    | Error e -> Some e
  in
  let wall_ns = now_ns () - t_start - !paused in
  {
    tenants;
    wall_ns;
    rpcs = !rpcs;
    lat_ms = Fvec.to_array lat;
    recoveries_s = Fvec.to_array recoveries;
    scrapes_us = Fvec.to_array scrapes;
    error;
  }

let served_total l = Array.fold_left (fun acc t -> acc + t.served) 0 l.tenants

let resent_total l =
  Array.fold_left
    (fun acc t -> match t.kill with Some (k, r) -> acc + (k - r) | None -> acc)
    0 l.tenants

let final_checkpoint s t =
  match Tenant.find s.router (W.tenant_id t.idx) with
  | Some tn -> (
      match Tenant.engine tn with
      | Some e -> Checkpoint.to_string (Engine.checkpoint e)
      | None -> check_fail "tenant %d has no engine" t.idx)
  | None -> check_fail "tenant %d missing" t.idx

(* ---- pipe-mode twins ------------------------------------------------- *)

type twin = {
  ckpt : string;  (** final checkpoint bytes *)
  digest : int;  (** decision-stream digest (Decisions twins only) *)
  cost_at : int;  (** comm + mig at the requested position *)
}

(* A fresh engine configured exactly as tenant [i] is opened. *)
let twin_engine w ~seed i =
  let o = W.open_payload w ~seed i in
  Engine.create ~epsilon:o.Proto.epsilon ~alg:o.Proto.alg ~seed:o.Proto.seed (W.instance w)

(* The oracle: [Engine.ingest_batch_quiet] (or [ingest_batch] for the
   decision stream) over the same trace and seed, no socket, no router. *)
let pipe_twin w ~seed ~dir ~decisions ~upto ~cost_pos i =
  let e = twin_engine w ~seed i in
  let c = open_cursor ~n:w.W.n (W.trace_file ~dir i) in
  let buf = Array.make w.W.batch 0 in
  let digest = ref 0 and cost_at = ref (-1) in
  while c.at < upto do
    let got = cursor_next c buf ~limit:(Stdlib.min w.W.batch (upto - c.at)) in
    let edges = Array.sub buf 0 got in
    if decisions then
      Array.iter (fun d -> digest := fold_decision !digest d) (Engine.ingest_batch e edges)
    else Engine.ingest_batch_quiet e edges;
    if Engine.pos e = cost_pos then
      cost_at := Cost.total (Engine.result e).Simulator.cost
  done;
  close_cursor c;
  { ckpt = Checkpoint.to_string (Engine.checkpoint e); digest = !digest; cost_at = !cost_at }

let read_prefix w ~dir i len =
  let c = open_cursor ~n:w.W.n (W.trace_file ~dir i) in
  let a = Array.make len 0 in
  let buf = Array.make w.W.batch 0 in
  while c.at < len do
    let at = c.at in
    let got = cursor_next c buf ~limit:(Stdlib.min w.W.batch (len - at)) in
    Array.blit buf 0 a at got
  done;
  close_cursor c;
  a

(* A real recovery where the workload has no checkpoint directory: a
   fresh probe tenant (tenant 0's configuration, the first [probe_len]
   requests of its trace in [edges]) serves its requests, takes an
   in-memory snapshot over the wire ([Ckpt]), is killed, and is
   re-opened — resuming from the snapshot, by state restore or by prefix
   replay, as the algorithm allows.  Returns the re-open round trip. *)
let recovery_probe s edges r =
  let w = s.w in
  let stream = 1000 + r in
  let payload =
    { (W.open_payload w ~seed:s.seed 0) with Proto.tenant = Printf.sprintf "probe%d" r }
  in
  if Net.open_stream s.client ~stream payload <> 0 then check_fail "probe %d not fresh" r;
  let at = ref 0 in
  while !at < probe_len do
    let len = Stdlib.min w.W.batch (probe_len - !at) in
    ignore (Net.request_quiet s.client ~stream edges ~pos:!at ~len);
    at := !at + len
  done;
  if Net.checkpoint s.client ~stream <> probe_len then check_fail "probe %d snapshot" r;
  (match Tenant.find s.router payload.Proto.tenant with
  | Some tn -> Tenant.kill s.router tn "perfbench probe kill"
  | None -> check_fail "probe %d missing" r);
  let t0 = now_ns () in
  let pos = Net.open_stream s.client ~stream payload in
  let dt = float_of_int (now_ns () - t0) /. 1e9 in
  if pos <> probe_len then check_fail "probe %d resumed at %d" r pos;
  ignore (Net.close_stream s.client ~stream);
  dt

(* What a session leaves of each tenant for the oracle. *)
type tenant_out = {
  o_served : int;
  o_hash : int;
  o_cost_at_prefix : int option;
  o_ckpt : string;  (** final checkpoint bytes *)
}

(* Tenant [i]'s final checkpoint (after any kill and re-open) against its
   pipe twin; on the decision path also the decision stream.  Returns
   the tenant's cost at [cost_pos], from the twin, and the lower bound
   on its first [cost_pos] requests. *)
let oracle w ~seed ~dir ~cost_pos i (t : tenant_out) =
  let quiet = pipe_twin w ~seed ~dir ~decisions:false ~upto:t.o_served ~cost_pos i in
  if quiet.cost_at < 0 then check_fail "tenant %d served less than %d" i cost_pos;
  if not (String.equal quiet.ckpt t.o_ckpt) then
    check_fail "tenant %d: final checkpoint differs from its pipe twin" i;
  (match w.W.path with
  | W.Decisions ->
      let d = pipe_twin w ~seed ~dir ~decisions:true ~upto:t.o_served ~cost_pos i in
      if d.digest <> t.o_hash then
        check_fail "tenant %d: decision stream differs from its pipe twin" i;
      if not (String.equal d.ckpt t.o_ckpt) then
        check_fail "tenant %d: decision twin's checkpoint differs" i
  | W.Quiet -> ());
  (match t.o_cost_at_prefix with
  | Some c when c <> quiet.cost_at ->
      check_fail "tenant %d: served cost %d at %d, twin says %d" i c cost_pos quiet.cost_at
  | _ -> ());
  ( quiet.cost_at,
    Perfbench.Lb_ratio.lower_bound (W.instance w) [ read_prefix w ~dir i cost_pos ] )

(* ---- result output --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else check_fail "metric value %f is not finite" f

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

let print_context fields =
  Printf.printf "{\"context\":{%s}}\n%!"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields))

let str s = Printf.sprintf "%S" s

(* ---- traced run: the per-layer ledger -------------------------------- *)

(* Client-side spans are recorded around the closed loop's own calls;
   server-side layers are replayed on twins driven through each layer's
   public functions, over exactly the request sequence the traced loop
   served (including any kill, resume and resend). *)

(* One layer's replay of a tenant's traced call sequence: [serve_batch]
   serves one batch ([resend] marks batches the client sent again after
   the kill), [on_kill resume_pos] runs the layer's own recovery. *)
type layer_twin = {
  serve_batch : resend:bool -> int array -> unit;
  on_kill : int -> unit;
}

(* Drives every twin of one tenant in lockstep, batch by batch, over the
   sequence the loop served ([kill] is what it recorded), so that cache
   and garbage-collector state are shared alike between the layers whose
   span totals are subtracted from each other. *)
let replay w ~dir i ~kill ~final twins =
  let c = open_cursor ~n:w.W.n (W.trace_file ~dir i) in
  let buf = Array.make w.W.batch 0 in
  let resent_until = ref 0 in
  let serve_range upto =
    while c.at < upto do
      let got = cursor_next c buf ~limit:(Stdlib.min w.W.batch (upto - c.at)) in
      let edges = Array.sub buf 0 got in
      let resend = c.at <= !resent_until in
      List.iter (fun tw -> tw.serve_batch ~resend edges) twins
    done
  in
  (match kill with
  | Some (killed_at, resumed) ->
      serve_range killed_at;
      List.iter (fun tw -> tw.on_kill resumed) twins;
      cursor_seek c resumed (Array.make 8192 0);
      resent_until := killed_at
  | None -> ());
  serve_range final;
  close_cursor c

let tenant_twin sp w ~seed ~ckpt_dir (t : tenant_run) =
  let router =
    match ckpt_dir with
    | Some d ->
        Tenant.create ~checkpoint_dir:d ~checkpoint_every:w.W.ckpt_every
          ~checkpoint_keep:W.ckpt_keep ()
    | None -> Tenant.create ()
  in
  let payload = W.open_payload w ~seed t.idx in
  let tn =
    match Tenant.open_tenant router payload with
    | Ok (tn, 0) -> tn
    | Ok (_, pos) -> check_fail "tenant twin %d opened at %d" t.idx pos
    | Error (_, msg) -> check_fail "tenant twin %d: %s" t.idx msg
  in
  let serve_id = Span.register sp "tenant.serve"
  and reopen_id = Span.register sp "tenant.reopen" in
  let serve_batch ~resend:_ edges =
    Span.with_span sp serve_id (fun () ->
        match w.W.path with
        | W.Quiet -> Tenant.serve_quiet router tn edges
        | W.Decisions -> ignore (Tenant.serve router tn edges))
  in
  let on_kill resumed =
    Tenant.kill router tn "twin kill";
    match Span.with_span sp reopen_id (fun () -> Tenant.open_tenant router payload) with
    | Ok (_, pos) when pos = resumed -> ()
    | Ok (_, pos) -> check_fail "tenant twin %d resumed at %d, not %d" t.idx pos resumed
    | Error (_, msg) -> check_fail "tenant twin %d: %s" t.idx msg
  in
  { serve_batch; on_kill }

type engine_stats = {
  mutable ckpts : int;
  mutable ckpt_bytes : int;
  mutable wire_bytes : int;
  mutable resumes : int;
  mutable replayed : int;
  mutable digest : int;
}

(* The engine twin also carries the protocol layer (each batch's request
   and reply frames encoded and decoded as client and server do) and
   the checkpoint/resume layer (the router's rolling cadence and its
   kill recovery, called directly). *)
let engine_twin sp st w ~seed ~ckpt_dir (t : tenant_run) =
  let sid = Span.register sp in
  let enc = sid "proto.encode" and dec = sid "proto.decode"
  and ingest = sid "engine.ingest" and snap = sid "ckpt.snapshot"
  and ser = sid "ckpt.serialize" and wr = sid "ckpt.write"
  and rread = sid "resume.read" and rrest = sid "resume.restore" in
  let span id f = Span.with_span sp id f in
  let e = ref (twin_engine w ~seed t.idx) in
  let ckpt_path =
    Option.map (fun d -> Filename.concat d (W.tenant_id t.idx ^ ".ckpt")) ckpt_dir
  in
  let dechunker = Proto.dechunker () in
  let roundtrip op payload_of read =
    let frame =
      span enc (fun () ->
          let b = Buffer.create 256 in
          payload_of b;
          Proto.frame_to_string ~stream:t.stream op (Buffer.contents b))
    in
    span dec (fun () ->
        Proto.feed_string dechunker frame;
        match Proto.next dechunker with
        | Some f -> read f.Proto.payload
        | None -> check_fail "torn %s frame" (Proto.op_name op));
    st.wire_bytes <- st.wire_bytes + String.length frame
  in
  let serve_batch ~resend:_ edges =
    let len = Array.length edges in
    roundtrip Proto.Req
      (fun b -> Proto.add_req b edges ~pos:0 ~len)
      (fun p -> ignore (Proto.read_req p));
    let before = Engine.pos !e in
    (match w.W.path with
    | W.Quiet ->
        span ingest (fun () -> Engine.ingest_batch_quiet !e edges);
        let r = Engine.result !e in
        let ack =
          {
            Proto.count = len;
            pos = Engine.pos !e;
            cum_comm = r.Simulator.cost.Cost.comm;
            cum_mig = r.Simulator.cost.Cost.mig;
            ack_max_load = r.Simulator.max_load;
            violations = r.Simulator.capacity_violations;
          }
        in
        roundtrip Proto.Ack (fun b -> Proto.add_ack b ack) (fun p -> ignore (Proto.read_ack p))
    | W.Decisions ->
        let ds = span ingest (fun () -> Engine.ingest_batch !e edges) in
        Array.iter (fun d -> st.digest <- fold_decision st.digest d) ds;
        roundtrip Proto.Decisions
          (fun b -> Proto.add_decisions b ~start_pos:before ds)
          (fun p -> ignore (Proto.read_decisions p)));
    (* Tenant's rolling rule: a checkpoint whenever the batch crosses a
       multiple of the cadence *)
    let every = w.W.ckpt_every in
    match ckpt_path with
    | Some path when every > 0 && Engine.pos !e / every > before / every ->
        let ck = span snap (fun () -> Engine.checkpoint !e) in
        let bytes = span ser (fun () -> Checkpoint.to_string ck) in
        span wr (fun () -> Checkpoint.write_rolling ~path ~keep:W.ckpt_keep ck);
        st.ckpts <- st.ckpts + 1;
        st.ckpt_bytes <- st.ckpt_bytes + String.length bytes
    | _ -> ()
  in
  let on_kill resumed =
    match ckpt_path with
    | None -> check_fail "kill without a checkpoint directory"
    | Some path ->
        let r = span rread (fun () -> Checkpoint.read_latest ~path ()) in
        if r.Checkpoint.ckpt.Checkpoint.pos <> resumed then
          check_fail "engine twin %d: checkpoint at %d, server resumed at %d" t.idx
            r.Checkpoint.ckpt.Checkpoint.pos resumed;
        e := span rrest (fun () -> Engine.resume r.Checkpoint.ckpt);
        st.resumes <- st.resumes + 1;
        st.replayed <- st.replayed + resumed
  in
  st.digest <- 0;
  ({ serve_batch; on_kill }, fun () -> Checkpoint.to_string (Engine.checkpoint !e))

(* The simulator twin: the registered algorithm built directly, its
   [serve]/[batch] hooks wrapped in "solve" spans, and driven through
   [Simulator.stepper]/[prepare] — the accounting layer — in "sim"
   spans.  It serves each request of the sequence once: resent batches
   are skipped and the algorithm is never rebuilt. *)
let sim_twin sp w ~seed (t : tenant_run) =
  let inst = W.instance w in
  let o = W.open_payload w ~seed t.idx in
  let online =
    (Registry.find o.Proto.alg).Registry.build ~epsilon:o.Proto.epsilon ~seed:o.Proto.seed
      inst
  in
  let solve = Span.register sp "solve" and sim = Span.register sp "sim" in
  let timed f x =
    Span.enter sp solve;
    f x;
    Span.leave sp
  in
  let wrapped =
    {
      online with
      Online.serve = timed online.Online.serve;
      batch =
        Option.map
          (fun b edges ->
            Span.enter sp solve;
            let apply = b edges in
            Span.leave sp;
            timed apply)
          online.Online.batch;
    }
  in
  let stepper = Simulator.stepper inst wrapped in
  let serve_batch ~resend edges =
    if not resend then
      Span.with_span sp sim (fun () ->
          let play = Simulator.prepare stepper edges in
          for j = 0 to Array.length edges - 1 do
            ignore (play j)
          done)
  in
  ( { serve_batch; on_kill = ignore },
    fun () -> (Simulator.stepper_result stepper).Simulator.cost )


(* Server-side layers of a traced session, replayed on the twins over
   the loop's request sequence; returns the per-layer metrics that need
   no untraced baseline and the sum of the layer self times (ns). *)
let decompose w ~seed ~dir ~ckpt_dir tr (l : loop) ckpts pumps =
  let sp = tr.sp in
  let st =
    { ckpts = 0; ckpt_bytes = 0; wire_bytes = 0; resumes = 0; replayed = 0; digest = 0 }
  in
  let tw_tenant = ckpt_dir "twin-tenant" and tw_engine = ckpt_dir "twin-engine" in
  let inner, outer = Span.calibrate sp in
  let comm = ref 0 and mig = ref 0 in
  Array.iter
    (fun t ->
      let tenant = tenant_twin sp w ~seed ~ckpt_dir:tw_tenant t in
      let engine, engine_ckpt = engine_twin sp st w ~seed ~ckpt_dir:tw_engine t in
      let sim, sim_cost = sim_twin sp w ~seed t in
      replay w ~dir t.idx ~kill:t.kill ~final:t.served [ tenant; engine; sim ];
      if not (String.equal (engine_ckpt ()) ckpts.(t.idx)) then
        check_fail "tenant %d: final checkpoint differs from its engine twin" t.idx;
      (match w.W.path with
      | W.Decisions when st.digest <> t.hash ->
          check_fail "tenant %d: decision stream differs from its twin" t.idx
      | _ -> ());
      let c = sim_cost () in
      comm := !comm + c.Cost.comm;
      mig := !mig + c.Cost.mig)
    l.tenants;
  let reqs = float_of_int (served_total l) in
  let ingested = reqs +. float_of_int (resent_total l) in
  let tot name = float_of_int (Span.total_ns sp name) in
  let per_req x = x /. reqs in
  let solves = float_of_int (Span.count sp "solve") in
  (* the simulator twin served each request once; the loop also re-served
     the resent ones, so scale the simulator layers to the ingested count *)
  let scale = ingested /. reqs in
  let solve = (tot "solve" -. (solves *. inner)) *. scale in
  let account =
    (float_of_int (Span.self_ns sp "sim") -. (solves *. (outer -. inner))) *. scale
  in
  let sim = solve +. account in
  let engine = tot "engine.ingest" in
  let ckpt_total = tot "ckpt.snapshot" +. tot "ckpt.write" in
  let resume_total = tot "resume.read" +. tot "resume.restore" in
  let tenant = tot "tenant.serve" in
  let proto_enc = tot "proto.encode" and proto_dec = tot "proto.decode" in
  let net_self =
    tot "rpc" +. tot "recover" -. proto_enc -. proto_dec -. tenant -. tot "tenant.reopen"
  in
  let scrape_total = Array.fold_left ( +. ) 0. l.scrapes_us *. 1e3 in
  let self_total =
    List.fold_left ( +. ) 0.
      [
        tot "source"; proto_enc; proto_dec; net_self; tenant -. engine -. ckpt_total;
        engine -. sim; solve; account; ckpt_total; resume_total; scrape_total;
      ]
  in
  let per_ckpt x = if st.ckpts = 0 then 0. else x /. float_of_int st.ckpts in
  let per_resume x = if st.resumes = 0 then 0. else x /. float_of_int st.resumes in
  ( [
      m "source.ns_per_req" (per_req (tot "source")) "ns";
      m "proto.encode_ns_per_req" (per_req proto_enc) "ns";
      m "proto.decode_ns_per_req" (per_req proto_dec) "ns";
      m "proto.bytes_per_req" (float_of_int st.wire_bytes /. ingested) "B";
      m "net.self_ns_per_req" (per_req net_self) "ns";
      m "net.steps_per_rpc" (float_of_int pumps /. float_of_int (Stdlib.max 1 l.rpcs)) "count";
      m "net.rpcs" (float_of_int l.rpcs) "count";
      m "tenant.serve_ns_per_req" (per_req tenant) "ns";
      m "tenant.self_ns_per_req" (per_req (tenant -. engine -. ckpt_total)) "ns";
      m "engine.ingest_ns_per_req" (per_req engine) "ns";
      m "engine.self_ns_per_req" (per_req (engine -. sim)) "ns";
      m "solve.ns_per_req" (per_req solve) "ns";
      m "account.ns_per_req" (per_req account) "ns";
      m "alg.comm_per_kreq" (1000. *. float_of_int !comm /. reqs) "count";
      m "alg.mig_per_kreq" (1000. *. float_of_int !mig /. reqs) "count";
      m "ckpt.encode_ms" (per_ckpt (tot "ckpt.snapshot" +. tot "ckpt.serialize") /. 1e6) "ms";
      m "ckpt.persist_ms" (per_ckpt (tot "ckpt.write" -. tot "ckpt.serialize") /. 1e6) "ms";
      m "ckpt.bytes" (per_ckpt (float_of_int st.ckpt_bytes)) "B";
      m "ckpt.count" (float_of_int st.ckpts) "count";
      m "resume.read_ms" (per_resume (tot "resume.read") /. 1e6) "ms";
      m "resume.restore_ms" (per_resume (tot "resume.restore") /. 1e6) "ms";
      m "resume.replayed_reqs" (float_of_int st.replayed) "count";
      m "resume.resent_reqs" (float_of_int (resent_total l)) "count";
      m "metrics.scrape_us"
        (if Array.length l.scrapes_us = 0 then 0. else Stats.median l.scrapes_us)
        "us";
    ],
    self_total )

(* ---- one session per process ------------------------------------------ *)

(* Everything a session hands to the report, marshalled to a file. *)
type session_out = {
  session_seed : int;
  outs : tenant_out array;
  timed_ns : int;
  rpc_count : int;
  resent : int;
  latencies_ms : float array;
  recovery_samples_s : float array;
  setup_samples_s : float array;
  peak_mb : float;
  minor_words : float;
  major_collections : int;
  failure : string option;
  layers : (metric list * float) option;  (** traced: layer metrics, self-time sum *)
}

let served_of o = Array.fold_left (fun acc t -> acc + t.o_served) 0 o.outs

(* One fresh process serves the workload once: the set-up, the closed
   loop with (untraced) more set-ups and the recovery probes between its
   rounds, then (traced) the layer twins.  Each session is its own process so that no session
   inherits another's heap, and peak RSS is one session's. *)
let session w ~seed ~dir ~work ~traced =
  let addr = Net.Unix_sock (Filename.concat dir "s.sock") in
  let tdir = W.trace_dir ~dir ~seed in
  let ckpt_dir name =
    if w.W.ckpt_every > 0 then begin
      let d = Filename.concat dir name in
      fresh_dir d;
      Some d
    end
    else None
  in
  let s, first_setup = timed_setup w ~seed ~addr ~ckpt_dir:(ckpt_dir "ckpt") in
  let tracer =
    if traced then begin
      let sp = Span.create () in
      Some
        {
          sp;
          source = Span.register sp "source";
          rpc = Span.register sp "rpc";
          recover = Span.register sp "recover";
        }
    end
    else None
  in
  (* Untraced sessions take their other set-up samples, and on workloads
     without kills their recovery probes, at evenly spaced rounds: the
     host's speed moves between levels that last seconds, and samples
     taken back to back would all see one level.  What they allocate and
     collect is taken out of the session's GC counts. *)
  let setups = Fvec.create () and probes = Fvec.create () in
  Fvec.push setups first_setup;
  let side_minor = ref 0. and side_major = ref 0 in
  let off_loop f =
    let g0 = Gc.quick_stat () in
    f ();
    let g1 = Gc.quick_stat () in
    side_minor := !side_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    side_major := !side_major + (g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let every reps = Stdlib.max 1 (work / w.W.batch / (reps + 1)) in
  let between =
    if traced then ignore
    else begin
      let side_addr = Net.Unix_sock (Filename.concat dir "setup.sock") in
      let side_ckpt = ckpt_dir "setup-ckpt" in
      let setup_every = every (setup_reps - 1) in
      let probe =
        if w.W.kill_at <> None then None
        else Some (read_prefix w ~dir:tdir 0 probe_len, every probe_reps)
      in
      fun r ->
        if (r + 1) mod setup_every = 0 && setups.Fvec.len < setup_reps then
          off_loop (fun () ->
              let side, dt = timed_setup w ~seed ~addr:side_addr ~ckpt_dir:side_ckpt in
              stop_tier side;
              Fvec.push setups dt);
        match probe with
        | Some (edges, probe_every)
          when (r + 1) mod probe_every = 0 && probes.Fvec.len < probe_reps ->
            off_loop (fun () -> Fvec.push probes (recovery_probe s edges probes.Fvec.len))
        | _ -> ()
    end
  in
  let gc0 = Gc.quick_stat () in
  let l = run_loop s ~dir:tdir ~work ~tracer ~between in
  let gc1 = Gc.quick_stat () in
  let peak_mb = peak_rss_mb () in
  let collected =
    match l.error with
    | Some e -> Error e
    | None ->
        attempt (fun () ->
            let ckpts = Array.map (final_checkpoint s) l.tenants in
            (ckpts, Array.append l.recoveries_s (Fvec.to_array probes)))
  in
  let pumps = !(s.pumps) in
  stop_tier s;
  let failure, ckpts, recoveries, layers =
    match (collected, tracer) with
    | Error e, _ -> (Some e, Array.make w.W.tenants "", [||], None)
    | Ok (ckpts, recoveries), None -> (None, ckpts, recoveries, None)
    | Ok (ckpts, recoveries), Some tr -> (
        match decompose w ~seed ~dir:tdir ~ckpt_dir tr l ckpts pumps with
        | layers -> (None, ckpts, recoveries, Some layers)
        | exception Check_failed e -> (Some ("output check: " ^ e), ckpts, recoveries, None))
  in
  {
    session_seed = seed;
    outs =
      Array.map
        (fun t ->
          {
            o_served = t.served;
            o_hash = t.hash;
            o_cost_at_prefix = t.cost_at_prefix;
            o_ckpt = ckpts.(t.idx);
          })
        l.tenants;
    timed_ns = l.wall_ns;
    rpc_count = l.rpcs;
    resent = resent_total l;
    latencies_ms = l.lat_ms;
    recovery_samples_s = recoveries;
    setup_samples_s = Fvec.to_array setups;
    peak_mb;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words -. !side_minor;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections - !side_major;
    failure;
    layers;
  }

(* ---- reports ------------------------------------------------------------ *)

let common_context w ~seed ~dir (sessions : session_out list) =
  [
    ("workload", str w.W.name);
    ("seed", string_of_int seed);
    ("ocaml", str Sys.ocaml_version);
    ("tenants", string_of_int w.W.tenants);
    ( "session_seeds",
      Printf.sprintf "[%s]"
        (String.concat "," (List.map (fun o -> string_of_int o.session_seed) sessions)) );
    ( "session_rps",
      Printf.sprintf "[%s]"
        (String.concat ","
           (List.map
              (fun o -> json_float (float_of_int (served_of o) /. (float_of_int o.timed_ns /. 1e9)))
              sessions)) );
    ( "ckpt_dir",
      if w.W.ckpt_every > 0 then str (Filename.concat dir "ckpt") else "null" );
  ]

let first_failure sessions = List.find_map (fun o -> o.failure) sessions

(* The output oracle over a run's sessions, traced or not.  Sessions
   sharing a seed had identical inputs and must show identical outputs,
   so one set of pipe twins per seed checks them all.  Returns the
   tenants' total cost and lower bound on their [lb_prefix] prefixes. *)
let check_outputs w ~dir (sessions : session_out list) =
  let seeds = List.sort_uniq compare (List.map (fun o -> o.session_seed) sessions) in
  let jobs =
    List.concat_map
      (fun sseed ->
        let group = List.filter (fun o -> o.session_seed = sseed) sessions in
        let first = List.hd group in
        List.iter
          (fun o -> if o.outs <> first.outs then check_fail "sessions' outputs differ")
          group;
        Array.to_list (Array.mapi (fun i t -> (sseed, i, t)) first.outs))
      seeds
  in
  (* the twins are off the clock and independent: two domains *)
  let checked =
    Rbgp_util.Pool.map ~domains:2
      (fun (sseed, i, t) ->
        oracle w ~seed:sseed ~dir:(W.trace_dir ~dir ~seed:sseed) ~cost_pos:w.W.lb_prefix i t)
      (Array.of_list jobs)
  in
  ( Array.fold_left (fun acc (c, _) -> acc + c) 0 checked,
    Array.fold_left (fun acc (_, b) -> acc + b) 0 checked )

(* The end-to-end result over the run's sessions. *)
let report_untraced w ~seed ~dir (sessions : session_out list) =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 sessions in
  let rpcs = sum (fun o -> o.rpc_count) and served = sum served_of in
  let timed_ns = sum (fun o -> o.timed_ns) in
  let outcome =
    match (first_failure sessions, sessions) with
    | Some e, _ -> Error e
    | None, [] -> Error "no session ran"
    | None, _ -> (
        match
          let cost, lb = check_outputs w ~dir sessions in
          let cat f = Array.concat (List.map f sessions) in
          let recoveries = cat (fun o -> o.recovery_samples_s) in
          if Array.length recoveries = 0 then check_fail "no recovery samples";
          ( Stats.median recoveries,
            Perfbench.Lb_ratio.ratio ~cost ~lb,
            Stats.median (cat (fun o -> o.setup_samples_s)),
            Stats.median (Array.of_list (List.map (fun o -> o.peak_mb) sessions)) )
        with
        | r -> Ok r
        | exception Check_failed e -> Error ("output check: " ^ e))
  in
  let lat = Array.concat (List.map (fun o -> o.latencies_ms) sessions) in
  Array.sort Float.compare lat;
  let n = Array.length lat in
  let failed = match outcome with Ok _ -> 0 | Error _ -> rpcs in
  print_context
    (common_context w ~seed ~dir sessions
    @ [
        ("requests", string_of_int served);
        ("resent", string_of_int (sum (fun o -> o.resent)));
        ("rpc_samples", string_of_int n);
        ( "tail_percentile",
          match Q.highest_supported ~n with Some q -> json_float q | None -> "null" );
        ("timed_s", json_float (float_of_int timed_ns /. 1e9));
        ("failed_frac", json_float (float_of_int failed /. float_of_int (Stdlib.max 1 rpcs)));
        ("error", match outcome with Error e -> str e | Ok _ -> "null");
      ]);
  match outcome with
  | Error _ ->
      print_result ~correct:false ~attempted:(Stdlib.max 1 rpcs) ~failed [];
      false
  | Ok (recovery_s, ratio, setup_s, peak_mb) ->
      print_result ~correct:true ~attempted:rpcs ~failed:0
        [
          m "throughput_rps" (float_of_int served /. (float_of_int timed_ns /. 1e9)) "1/s";
          m "rpc_p50_ms" (Q.nearest_rank lat 0.5) "ms";
          m "rpc_p99_ms" (Q.nearest_rank lat 0.99) "ms";
          m "recovery_s" recovery_s "s";
          m "ratio_to_lb" ratio "ratio";
          m "setup_s" setup_s "s";
          m "peak_rss_mb" peak_mb "MB";
        ];
      true

(* The ledger: untraced sessions U1 and U2 around the traced session T.
   Averaging U1 and U2 cancels drift across the run.  All three share
   the run seed, so the oracle checks U1, T and U2 against one set of
   pipe twins. *)
let report_traced w ~seed ~dir (sessions : session_out list) =
  let attempted = Stdlib.max 1 (List.fold_left (fun acc o -> acc + o.rpc_count) 0 sessions) in
  let outcome =
    match (first_failure sessions, sessions) with
    | Some e, _ -> Error e
    | None, [ u1; ({ layers = Some layers; _ } as t); u2 ] -> (
        match ignore (check_outputs w ~dir sessions) with
        | () -> Ok (u1, t, u2, layers)
        | exception Check_failed e -> Error ("output check: " ^ e))
    | None, _ -> Error "traced report needs sessions U1, T, U2"
  in
  print_context
    (common_context w ~seed ~dir sessions
    @ [
        ( "traced_requests",
          match outcome with Ok (_, t, _, _) -> string_of_int (served_of t) | Error _ -> "null" );
        ("error", match outcome with Error e -> str e | Ok _ -> "null");
      ]);
  match outcome with
  | Error _ ->
      print_result ~correct:false ~attempted ~failed:attempted [];
      false
  | Ok (u1, t, u2, (layer_metrics, self_total)) ->
      let ureqs = float_of_int (served_of u1 + served_of u2) in
      let untraced_ns = float_of_int (u1.timed_ns + u2.timed_ns) /. ureqs in
      let traced_ns = float_of_int t.timed_ns /. float_of_int (served_of t) in
      print_result ~correct:true ~attempted ~failed:0
        (layer_metrics
        @ [
            m "gc.minor_words_per_req" ((u1.minor_words +. u2.minor_words) /. ureqs) "words";
            m "gc.major_collections"
              (float_of_int (u1.major_collections + u2.major_collections) /. 2.)
              "count";
            m "trace.coverage"
              (self_total /. float_of_int (served_of t) /. untraced_ns)
              "ratio";
            m "trace.overhead_frac" ((traced_ns -. untraced_ns) /. traced_ns) "ratio";
          ]);
      true

(* ---- entry point ----------------------------------------------------- *)

(* The sessions a run is made of, in order: kind and session seed. *)
let plan w ~seed ~trace =
  if trace = 0 then List.map (fun s -> ("untraced", s)) (W.session_seeds w ~seed)
  else [ ("untraced", seed); ("traced", seed); ("untraced", seed) ]

(* Every session seed's traces, each in its own directory. *)
let gen w ~seed ~trace ~dir =
  List.iter
    (fun sseed ->
      let tdir = W.trace_dir ~dir ~seed:sseed in
      fresh_dir tdir;
      for i = 0 to w.W.tenants - 1 do
        Rbgp_workloads.Trace_codec.write ~path:(W.trace_file ~dir:tdir i) ~n:w.W.n
          ~ell:w.W.ell ~seed:(Perfbench.Seeds.trace_seed ~seed:sseed i)
          (W.trace w ~seed:sseed i)
      done)
    (List.sort_uniq compare (List.map snd (plan w ~seed ~trace)))

let read_session path : session_out =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)

let () =
  let cmd = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and dir = ref "" and kind = ref "untraced" and out = ref ""
  and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S scales each workload's request count");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger instead of end-to-end");
      ("--dir", Arg.Set_string dir, "DIR traces, socket and checkpoints");
      ("--kind", Arg.Set_string kind, "untraced|traced (session)");
      ("--out", Arg.Set_string out, "FILE session summary (session)");
    ]
  in
  let usage =
    "perfbench_main (gen | plan | session --kind K --out FILE | report FILE...) [options]"
  in
  Arg.parse spec
    (fun a -> if String.length !cmd = 0 then cmd := a else files := !files @ [ a ])
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w = match W.find !workload with Some w -> w | None -> fail ("unknown workload " ^ !workload) in
  if String.length !dir = 0 then fail "--dir is required";
  (* one thread: the server is pumped on the client's thread, and the
     solver's batch path must not fan out to pool domains *)
  Rbgp_util.Pool.set_domains (Some 1);
  let work = W.requests_per_tenant w ~seconds:!seconds in
  match !cmd with
  | "gen" -> gen w ~seed:!seed ~trace:!trace ~dir:!dir
  | "plan" ->
      List.iter
        (fun (kind, sseed) -> Printf.printf "%s %d\n" kind sseed)
        (plan w ~seed:!seed ~trace:!trace)
  | "session" ->
      let traced =
        match !kind with "untraced" -> false | "traced" -> true | k -> fail ("unknown kind " ^ k)
      in
      if String.length !out = 0 then fail "--out is required";
      let o = session w ~seed:!seed ~dir:!dir ~work ~traced in
      let oc = open_out_bin !out in
      Marshal.to_channel oc o [];
      close_out oc
  | "report" ->
      let sessions = List.map read_session !files in
      let ok =
        if !trace = 0 then report_untraced w ~seed:!seed ~dir:!dir sessions
        else report_traced w ~seed:!seed ~dir:!dir sessions
      in
      exit (if ok then 0 else 1)
  | c -> fail ("unknown command " ^ c)
