let nbuckets = 63

type t = {
  buckets : int array;
  mutable requests : int;
  mutable comm : int;
  mutable mig : int;
  mutable max_load : int;
  mutable lat_sum_ns : int;
  mutable t0 : float;
  mutable degraded : int;
  mutable recovered : int;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    requests = 0;
    comm = 0;
    mig = 0;
    max_load = 0;
    lat_sum_ns = 0;
    t0 = Unix.gettimeofday ();
    degraded = 0;
    recovered = 0;
  }

let reset t =
  Array.fill t.buckets 0 nbuckets 0;
  t.requests <- 0;
  t.comm <- 0;
  t.mig <- 0;
  t.max_load <- 0;
  t.lat_sum_ns <- 0;
  t.t0 <- Unix.gettimeofday ();
  t.degraded <- 0;
  t.recovered <- 0

(* top-level so [observe] (per-request, r11-patrolled) allocates no
   closure for the loop *)
let rec bucket_loop i v = if v <= 1 then i else bucket_loop (i + 1) (v lsr 1)
let bucket_of ns = if ns <= 1 then 0 else min (nbuckets - 1) (bucket_loop 0 ns)

let observe t ~latency_ns ~comm ~moved ~max_load =
  let latency_ns = Int.max 0 latency_ns in
  let b = bucket_of latency_ns in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.requests <- t.requests + 1;
  t.comm <- t.comm + comm;
  t.mig <- t.mig + moved;
  if max_load > t.max_load then t.max_load <- max_load;
  t.lat_sum_ns <- t.lat_sum_ns + latency_ns

(* Aggregate record for the engine's quiet batch path: [count] requests
   that together took [latency_ns] and charged [comm]/[mig].  Per-request
   timestamps were never taken — that is the point of the quiet path — so
   the histogram gets [count] entries at the batch's mean latency. *)
let observe_batch t ~count ~latency_ns ~comm ~mig ~max_load =
  if count > 0 then begin
    let latency_ns = Int.max 0 latency_ns in
    let b = bucket_of (latency_ns / count) in
    t.buckets.(b) <- t.buckets.(b) + count;
    t.requests <- t.requests + count;
    t.comm <- t.comm + comm;
    t.mig <- t.mig + mig;
    if max_load > t.max_load then t.max_load <- max_load;
    t.lat_sum_ns <- t.lat_sum_ns + latency_ns
  end

(* Solver-budget degradation accounting: [note_degraded] counts requests
   served on the frozen never-move path, [note_recovered] counts
   re-promotions back to the real solver after a quiet interval. *)
let note_degraded ?(count = 1) t = t.degraded <- t.degraded + count
let note_recovered t = t.recovered <- t.recovered + 1

let requests t = t.requests
let comm t = t.comm
let mig t = t.mig
let max_load t = t.max_load
let degraded t = t.degraded
let recovered t = t.recovered

let elapsed_s t = Unix.gettimeofday () -. t.t0

let rps t =
  if t.requests = 0 then 0.0
  else
    let dt = elapsed_s t in
    if dt <= 0.0 then 0.0 else float_of_int t.requests /. dt

(* All rendered surfaces (JSONL record, SIGUSR1 summary, Prometheus
   exposition) are produced from one frozen [snapshot] so the numbers on
   the three surfaces can never disagree about a moving counter. *)
type snapshot = {
  s_requests : int;
  s_comm : int;
  s_mig : int;
  s_max_load : int;
  s_degraded : int;
  s_recovered : int;
  s_lat_sum_ns : float;
  s_elapsed_s : float;
  s_buckets : int array;
}

let snapshot t =
  {
    s_requests = t.requests;
    s_comm = t.comm;
    s_mig = t.mig;
    s_max_load = t.max_load;
    s_degraded = t.degraded;
    s_recovered = t.recovered;
    s_lat_sum_ns = float_of_int t.lat_sum_ns;
    s_elapsed_s = elapsed_s t;
    s_buckets = Array.copy t.buckets;
  }

let snapshot_requests s = s.s_requests

let snapshot_rps s =
  if s.s_requests = 0 || s.s_elapsed_s <= 0.0 then 0.0
  else float_of_int s.s_requests /. s.s_elapsed_s

let snapshot_quantile s q =
  if s.s_requests = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.s_requests)) in
      max 1 (min s.s_requests r)
    in
    let acc = ref 0 and found = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + s.s_buckets.(i);
         if !acc >= rank then begin
           found := (if i = 0 then 0 else 1 lsl i);
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end

let snapshot_mean_latency_ns s =
  if s.s_requests = 0 then 0.0 else s.s_lat_sum_ns /. float_of_int s.s_requests

let quantile t q = snapshot_quantile (snapshot t) q

let mean_latency_ns t =
  if t.requests = 0 then 0.0
  else float_of_int t.lat_sum_ns /. float_of_int t.requests

let json_of_snapshot s =
  Printf.sprintf
    "{\"type\":\"metrics\",\"requests\":%d,\"rps\":%.1f,\"p50_ns\":%d,\
     \"p90_ns\":%d,\"p99_ns\":%d,\"mean_ns\":%.0f,\"comm\":%d,\"mig\":%d,\
     \"max_load\":%d,\"degraded\":%d,\"recovered\":%d,\"elapsed_s\":%.3f}"
    s.s_requests (snapshot_rps s) (snapshot_quantile s 0.5)
    (snapshot_quantile s 0.9) (snapshot_quantile s 0.99)
    (snapshot_mean_latency_ns s) s.s_comm s.s_mig s.s_max_load s.s_degraded
    s.s_recovered s.s_elapsed_s

let summary_of_snapshot s =
  Printf.sprintf
    "served %d requests in %.2fs (%.0f req/s); ingest latency p50 %dns p90 \
     %dns p99 %dns mean %.0fns; cost comm=%d mig=%d; max load %d; degraded \
     %d (recovered %d)"
    s.s_requests s.s_elapsed_s (snapshot_rps s) (snapshot_quantile s 0.5)
    (snapshot_quantile s 0.9) (snapshot_quantile s 0.99)
    (snapshot_mean_latency_ns s) s.s_comm s.s_mig s.s_max_load s.s_degraded
    s.s_recovered

let to_json t = json_of_snapshot (snapshot t)
let summary t = summary_of_snapshot (snapshot t)

(* Prometheus text exposition (version 0.0.4).  Labels values may hold
   arbitrary tenant ids, so escape per the spec: backslash, double quote
   and newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label_value v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let render_labels_with buf labels extra_k extra_v =
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_label_value v);
      Buffer.add_string buf "\",")
    labels;
  Buffer.add_string buf extra_k;
  Buffer.add_string buf "=\"";
  Buffer.add_string buf extra_v;
  Buffer.add_string buf "\"}"

let prometheus_exposition ?(namespace = "rbgp") series =
  let buf = Buffer.create 4096 in
  let counter name help value_of =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s_%s %s\n# TYPE %s_%s counter\n" namespace name
         help namespace name);
    List.iter
      (fun (labels, s) ->
        Buffer.add_string buf (Printf.sprintf "%s_%s" namespace name);
        render_labels buf labels;
        Buffer.add_string buf (Printf.sprintf " %d\n" (value_of s)))
      series
  in
  let gauge name help render_value =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s_%s %s\n# TYPE %s_%s gauge\n" namespace name
         help namespace name);
    List.iter
      (fun (labels, s) ->
        Buffer.add_string buf (Printf.sprintf "%s_%s" namespace name);
        render_labels buf labels;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (render_value s);
        Buffer.add_char buf '\n')
      series
  in
  counter "requests_total" "Requests served." (fun s -> s.s_requests);
  counter "comm_cost_total" "Cumulative communication cost." (fun s -> s.s_comm);
  counter "migration_cost_total" "Cumulative migration cost." (fun s ->
      s.s_mig);
  counter "degraded_requests_total"
    "Requests served on the degraded never-move path." (fun s -> s.s_degraded);
  counter "solver_repromotions_total"
    "Re-promotions from the degraded path back to the real solver." (fun s ->
      s.s_recovered);
  gauge "max_load" "Maximum cluster load observed." (fun s ->
      string_of_int s.s_max_load);
  gauge "uptime_seconds" "Seconds since metrics were created or reset."
    (fun s -> Printf.sprintf "%.3f" s.s_elapsed_s);
  (* Latency histogram: bucket [i] of the internal log histogram holds
     latencies in [2^i, 2^{i+1}) ns, so its Prometheus upper bound is
     2^{i+1} ns rendered in seconds.  Cumulative counts per exposition
     convention; the sum is the exact accumulated latency. *)
  Buffer.add_string buf
    (Printf.sprintf
       "# HELP %s_ingest_latency_seconds Ingest latency histogram.\n\
        # TYPE %s_ingest_latency_seconds histogram\n"
       namespace namespace);
  List.iter
    (fun (labels, s) ->
      let cum = ref 0 in
      for i = 0 to nbuckets - 1 do
        cum := !cum + s.s_buckets.(i);
        if s.s_buckets.(i) > 0 then begin
          let le_ns = 2.0 ** float_of_int (i + 1) in
          Buffer.add_string buf
            (Printf.sprintf "%s_ingest_latency_seconds_bucket" namespace);
          render_labels_with buf labels "le"
            (Printf.sprintf "%g" (le_ns *. 1e-9));
          Buffer.add_string buf (Printf.sprintf " %d\n" !cum)
        end
      done;
      Buffer.add_string buf
        (Printf.sprintf "%s_ingest_latency_seconds_bucket" namespace);
      render_labels_with buf labels "le" "+Inf";
      Buffer.add_string buf (Printf.sprintf " %d\n" s.s_requests);
      Buffer.add_string buf
        (Printf.sprintf "%s_ingest_latency_seconds_sum" namespace);
      render_labels buf labels;
      Buffer.add_string buf (Printf.sprintf " %.9g\n" (s.s_lat_sum_ns *. 1e-9));
      Buffer.add_string buf
        (Printf.sprintf "%s_ingest_latency_seconds_count" namespace);
      render_labels buf labels;
      Buffer.add_string buf (Printf.sprintf " %d\n" s.s_requests))
    series;
  Buffer.contents buf
