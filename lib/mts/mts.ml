type t = {
  name : string;
  metric : Metric.t;
  mutable state : int;
  mutable hit : float;
  mutable move : float;
  mutable steps : int;
  next : float array -> int -> int;
  next_indicator : int -> int -> int;
}

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t

(* The generic indicator step: one reused all-zero scratch vector, set at
   [e] for the duration of the dense [next] call and cleared again, so a
   solver without a specialised step behaves exactly as under
   [serve (indicator e ~n)] without allocating per request. *)
let dense_indicator_step next s =
  let scratch = Array.make s 0.0 in
  fun e current ->
    scratch.(e) <- 1.0;
    match next scratch current with
    | s' ->
        scratch.(e) <- 0.0;
        s'
    | exception ex ->
        scratch.(e) <- 0.0;
        raise ex

let make ?next_indicator ~name ~metric ~start ~next () =
  Metric.check_state metric start;
  let next_indicator =
    match next_indicator with
    | Some f -> f
    | None -> dense_indicator_step next (Metric.size metric)
  in
  {
    name;
    metric;
    state = start;
    hit = 0.0;
    move = 0.0;
    steps = 0;
    next;
    next_indicator;
  }

let name t = t.name
let metric t = t.metric
let state t = t.state

(* top-level so [serve] (r11-patrolled via the solver path) passes a
   static function to [Array.iter], not a per-call closure *)
let check_cost_entry c =
  if c < 0.0 || Float.is_nan c then
    invalid_arg "Mts.serve: cost entries must be non-negative"

(* shared tail of both serve paths; the caller has checked [s'] *)
let account t s' ~hit =
  t.move <- t.move +. float_of_int (Metric.distance t.metric t.state s');
  t.hit <- t.hit +. hit;
  t.state <- s';
  t.steps <- t.steps + 1;
  s'

let serve t cost_vector =
  if Array.length cost_vector <> Metric.size t.metric then
    invalid_arg "Mts.serve: cost vector size mismatch";
  Array.iter check_cost_entry cost_vector;
  let s' = t.next cost_vector t.state in
  Metric.check_state t.metric s';
  account t s' ~hit:cost_vector.(s')

let serve_indicator t e =
  if e < 0 || e >= Metric.size t.metric then
    invalid_arg "Mts.serve_indicator: index out of range";
  let s' = t.next_indicator e t.state in
  Metric.check_state t.metric s';
  account t s' ~hit:(if s' = e then 1.0 else 0.0)

let hit_cost t = t.hit
let move_cost t = t.move
let total_cost t = t.hit +. t.move
let steps t = t.steps

let indicator e ~n =
  if e < 0 || e >= n then invalid_arg "Mts.indicator: index out of range";
  let v = Array.make n 0.0 in
  v.(e) <- 1.0;
  v
