(* Span recorder for the traced run.  Spans nest through an explicit
   stack; closing a span charges its duration to its name's total, the
   duration minus its children's to its self time, and the duration to
   the enclosing span's children. *)

type t = {
  clock : unit -> int;
  mutable names : string array;
  mutable total : int array;
  mutable self : int array;
  mutable count : int array;
  mutable stack_id : int array;
  mutable stack_start : int array;
  mutable stack_child : int array;
  mutable depth : int;
}

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = monotonic_ns) () =
  {
    clock;
    names = [||];
    total = [||];
    self = [||];
    count = [||];
    stack_id = Array.make 16 0;
    stack_start = Array.make 16 0;
    stack_child = Array.make 16 0;
    depth = 0;
  }

let find t name =
  let rec go i =
    if i >= Array.length t.names then None
    else if String.equal t.names.(i) name then Some i
    else go (i + 1)
  in
  go 0

let register t name =
  match find t name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      t.names <- Array.append t.names [| name |];
      t.total <- Array.append t.total [| 0 |];
      t.self <- Array.append t.self [| 0 |];
      t.count <- Array.append t.count [| 0 |];
      id

let grow a = Array.append a (Array.make (Array.length a) 0)

let enter t id =
  if t.depth = Array.length t.stack_id then begin
    t.stack_id <- grow t.stack_id;
    t.stack_start <- grow t.stack_start;
    t.stack_child <- grow t.stack_child
  end;
  let d = t.depth in
  t.stack_id.(d) <- id;
  t.stack_child.(d) <- 0;
  t.depth <- d + 1;
  t.stack_start.(d) <- t.clock ()

let leave t =
  if t.depth = 0 then invalid_arg "Span.leave: no open span";
  let now = t.clock () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.stack_id.(d) in
  let dur = now - t.stack_start.(d) in
  t.total.(id) <- t.total.(id) + dur;
  t.self.(id) <- t.self.(id) + (dur - t.stack_child.(d));
  t.count.(id) <- t.count.(id) + 1;
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur

let with_span t id f =
  enter t id;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* What one empty span costs: [inner] is the duration it records for
   itself, [outer] what it adds to an enclosing span (both clock reads).
   Measured over [calibration_iters] spans on a private recorder with
   the same clock. *)
let calibration_iters = 100_000

let calibrate t =
  let c = create ~clock:t.clock () in
  let inner = register c "inner" and outer = register c "outer" in
  enter c outer;
  for _ = 1 to calibration_iters do
    enter c inner;
    leave c
  done;
  leave c;
  let per a id = float_of_int a.(id) /. float_of_int calibration_iters in
  (per c.total inner, per c.total outer)

let get a t name = match find t name with Some id -> a.(id) | None -> 0
let total_ns t name = get t.total t name
let self_ns t name = get t.self t name
let count t name = get t.count t name
