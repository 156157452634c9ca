type player = {
  name : string;
  position : unit -> int;
  serve : int -> unit;
  hit_cost : unit -> float;
  move_cost : unit -> float;
}

let total_cost p = p.hit_cost () +. p.move_cost ()

let start_edge ~k =
  if k <= 0 then invalid_arg "Game.start_edge: k must be positive";
  ((k + 1) / 2) - 1 |> Stdlib.max 0

let of_mts mts =
  let module M = Rbgp_mts.Mts in
  {
    name = M.name mts;
    position = (fun () -> M.state mts);
    serve = (fun e -> ignore (M.serve_indicator mts e));
    hit_cost = (fun () -> M.hit_cost mts);
    move_cost = (fun () -> M.move_cost mts);
  }

let greedy_dodge ~k ?start () =
  if k <= 0 then invalid_arg "Game.greedy_dodge: k must be positive";
  let pos = ref (match start with Some s -> s | None -> start_edge ~k) in
  let dir = ref 1 in
  let move = ref 0.0 and hit = ref 0.0 in
  let serve e =
    if e < 0 || e >= k then invalid_arg "Game.greedy_dodge: edge out of range";
    if e = !pos then
      if k = 1 then hit := !hit +. 1.0
      else begin
        (* dodge one step, sweeping; bounce at the ends.  Chased by the
           Lemma 4.1 adversary this spreads the requests uniformly, which
           is the worst case for the player and the best for static OPT. *)
        if !pos + !dir < 0 || !pos + !dir > k - 1 then dir := - !dir;
        pos := !pos + !dir;
        move := !move +. 1.0
      end
  in
  {
    name = "greedy-dodge";
    position = (fun () -> !pos);
    serve;
    hit_cost = (fun () -> !hit);
    move_cost = (fun () -> !move);
  }

let run p requests = Array.iter p.serve requests

let run_adaptive p ~steps ~next =
  Array.init steps (fun t ->
      let e = next t (p.position ()) in
      p.serve e;
      e)
