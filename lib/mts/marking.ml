let threshold = 1.0

let solver : Mts.factory =
 fun metric ~start ~rng ->
  let s = Metric.size metric in
  let phase_cost = Array.make s 0.0 in
  let next cost current =
    for i = 0 to s - 1 do
      phase_cost.(i) <- phase_cost.(i) +. cost.(i)
    done;
    if phase_cost.(current) < threshold then current
    else begin
      let unmarked = ref [] in
      for i = s - 1 downto 0 do
        if phase_cost.(i) < threshold then unmarked := i :: !unmarked
      done;
      match !unmarked with
      | [] ->
          (* all marked: the phase ends; reset costs, keep only the new
             arrivals of this step, and restart from a random state *)
          for i = 0 to s - 1 do
            phase_cost.(i) <- 0.0
          done;
          Rbgp_util.Rng.int rng s
      | candidates ->
          let arr = Array.of_list candidates in
          arr.(Rbgp_util.Rng.int rng (Array.length arr))
    end
  in
  Mts.make ~name:"marking" ~metric ~start ~next ()
