module Lower_bound = Rbgp_offline.Lower_bound

let lower_bound inst traces =
  List.fold_left
    (fun acc trace -> acc + Lower_bound.dynamic_lb inst trace ())
    0 traces

let ratio ~cost ~lb =
  if lb <= 0 then invalid_arg "Lb_ratio.ratio: lower bound must be positive";
  float_of_int cost /. float_of_int lb
