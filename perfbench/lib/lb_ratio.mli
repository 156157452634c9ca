(** [ratio_to_lb]: realised cost against the certified dynamic lower
    bound (Avin et al.'s cost model), summed over tenants. *)

val lower_bound : Rbgp_ring.Instance.t -> int array list -> int
(** Sum over the traces of {!Rbgp_offline.Lower_bound.dynamic_lb}; every
    trace is one tenant's request prefix on the same instance shape. *)

val ratio : cost:int -> lb:int -> float
(** [cost / lb].  Raises [Invalid_argument] when [lb <= 0]. *)
