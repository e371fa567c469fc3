(** High-level reward measures on MRPs (the quantities an analyst
    actually asks for — Section 2 of the paper motivates lumping by the
    preservation of exactly these). *)

val steady_state_reward : ?tol:float -> ?max_iter:int -> Mrp.t -> float
(** Expected rate reward under the stationary distribution, solved by
    power iteration ({!Solver.steady_state}); [tol] and [max_iter] are
    forwarded to it.  The other solvers serve matrix diagrams, through
    [Md_solve.solve]. *)

val transient_reward : ?epsilon:float -> t:float -> Mrp.t -> float
(** Expected rate reward at time [t], starting from the MRP's initial
    distribution. *)

val accumulated_reward : ?epsilon:float -> t:float -> ?steps:int -> Mrp.t -> float
(** Approximate expected reward accumulated over [\[0, t\]] (trapezoidal
    integration of the transient reward at [steps] points, default 64). *)
