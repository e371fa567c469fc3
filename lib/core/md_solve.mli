(** Numerical solution driven directly by a matrix diagram.

    The point of MD-based analysis (and of lumping the MD first) is that
    the transition matrix is never materialised: each iteration walks
    the diagram.  This module wires {!Mdl_md.Md_vector} products into
    the generic iterative solvers of {!Mdl_ctmc.Solver}. *)

val uniformized_operator :
  ?lambda:float -> Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_ctmc.Solver.operator * float
(** The row-vector operator [x -> x * P] for [P = I + Q/lambda],
    [Q = R - rs(R)], computed on the fly from the diagram:
    [x P = x + (x R - x . exit) / lambda].  Returns the operator and the
    uniformisation rate used (default [1.02 *] max exit rate).
    @raise Invalid_argument if [lambda] is below the max exit rate, or
    if the state space and the diagram have different level counts
    (also for the solvers below, which build this operator). *)

val steady_state :
  ?tol:float ->
  ?max_iter:int ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** Stationary distribution by power iteration on the uniformised
    operator — the MD-based counterpart of
    {!Mdl_ctmc.Solver.steady_state}. *)

val steady_state_krylov :
  ?tol:float ->
  ?max_iter:int ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** Stationary distribution by {!Mdl_ctmc.Solver.krylov} (BiCGStab) on
    the uniformised operator, Jacobi-preconditioned with the diagonal
    extracted from the diagram by {!Mdl_md.Md_vector.diag_mdd} — still
    matrix-free. *)

val transient :
  ?epsilon:float ->
  t:float ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t ->
  Mdl_sparse.Vec.t
(** Transient distribution at time [t] by uniformisation driven by the
    diagram (the matrix is never materialised) — the MD counterpart of
    {!Mdl_ctmc.Solver.transient}. *)

val ctmc_of : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_ctmc.Ctmc.t
(** Flatten the diagram over the reachable space into an explicit CTMC —
    the baseline representation, and the input to flat state-level
    lumping for optimality checks. *)
