(** Numerical solution driven directly by a matrix diagram.

    The point of MD-based analysis (and of lumping the MD first) is that
    the transition matrix is never materialised: each iteration walks
    the diagram.  This module wires {!Mdl_md.Md_vector} products into
    the generic iterative solvers of {!Mdl_ctmc.Solver}.  It also holds
    the analysis policy the front-ends share: the steady-state settings
    per solver ({!solve}), how named measures are read off a lumped
    result ({!measures}), and Section 5's optimality check
    ({!check_optimal}). *)

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

(** {1 The front-ends' policy} *)

val solve :
  Mdl_ctmc.Solver.method_ ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** The stationary distribution by the given method, with the settings
    lumpd's [solve] verb and [lumpmd --solve] use:
    {ul
    {- [Power]: {!steady_state}, [tol] [1e-12], at most [500_000]
       iterations;}
    {- [Krylov]: {!steady_state_krylov}, [tol] [1e-12];}
    {- [Gauss_seidel]: {!Mdl_ctmc.Solver.steady_state_gauss_seidel} on
       the chain {!ctmc_of} extracts, [tol] [1e-12], at most [100_000]
       iterations, reverse Cuthill–McKee order, [relax] [0.9].}} *)

val measures :
  Compositional.result ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t ->
  (string * Decomposed.t) list ->
  (string * float) list
(** [measures r lumped_ss pi rewards] is each named reward's expected
    value under the distribution [pi] of the lumped chain over
    [lumped_ss]: the reward carried to the lumped diagram
    ({!Compositional.lumped_rewards}) and evaluated on [lumped_ss]. *)

val check_optimal :
  Mdl_lumping.State_lumping.mode ->
  Compositional.result ->
  Mdl_md.Statespace.t ->
  rewards:Decomposed.t list ->
  int option
(** Section 5's optimality check: the class count of the coarsest
    state-level lumping ({!Mdl_lumping.State_lumping.coarsest}) of the
    lumped chain over [lumped_ss], or [None] above 60,000 lumped
    states, where the check is skipped.  The compositional result is
    optimal when the count equals the lumped state count.  The flat
    lumping starts from the partition by the [rewards] carried to the
    lumped diagram (ordinary), or by exit rate (exact). *)
