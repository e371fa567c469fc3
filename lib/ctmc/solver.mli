(** Numerical solution of CTMCs: stationary and transient distributions.

    The iterative kernels are written against an abstract row-vector /
    matrix product so that both flat sparse matrices and matrix-diagram
    representations (whose whole point is to avoid materialising the
    matrix) can drive the same solvers. *)

val log_src : Logs.src
(** The solvers' [Logs] source, [mdl.solve]: per-run convergence
    summaries at debug level and a warning on non-convergence, so a
    diverging solve is never silent.  Every iterative kernel also runs
    inside a [solver.*] span ([Mdl_obs.Trace]) and publishes
    [solver.iterations] / [solver.residual] / [solver.non_converged]
    into the metrics registry. *)

type stats = {
  iterations : int;
  residual : float;  (** last convergence-test value *)
  converged : bool;
}

type operator = {
  dim : int;
  apply_into : Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t -> unit;
      (** [apply_into x y] overwrites [y] with the row-vector product
          [x * P] for a DTMC matrix [P]; [x] and [y] are distinct
          vectors of length [dim].  The solvers below allocate their
          vectors once and pass them in, so an iteration allocates no
          vector. *)
}

val operator_of_csr : Mdl_sparse.Csr.t -> operator
(** Through {!Mdl_sparse.Csr.vec_mul_into}.
    @raise Invalid_argument if the matrix is not square. *)

type ordering =
  | Natural  (** Sweep in the chain's own state numbering. *)
  | Rcm
      (** Relabel with {!Mdl_sparse.Ordering.rcm} before sweeping, so the
          sweeps walk nearly-contiguous memory; the returned distribution
          is mapped back to the original numbering, so results are
          ordering-independent up to floating-point summation order. *)

val power :
  ?tol:float ->
  ?max_iter:int ->
  ?initial:Mdl_sparse.Vec.t ->
  operator ->
  Mdl_sparse.Vec.t * stats
(** Power iteration [pi := pi * P] with 1-normalisation each step;
    converges to the stationary distribution of an aperiodic DTMC.
    Convergence test: successive-iterate infinity-norm difference below
    [tol] (default [1e-12]; [max_iter] default [100_000]). *)

val krylov :
  ?tol:float ->
  ?max_iter:int ->
  ?initial:Mdl_sparse.Vec.t ->
  ?diag:Mdl_sparse.Vec.t ->
  operator ->
  Mdl_sparse.Vec.t * stats
(** BiCGStab on the stationarity equations.  [pi (P - I) = 0] with
    [sum pi = 1] is made nonsingular by replacing the last column of
    [P - I] with ones ([x A = e_{n-1}]), then solved with the
    stabilised biconjugate gradient method; [diag], the main diagonal
    of [P] when the caller can compute it, switches on Jacobi right
    preconditioning.  The convergence test is the infinity norm of the
    linear-system residual (default [tol] [1e-12], [max_iter]
    [10_000], one iteration = two operator applications); the result
    is clamped to nonnegative entries and 1-normalised.  Typically
    converges in orders of magnitude fewer iterations than {!power} on
    stiff chains.
    @raise Invalid_argument if the operator is empty or [initial] /
    [diag] sizes mismatch. *)

val steady_state :
  ?tol:float -> ?max_iter:int -> Ctmc.t -> Mdl_sparse.Vec.t * stats
(** Stationary distribution of a CTMC via power iteration on its
    uniformised DTMC. *)

val steady_state_gauss_seidel :
  ?tol:float ->
  ?max_iter:int ->
  ?ordering:ordering ->
  ?relax:float ->
  Ctmc.t ->
  Mdl_sparse.Vec.t * stats
(** Gauss–Seidel sweeps on [pi Q = 0], renormalised each sweep.
    Typically converges in far fewer iterations than power iteration on
    stiff chains.  [ordering] (default {!Natural}) selects the sweep
    order; [relax] in [(0, 1]] (default [1.], plain Gauss–Seidel)
    under-relaxes the update (SOR), which restores convergence on chains
    where pure sweeps oscillate.

    The set-up (span [solver.gs_setup]) computes the ordering, relabels
    [R] and compiles it into a [Mdl_sparse.Csr.sweep_plan], whose row
    [j] holds the rates into [j] from the other states; the generator
    diagonal is [R(j,j) - exit(j)], so [Q] itself is never built.  Each
    sweep ({!Mdl_sparse.Csr.sor_sweep}, span [solver.gauss_seidel]) then
    allocates nothing and returns pi's sum: pi is rescaled to sum 1 and
    compared with the previous iterate in one pass over two buffers
    allocated once.  The convergence test is the infinity norm
    of the change between successive normalised iterates (default [tol]
    [1e-12], [max_iter] [10_000]); a NaN iterate reports a NaN residual
    and never converges.
    @raise Invalid_argument if [relax] is outside [(0, 1]], if the chain
    is empty, or if some state has a zero generator diagonal (an
    absorbing state, or one with only a self loop; the lowest such
    state is named in the chain's own numbering): the sweep update
    divides by the diagonal, and such chains have no positive
    stationary distribution for it to find. *)

val steady_state_krylov :
  ?tol:float -> ?max_iter:int -> Ctmc.t -> Mdl_sparse.Vec.t * stats
(** Stationary distribution via {!krylov} on the uniformised DTMC,
    Jacobi-preconditioned with its diagonal, in the chain's own state
    numbering. *)

type method_ = Power | Gauss_seidel | Krylov
(** The three steady-state solvers above.  [Md_solve.solve] (in
    [mdl_core]) is the one dispatch on this type. *)

val method_name : method_ -> string
(** ["power"], ["gauss-seidel"], ["krylov"] — the spellings the
    [lumpmd --solver] flag accepts. *)

val poisson_weights : epsilon:float -> qt:float -> Mdl_sparse.Vec.t
(** [poisson_weights ~epsilon ~qt] are the Poisson([qt]) probabilities
    [w(0) .. w(r)] used by uniformisation, with the right truncation
    point [r] chosen so the discarded tail mass is below [epsilon]
    (a simplified Fox–Glynn scheme, scaled from the mode).  The
    retained weights are renormalised to sum to exactly [1].  Exposed
    for testing. *)

val transient :
  ?epsilon:float ->
  t:float ->
  Ctmc.t ->
  Mdl_sparse.Vec.t ->
  Mdl_sparse.Vec.t
(** [transient ~t ctmc pi0] is the distribution at time [t] from [pi0],
    by uniformisation (Poisson-weighted powers of the uniformised DTMC);
    [epsilon] (default [1e-12]) bounds the truncation error.
    @raise Invalid_argument if [t < 0]. *)

val transient_operator :
  ?epsilon:float ->
  t:float ->
  lambda:float ->
  operator ->
  Mdl_sparse.Vec.t ->
  Mdl_sparse.Vec.t
(** Uniformisation against an abstract DTMC operator [x -> x P] with
    uniformisation rate [lambda] — the kernel behind {!transient},
    exposed so matrix-diagram-driven analyses can reuse it without
    materialising [P].  Observed like the stationary kernels: a
    [solver.transient] span, the run/iteration counters (one iteration
    per operator application) and the truncation deficit as the
    residual gauge.
    @raise Invalid_argument if [t < 0] or the vector dimension does not
    match the operator. *)

val expected_reward : Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t -> float
(** [expected_reward pi r] is [sum_i pi(i) * r(i)]. *)
