(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space, and the extraction of that
    restricted matrix.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  Two indexings of the reachable space are
    offered.  The {!Statespace.t} functions walk every path of the
    diagram and look each row and column tuple up by binary search;
    entries whose row or column tuple is unreachable are skipped (they
    cannot carry probability mass in a well-formed model).  The {!Mdd.t}
    functions, and {!to_csr}, co-walk the diagram with two MDD cursors
    instead: unreachable sub-spaces are pruned level by level and
    indices accumulate as path offsets, with no lookup per entry.

    Every function checks that the state space (or MDD) has as many
    levels as the diagram, and raises
    [Invalid_argument "Md_vector.<fn>: level count mismatch"] when it
    does not. *)

val vec_mul :
  Md.t -> Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul md ss x] is the row-vector product [x * R] where [R] is the
    matrix the diagram represents. @raise Invalid_argument if the vector
    size differs from [Statespace.size ss]. *)

val mul_vec :
  Md.t -> Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [mul_vec md ss x] is [R * x]. *)

val row_sums : Md.t -> Statespace.t -> Mdl_sparse.Vec.t
(** Exit rates [R(s, S)] of each reachable state (column tuples falling
    outside the state space still contribute — a rate out of a reachable
    state counts toward its exit rate regardless). *)

val to_csr : Md.t -> Statespace.t -> Mdl_sparse.Csr.t
(** The represented matrix restricted to the rows and columns of the
    state space, over its indices: what the flat solvers and the flat
    state-level lumping algorithm take.  It co-walks the diagram with
    [Mdd.of_statespace ss], so its cost follows the reachable paths,
    not the potential space.  Entries are summed in diagram-path order,
    which makes the result bit-identical to flattening with
    {!Md.iter_entries} and keeping the reachable rows and columns.
    @raise Invalid_argument ["Md_vector.to_csr: substate out of range"]
    if a tuple has a substate outside [0 .. Md.size md l - 1]. *)

(** {1 MDD-indexed products}

    The same products driven by an {!Mdd.t} instead of a {!Statespace.t}:
    the diagram and two MDD cursors are walked together, so unreachable
    sub-spaces are pruned wholesale and row and column indices
    accumulate as path offsets — no lookup per entry.  This is how
    MD-based solvers actually index the reachable space; the bench
    harness compares the two. *)

val vec_mul_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul_mdd md mdd x] is [x * R] over MDD (lexicographic) indices —
    the same indexing as {!Statespace.index}. *)

val mul_vec_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t

val row_sums_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t
(** Unlike {!row_sums}, entries whose column tuple is unreachable are
    pruned by the co-walk; for well-formed (reachability-closed) models
    the two agree. *)

val diag_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t
(** [diag_mdd md mdd] is the main diagonal [R(s, s)] of the represented
    matrix over MDD indices — what a Jacobi preconditioner needs, one
    co-walk, no matrix materialisation. *)
