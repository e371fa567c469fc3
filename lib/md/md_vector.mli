(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space, and the extraction of that
    restricted matrix.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  Every function co-walks the diagram with two
    MDD cursors over the reachable space: unreachable sub-spaces are
    pruned level by level and row and column indices accumulate as path
    offsets, with no lookup per entry.  Entries whose row or column
    tuple is unreachable are skipped (they cannot carry probability
    mass in a well-formed model).

    Every function checks that the state space (or MDD) has as many
    levels as the diagram, and raises
    [Invalid_argument "Md_vector.<fn>: level count mismatch"] when it
    does not. *)

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

    Products over the MDD of the reachable space ({!Mdd.of_statespace}),
    whose indices are those of {!Statespace.index}.  This is how the
    MD-based solvers index the reachable space. *)

val vec_mul_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul_mdd md mdd x] is [x * R] over MDD (lexicographic) indices —
    the same indexing as {!Statespace.index}. *)

val mul_vec_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t

val row_sums_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t
(** Exit rates [R(s, S)] of each reachable state.  Entries whose column
    tuple is unreachable are pruned by the co-walk; for well-formed
    (reachability-closed) models that loses nothing. *)

val diag_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t
(** [diag_mdd md mdd] is the main diagonal [R(s, s)] of the represented
    matrix over MDD indices — what a Jacobi preconditioner needs, one
    co-walk, no matrix materialisation. *)
