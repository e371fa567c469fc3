(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space, and the extraction of that
    restricted matrix.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  Every function co-walks the diagram with a row
    and a column cursor over the state space itself ({!Statespace.root},
    {!Statespace.arc}): unreachable sub-spaces are pruned level by level
    and row and column indices accumulate as path offsets, so indices
    are those of {!Statespace.index}, with no index built per call and
    no lookup per entry.  Entries whose row or column tuple is
    unreachable are skipped (they cannot carry probability mass in a
    well-formed model).

    Every function checks that the state space has as many levels as
    the diagram, and raises
    [Invalid_argument "Md_vector.<fn>: level count mismatch"] when it
    does not. *)

val to_csr : Md.t -> Statespace.t -> Mdl_sparse.Csr.t
(** The represented matrix restricted to the rows and columns of the
    state space, over its indices: what the flat solvers and the flat
    state-level lumping algorithm take.  Its cost follows the reachable
    paths, not the potential space.  Entries are summed in diagram-path
    order, which makes the result bit-identical to flattening with
    {!Md.iter_entries} and keeping the reachable rows and columns.
    @raise Invalid_argument ["Md_vector.to_csr: substate out of range"]
    if a state has a substate outside [0 .. Md.size md l - 1]. *)

val vec_mul : Md.t -> Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul md ss x] is [x * R] over the state space's indices. *)

val row_sums : Md.t -> Statespace.t -> Mdl_sparse.Vec.t
(** Exit rates [R(s, S)] of each reachable state.  Entries whose column
    tuple is unreachable are pruned by the co-walk; for well-formed
    (reachability-closed) models that loses nothing. *)

val diag : Md.t -> Statespace.t -> Mdl_sparse.Vec.t
(** [diag md ss] is the main diagonal [R(s, s)] of the represented
    matrix over the state space's indices — what a Jacobi
    preconditioner needs, one co-walk, no matrix materialisation. *)
