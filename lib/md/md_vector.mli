(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space, and the extraction of that
    restricted matrix.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  Every function co-walks the diagram with a row
    and a column cursor over the state space's nodes: unreachable
    sub-spaces are pruned level by level and row and column indices
    accumulate as path offsets, so indices are those of
    {!Statespace.index}.  Entries whose row or column tuple is
    unreachable are skipped (they cannot carry probability mass in a
    well-formed model).

    The walk follows a state-space arc through a dense table per
    state-space node, indexed by local state and built once by
    {!create}: two ints per (node, local state of the node's level).
    It reads the diagram's rows and formal sums in place and keeps the
    product of the coefficients above a level in a buffer, so after
    {!create} a walk allocates nothing per entry, and {!vec_mul_into}
    allocates nothing at all. *)

type t
(** A diagram paired with a state space, with the walk's tables and
    buffer.  A value is used by one domain at a time. *)

val create : Md.t -> Statespace.t -> t
(** [create md ss] builds the arc tables of [ss] for the diagram's
    level sizes.  The diagram's root is read here.
    @raise Invalid_argument ["Md_vector.create: level count mismatch"]
    if the state space and the diagram have different level counts,
    ["Md_vector.create: substate out of range"] if a state has a
    substate outside [0 .. Md.size md l - 1], and {!Md.root}'s error if
    the diagram has no root. *)

val to_csr : t -> Mdl_sparse.Csr.t
(** The represented matrix restricted to the rows and columns of the
    state space, over its indices: what the flat solvers and the flat
    state-level lumping algorithm take.  Its cost follows the reachable
    paths, not the potential space.  Entries are summed in diagram-path
    order, which makes the result bit-identical to flattening with
    {!Md.iter_entries} and keeping the reachable rows and columns. *)

val vec_mul_into : t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t -> unit
(** [vec_mul_into t x y] overwrites [y] with [x * R] over the state
    space's indices.
    @raise Invalid_argument if a vector's length is not the state
    space's size, or if [x] and [y] are the same array. *)

val row_sums : t -> Mdl_sparse.Vec.t
(** Exit rates [R(s, S)] of each reachable state.  Entries whose column
    tuple is unreachable are pruned by the co-walk; for well-formed
    (reachability-closed) models that loses nothing. *)

val diag : t -> Mdl_sparse.Vec.t
(** The main diagonal [R(s, s)] of the represented matrix over the state
    space's indices — what a Jacobi preconditioner needs, one co-walk,
    no matrix materialisation. *)
