(** Seeded random generators for flat objects: COO/CSR sparse matrices
    and irreducible CTMC rate matrices.

    All generation is driven by an explicit {!Mdl_util.Prng.t}, so a
    spec's [seed] field reproduces the object bit-for-bit.  Rates are
    drawn from a small alphabet of halves ([0.5, 1.0, 1.5, ..]) so that
    the tolerant float comparisons inside the lumping algorithms behave
    exactly, and so that distinct states actually collide into lumpable
    classes now and then. *)

val coo :
  Mdl_util.Prng.t -> rows:int -> cols:int -> nnz:int -> Mdl_sparse.Coo.t
(** [nnz] random triplets (duplicates possible, folded by
    {!Mdl_sparse.Csr.of_coo}); values are nonzero signed halves. *)

val symmetrise : (int -> int) -> Mdl_sparse.Csr.t -> Mdl_sparse.Csr.t
(** [symmetrise swap m] is [(m + swap(m)) / 2] where [swap] is an
    involution on indices applied to both rows and columns — the matrix
    becomes invariant under the state permutation, planting a lump. *)

val swap_last_two : int -> int -> int
(** [swap_last_two n] is the transposition of states [n-2] and [n-1]
    (identity for [n < 2]). *)

val rate_matrix : Mdl_util.Prng.t -> Spec.chain -> Mdl_sparse.Csr.t
(** Irreducible by construction: the ring [0 -> 1 -> .. -> n-1 -> 0]
    with rate 1 plus [extra] random nonnegative transitions; when
    [planted], symmetrised under {!swap_last_two} (which keeps the ring
    edges, hence irreducibility). *)

val ctmc : Mdl_util.Prng.t -> Spec.chain -> Mdl_ctmc.Ctmc.t

val md_of_csr : Mdl_sparse.Csr.t -> Mdl_md.Md.t
(** Wrap a flat square rate matrix as a 1-level matrix diagram — the
    bridge that lets the MD-level oracle exercise flat chains (and the
    compositional algorithm collapse to the state-level one). *)
