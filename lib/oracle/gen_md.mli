(** Seeded random generators for multi-level structures: Kronecker /
    SAN-style compositions and free-form matrix diagrams with shared
    nodes and multi-term formal sums.

    Two construction styles, because they stress different code paths:
    {!kronecker} descriptors compile through {!event_chains} (one node
    chain per event, maximal suffix sharing, multi-term root sums) or
    through {!Mdl_kron.Kronecker.to_md} (the canonical slice form real
    models compile to), while {!direct} builds nodes bottom-up with
    randomly shared children and 1–2-term formal sums (shapes, including
    zero rows and unreachable corners, that no compilation emits). *)

val local_matrix :
  Mdl_util.Prng.t -> n:int -> symmetric:bool -> Mdl_sparse.Csr.t
(** A random nonnegative [n x n] local transition matrix; when
    [symmetric], invariant under swapping the last two states. *)

val kronecker : Mdl_util.Prng.t -> Spec.kron -> Mdl_kron.Kronecker.t
(** Random events over [spec.sizes]; when [spec.ring], one extra event
    per level whose local matrix is the level ring (identity elsewhere),
    making the flat chain irreducible over the full product space. *)

val event_chains : Mdl_kron.Kronecker.t -> Mdl_md.Md.t
(** The literal compilation of a descriptor: one node chain per event
    below a root whose entries carry [lambda_e] into the level-1
    coefficients, equal suffixes shared by hash-consing.  The same
    matrix as {!Mdl_kron.Kronecker.to_md}, but with multi-term formal
    sums and without canonical scaling: shapes the lumper must handle
    that no model compiles to. *)

val kron_md : Mdl_util.Prng.t -> Spec.kron -> Mdl_md.Md.t
(** {!kronecker} compiled through {!Mdl_kron.Kronecker.to_md} when
    [spec.merged], else through {!event_chains}. *)

val direct : Mdl_util.Prng.t -> Spec.direct -> Mdl_md.Md.t
(** Bottom-up random MD: per level a pool of [spec.width] nodes whose
    entries are formal sums of 1–2 children drawn from the next level's
    pool; hash-consing shares equal nodes.  When [spec.symmetric] each
    node is symmetrised under swapping the level's last two states. *)

val of_spec : Spec.model -> Mdl_md.Md.t
(** Derive the matrix diagram a spec denotes (chains become 1-level
    MDs via {!Gen_chain.md_of_csr}).  Deterministic in the spec. *)
