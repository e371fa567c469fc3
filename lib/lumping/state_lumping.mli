(** State-level (flat) optimal lumping — the algorithm of Derisavi,
    Hermanns and Sanders [9], in the generalised form of Figure 1:
    partition refinement with key [K(R, s, C) = R(s, C)] for ordinary
    lumping and [K(R, s, C) = R(C, s)] for exact lumping.

    This is both the baseline the paper compares against conceptually
    and the optimality checker of Section 5 (the compositionally lumped
    chain is fed back through this algorithm to confirm no further
    reduction is possible). *)

type mode = Ordinary | Exact

val refiner_spec :
  ?eps:float -> mode -> Mdl_sparse.Csr.t -> float Mdl_partition.Refiner.spec
(** The flat-matrix refinement spec as a polymorphic
    {!type:Mdl_partition.Refiner.spec}: row-sum keys [R(s, C)] (ordinary) or
    column-sum keys [R(C, s)] (exact), with float keys grouped by their
    {!Mdl_util.Floatx.quantize} representative.  Exposed for the
    reference engine of the differential refiner tests and the
    refinement benchmark; {!coarsest} runs the equivalent
    {!float_spec} through the monomorphic pipeline.
    @raise Invalid_argument if [r] is not square. *)

val float_spec :
  ?eps:float -> mode -> Mdl_sparse.Csr.t -> Mdl_partition.Refiner.float_spec
(** The same keys as {!refiner_spec}, emitted into the refiner's unboxed
    scratch buffers for the monomorphic float pipeline
    ({!Mdl_partition.Refiner.comp_lumping_float}): splitter sums are
    accumulated in dense per-state scratch (reset in O(touched) per
    pass) with no list or hashtable on the hot path.  Computes the
    identical fixed point (pinned by the differential tests).
    @raise Invalid_argument if [r] is not square. *)

val coarsest :
  ?eps:float ->
  ?stats:Mdl_partition.Refiner.stats ->
  mode ->
  Mdl_sparse.Csr.t ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** [coarsest mode r ~initial] is the coarsest [mode]-lumpable partition
    of the chain with rate matrix [r] refining [initial].  For exact
    lumping the caller must ensure [initial] already separates states
    with different total exit rates [R(s, S)] (use {!initial_partition}
    or {!coarsest_mrp}).  [stats] accumulates the refinement engine's
    counters ({!Mdl_partition.Refiner.stats}).  Runs the monomorphic
    float pipeline ({!Mdl_partition.Refiner.comp_lumping_float}).
    @raise Invalid_argument if [r] is not square or sizes mismatch. *)

val initial_partition : ?eps:float -> mode -> Mdl_ctmc.Mrp.t -> Mdl_partition.Partition.t
(** The paper's [P_ini]: for ordinary lumping, group states by reward
    value; for exact lumping, by initial probability and total exit rate
    [R(s, S)]. *)

val coarsest_mrp : ?eps:float -> mode -> Mdl_ctmc.Mrp.t -> Mdl_partition.Partition.t
(** [coarsest_mrp mode m] = [coarsest mode R ~initial:(initial_partition
    mode m)] — the full pipeline of Figure 1's [Lump] minus quotient
    construction. *)
