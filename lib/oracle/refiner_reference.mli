(** The seed repository's list-based refinement engine, preserved as a
    correctness and performance baseline for
    {!Mdl_partition.Refiner}.

    It computes the same coarsest stable refinement, but re-enqueues
    {e every} sub-block after a split and shuttles states through lists,
    fresh arrays and throwaway hash tables — the behaviour the property
    tests pin the fast engine against, and the "seed" column of
    [BENCH_refine.json]. *)

val comp_lumping :
  'k Mdl_partition.Refiner.spec ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** [comp_lumping spec ~initial] is the coarsest refinement of
    [initial] that is stable under [spec.splitter_keys] splitting —
    the fixed point the production pipelines
    ({!Mdl_partition.Refiner.comp_lumping_float},
    {!Mdl_partition.Refiner.comp_lumping_ranked}) must reproduce.  The
    result is a fresh partition (class ids renumbered); [initial] is
    not mutated.
    @raise Invalid_argument if [initial] is not over [spec.size]
    states. *)
