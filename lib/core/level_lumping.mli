(** Per-level lumping: the [CompLumpingLevel] procedure of Figure 3(a),
    plus the level-local initial partitions [P_l^ini] of the paper's
    "Overall Algorithm" paragraph.

    [comp_lumping_level] computes the coarsest refinement of the initial
    partition that satisfies the local lumpability conditions of
    Definition 3 ([~_lo] for ordinary, [~_le] for exact) at {e every}
    live node of the level simultaneously.  Figure 3(a) reaches it by
    repeating per-node refinement until no node splits a class; that
    coarsest partition is unique, and one refinement run whose keys are
    the tuple of all nodes' keys ({!Local_key.level_keys}) reaches it
    directly, as the multi-relation refinement behind the paper's [9]
    does. *)

val initial_partition :
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  Mdl_partition.Partition.t
(** The coarsest partition of [S_level] such that, within each class:
    ordinary — the level factor of {e every} protected reward function
    is constant (pass all the measures you intend to compute on the
    lumped chain);
    exact — the initial-probability factor [f_pi,level] is constant and,
    for every live node [n] of the level, the full-row formal sum
    [r_{n, n'}(s, S_level)] (per child [n']) is constant. *)

val comp_lumping_level :
  ?key:Local_key.choice ->
  ?cache:Key_cache.t ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** Refinement of [initial] against all live nodes of the level at
    once: one run of the ranked pipeline
    ({!Mdl_partition.Refiner.comp_lumping_ranked}) whose splitter step
    evaluates every live node over the splitter's members and keys each
    state by the tuple of its per-node keys ({!Key_cache.splitter_keys}).
    [key] defaults to {!Local_key.Formal_sums} (the paper's choice);
    {!Local_key.Expanded_matrices} trades time for a possibly coarser
    partition.  Each call counts one [level.fixpoints] in the
    {!Mdl_obs.Metrics} registry and adds the run's [refiner.*] counts
    and one [key_cache.*] histogram observation per splitter lookup;
    with tracing on, the run is one [lump.fixpoint] span holding one
    [refine.run].

    Keys are evaluated through the level's record of [cache] (default: a
    fresh {!Key_cache.t}), which keeps the level's compiled lines and
    intern tables; key accumulation skips the states alone in their
    class of [initial].  The cache is
    auto-bound to [md] under [key] and [mode] if bound elsewhere (or
    unbound); when already bound to [md] it is used as is, so the levels
    of one {!Compositional.lump} run share one bind, and it must have
    been bound under [key] and [mode] ({!Key_cache.bound_md} raises
    [Invalid_argument] otherwise).  Partitions and every [refiner.*]
    count are independent of the cache's history.

    The run selects the cache's record for [level] ({!Key_cache.for_level})
    once and writes no other, so runs of different levels may share one
    cache from different domains.  The run itself is sequential: it
    submits nothing to a domain pool.

    The returned partition is canonicalised: classes are numbered by
    first appearance, and a fully discrete result is
    {!Mdl_partition.Partition.discrete} (class ids = state ids),
    whatever ids refinement history would have assigned.
    @raise Invalid_argument on a bad level or partition size mismatch,
    or when [cache] was bound under another key choice or mode. *)

val is_locally_lumpable :
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  Mdl_partition.Partition.t ->
  bool
(** Direct check of Definition 3's matrix conditions (with formal-sum
    equality) for a given partition — the post-condition of
    [comp_lumping_level], used by tests.  Does not check the reward /
    initial-probability factor conditions. *)
