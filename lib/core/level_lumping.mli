(** Per-level lumping: the [CompLumpingLevel] procedure of Figure 3(a),
    plus the level-local initial partitions [P_l^ini] of the paper's
    "Overall Algorithm" paragraph.

    [comp_lumping_level] computes, by fixed-point iteration over all
    live nodes of a level, a partition of the level's index set that
    satisfies the local lumpability conditions of Definition 3
    ([~_lo] for ordinary, [~_le] for exact) at {e every} node
    simultaneously. *)

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
(** Fixed-point refinement over all live nodes of the level, starting
    from [initial].  [key] defaults to {!Local_key.Formal_sums} (the
    paper's choice); {!Local_key.Expanded_matrices} trades time for a
    possibly coarser partition.  Each call counts one [level.fixpoints]
    and its pass count as [level.fixpoint_iterations] in the
    {!Mdl_obs.Metrics} registry; every per-node run adds its own
    [refiner.*] counts and every splitter lookup its [key_cache.*]
    counts.

    Every per-node refinement runs the ranked pipeline
    ({!Mdl_partition.Refiner.comp_lumping_ranked}) over splitter keys
    memoised by [cache] (default: a fresh {!Key_cache.t}), skipping key
    accumulation for classes already singleton at the start of each
    per-node run (unless the cache is persistent — see {!Key_cache}).
    A split needs no report to the cache: its invalidation is
    structural.  The cache is auto-bound to [md] under [key] and [mode]
    if bound elsewhere (or unbound); when already bound to [md] its
    rows are {e kept}, so the levels of one {!Compositional.lump} run
    share one bind, and it must have been bound under [key] and [mode]
    ({!Key_cache.bound_md} raises [Invalid_argument] otherwise) — callers
    invoking this function directly with a reused cache must
    {!Key_cache.bind} between independent runs (the memo is only sound
    while refinement of each level is monotone; see {!Key_cache}).
    Partitions and splitter-pass counts do not depend on the cache's
    history (pinned by the differential tests against the oracle's
    reference lumper); only key-evaluation work and the
    [refiner.key_evals] and [key_cache.*] counts do.

    The run selects the cache's record for [level] ({!Key_cache.for_level})
    once and writes no other, so runs of different levels may share one
    cache from different domains.  The run itself is sequential: it
    submits nothing to a domain pool.

    The returned partition is canonicalised when fully discrete: if no
    two states lump, the result is {!Mdl_partition.Partition.discrete}
    (class ids = state ids), whatever ids refinement history would have
    assigned.  @raise Invalid_argument on a bad level or partition size
    mismatch, or when [cache] was bound under another key choice or
    mode. *)

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
