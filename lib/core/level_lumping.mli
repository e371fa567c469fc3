(** Per-level lumping: the [CompLumpingLevel] procedure of Figure 3(a),
    plus the level-local initial partitions [P_l^ini] of the paper's
    "Overall Algorithm" paragraph.

    [comp_lumping_level] computes, by fixed-point iteration over all
    live nodes of a level, a partition of the level's index set that
    satisfies the local lumpability conditions of Definition 3
    ([~_lo] for ordinary, [~_le] for exact) at {e every} node
    simultaneously. *)

val initial_partition :
  ?eps:float ->
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
  ?eps:float ->
  ?key:Local_key.choice ->
  ?stats:Mdl_partition.Refiner.stats ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** Fixed-point refinement over all live nodes of the level, starting
    from [initial].  [key] defaults to {!Local_key.Formal_sums} (the
    paper's choice); {!Local_key.Expanded_matrices} trades time for a
    possibly coarser partition.  [stats] accumulates the refinement
    engine's counters over every per-node run of the fixed point
    ({!Mdl_partition.Refiner.stats}).

    Every per-node refinement runs the ranked pipeline
    ({!Mdl_partition.Refiner.comp_lumping_ranked}) over splitter keys
    memoised by [cache] (default: a fresh {!Key_cache.t}), skipping key
    accumulation for classes already singleton at the start of each
    per-node run (unless the cache is persistent — see {!Key_cache}) and
    reporting the engine's split trace to the cache.  The cache is
    auto-bound to [md] if bound elsewhere (or unbound); when already
    bound to [md] its rows are {e kept}, so the levels of one
    {!Compositional.lump} run share one bind — callers invoking this
    function directly with a reused cache must {!Key_cache.bind}
    between independent runs (the memo is only sound while refinement
    of each level is monotone; see {!Key_cache}).  Partitions and
    splitter-pass counts do not depend on the cache's history (pinned by
    the differential tests against the oracle's reference lumper); only
    key-evaluation work and the [key_evals] / [cache_*] counters do.

    [pool] shards the ranked pipeline's per-pass class lookups across a
    domain pool ({!Mdl_partition.Refiner.comp_lumping_ranked}, at that
    function's own [par_threshold] default); intra-node splitter-key
    sharding is armed separately on the cache via {!Key_cache.set_pool}.
    Neither changes the computed partition, the pass counts or any
    counter.

    The returned partition is canonicalised when fully discrete: if no
    two states lump, the result is {!Mdl_partition.Partition.discrete}
    (class ids = state ids), whatever ids refinement history would have
    assigned.  @raise Invalid_argument on a bad level or partition size
    mismatch. *)

val is_locally_lumpable :
  ?eps:float ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  Mdl_partition.Partition.t ->
  bool
(** Direct check of Definition 3's matrix conditions (with formal-sum
    equality) for a given partition — the post-condition of
    [comp_lumping_level], used by tests.  Does not check the reward /
    initial-probability factor conditions. *)
