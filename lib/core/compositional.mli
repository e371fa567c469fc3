(** The compositional MD lumping algorithm — Figure 3(b),
    [CompositionalLump] — and the helpers needed to use its result for
    numerical solution.

    For each level of the diagram a locally lumpable partition is
    computed ({!Level_lumping}); then every node is replaced by its
    lumped quotient, rebuilding the diagram bottom-up so that nodes
    which become equal after lumping merge by hash-consing (their
    parents' formal-sum terms combine).  By Theorems 3 and 4 the
    resulting diagram represents an (ordinarily / exactly) lumped
    version of the original CTMC.

    Quotient convention: as in flat lumping ({!Mdl_lumping.Quotient}),
    ordinary mode takes representative rows and class-summed columns;
    exact mode builds the aggregated form [R(C_i, C_j) / |C_i|], whose
    per-level factorisation is [sum over class-pair entries / |local
    class|] — a genuine rate matrix under exact lumpability. *)

type result = {
  lumped : Mdl_md.Md.t;  (** the lumped diagram *)
  partitions : Mdl_partition.Partition.t array;
      (** [partitions.(l-1)] partitions the original [S_l]; its class
          ids are the index set of level [l] of [lumped] *)
}
(** When no level lumps anything (every partition is the identity),
    [lumped] {e aliases} the input diagram — same store, same root —
    rather than holding a node-by-node copy.  Nodes are immutable, so
    this is observable only through physical equality and shared
    [add_node] effects on the store. *)

val lump :
  ?eps:float ->
  ?key:Local_key.choice ->
  ?stats:Mdl_partition.Refiner.stats ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  result
(** Run the full algorithm: per-level initial partitions from the
    decomposed [rewards] (ordinary — every listed reward function is
    protected and remains computable on the lumped chain) or [initial]
    (exact), per-level fixed-point refinement, then rebuild.

    Every level refines through a splitter-key cache ({!Key_cache}) and
    the ranked pipeline ({!Level_lumping.comp_lumping_level}): per-node
    column walks are memoised across fixed-point passes, key
    accumulation skips singleton classes, the gid table is shared
    across all levels, and the rebuild reuses nodes of identity levels
    verbatim (aliasing the whole diagram when nothing lumps).  The run
    is one point of a throwaway {!sweep} engine — the same per-point
    code as {!sweep_point}, with a plain (non-persistent) cache and
    empty memos.  Pass [cache] to share one cache (and its hot gid
    table) across several lump calls — e.g. a bench sweep; the cache is
    (re)bound to [md] at the start of the run, which discards its
    memoised rows (a persistent cache keeps its content-keyed store)
    but keeps the interned-key storage.  The oracle library's reference
    lumper recomputes the same partitions and an [Md.equal] diagram
    with none of this machinery (pinned by the differential property
    tests and by [bin/fuzz]).

    [pool] runs the pipeline data-parallel on a {!Mdl_util.Domain_pool}:
    levels refine concurrently (each level runs the untouched sequential
    fixed point on its own domain, over its own {!Key_cache.fork});
    within a level, large splitter-key misses shard their member walk
    ({!Local_key.eval_keys}) and large ranked passes shard their class
    lookups; and the incremental rebuild computes quotient node rows in
    parallel, committing them to the store in node order.
    [par_threshold] (default [1024]) is the minimum work-item count
    (splitter-class members, quotient rows per level) below which a loop
    stays inline.  {b Determinism:} every sharded loop either merges its
    results in index order or writes placement-independent slots, so the
    partitions, the lumped diagram (bit-identical, [Md.equal]), the
    splitter-pass counts and all counters are the same at {e any} domain
    count, pool or no pool — pinned by the differential concurrency
    suite.  When tracing is enabled ({!Mdl_obs.Trace}), levels run
    sequentially, because a {!Mdl_obs.Trace.Ctx.t} is single-owner and
    the level spans must nest in it; intra-level sharding stays on.

    Observability: each level's refinement counters and wall time are
    logged on the [mdl.lump] source at debug level; pass [stats] to
    additionally accumulate the {!Mdl_partition.Refiner.stats} of every
    level into one record (the [--stats] flag of [bin/lumpmd] does
    this), including the cache hit/miss and node reuse counters.
    Spans record into the calling thread's current
    {!Mdl_obs.Trace.Ctx.t}; [lumpd] isolates concurrently traced
    requests by installing one per request with
    {!Mdl_obs.Trace.with_ctx}. *)

val lump_with_partitions :
  ?stats:Mdl_partition.Refiner.stats ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  Mdl_partition.Partition.t array ->
  result
(** Rebuild only, with externally supplied per-level partitions (assumed
    locally lumpable — used by tests and by callers that compute
    partitions separately).  Levels whose partition is the identity
    ([class_of s = s] for all [s]) are imported node-for-node
    ({!Mdl_md.Md.import_node}); when {e every} level is the identity the
    input diagram is aliased.  Other levels build each quotient node's
    rows directly in sorted order, bit-identical to a from-scratch
    [Md.add_node] rebuild (the oracle's reference lumper keeps that
    one).  [stats] receives the [nodes_rebuilt]/[nodes_reused] counters.
    [pool] parallelises the incremental path's per-node quotient row
    builds when a level has at least [par_threshold] class-indexed rows
    to produce (default [1024], counted as nodes x classes); commits to
    the store stay sequential in node order, so the result is
    bit-identical at any domain count.
    @raise Invalid_argument on partition count/size mismatch. *)

(** {1 Batched sweeps}

    The paper's headline use case (§6) lumps {e one} structural model
    repeatedly under varying measures; almost all splitter-key column
    walks recur between nearby points.  A {!sweep} is a stateful engine
    over one diagram that keeps three warm stores across points: the
    cache's cross-bind row store ({!Key_cache.set_persistent} — rows
    keyed by class {e content}, reused wherever a later point produces
    the same member sequence), a per-level fixed-point memo (identical
    initial-partition layouts skip refinement entirely), and a rebuild
    memo (identical partition tuples alias the previously built lumped
    diagram).  Results are bit-identical ([Md.equal], equal partitions)
    to an independent {!lump} per point — every reuse path replays only
    work whose inputs match exactly — pinned by the differential
    property suite. *)

type sweep
(** A sweep engine bound to one diagram, mode and configuration. *)

type sweep_spec = {
  sweep_rewards : Decomposed.t list;  (** rewards of this point (ordinary mode) *)
  sweep_initial : Decomposed.t;  (** initial distribution (exact mode) *)
}
(** One sweep point: the [rewards]/[initial] pair {!lump} takes. *)

type sweep_stats = {
  points : int;  (** points run so far *)
  level_fixpoints : int;  (** per-level fixed points actually refined *)
  level_reused : int;  (** level results served from the fixed-point memo *)
  rebuilds : int;  (** quotient rebuilds actually performed *)
  rebuilds_reused : int;  (** lumped diagrams aliased from the rebuild memo *)
  cross_bind_hits : int;
      (** splitter-row lookups answered across points by the cache's
          persistent store (see {!Key_cache.cross_bind_hits}) *)
}

val sweep_create :
  ?eps:float ->
  ?key:Local_key.choice ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  sweep
(** An engine over [md].  [cache] (default: a fresh one) is switched to
    persistent mode and bound to [md] with the engine's configuration —
    which records [(eps, key, mode)] in the cache, so sharing it with a
    differently-configured run raises [Invalid_argument].  [pool] and
    [par_threshold] parallelise each point exactly as in {!lump}
    (memo-missing levels refine concurrently on cache forks; forks
    publish to the shared store, so their work persists). *)

val sweep_point :
  ?stats:Mdl_partition.Refiner.stats ->
  sweep ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  result
(** Lump the engine's diagram for one point.  Equals
    [lump mode md ~rewards ~initial] (same partitions, [Md.equal]
    lumped diagram — the memo paths only replay exact-input matches),
    but amortises: the cache rebind is an epoch bump, level fixed
    points and the rebuild are memoised, and splitter rows recur via
    the content-keyed store.  [stats] accumulates refiner counters of
    the levels that actually ran (memo hits contribute nothing).
    Observability: a [sweep.point] span when tracing (levels then
    refine sequentially, as in {!lump}), a [sweep.point_seconds]
    histogram and [sweep.*] counters when metrics are on. *)

val sweep_stats : sweep -> sweep_stats
(** Cumulative reuse counters of this engine ([cross_bind_hits] as a
    delta since engine creation, so a pre-warmed shared cache does not
    inflate it). *)

val sweep_cache : sweep -> Key_cache.t
(** The engine's cache — e.g. to inspect {!Key_cache.store_size}. *)

val lump_sweep :
  ?eps:float ->
  ?key:Local_key.choice ->
  ?stats:Mdl_partition.Refiner.stats ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  points:sweep_spec list ->
  result list
(** [lump_sweep mode md ~points] runs every point through one fresh
    engine, in order — the batched equivalent of mapping {!lump} over
    [points], bit-identical to it and typically several times faster
    per point once warm (see the [sweeps] section of BENCH_refine.json
    and [lumpmd sweep]). *)

val class_tuple : result -> int array -> int array
(** Map a global state to its class tuple (the corresponding state of
    the lumped diagram). *)

val class_volume : result -> int array -> int
(** [class_volume r ct] is [prod_l |C_l|] — the number of original
    states in the global class with class tuple [ct]. *)

val lump_statespace : result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t
(** Image of a reachable state space under {!class_tuple}. *)

val is_closed : result -> Mdl_md.Statespace.t -> bool
(** Whether the reachable state space is a union of global equivalence
    classes (every class is fully reachable or fully unreachable).
    Closure is what makes the quotient of the {e reachable} chain
    well-defined; symmetric models satisfy it by construction. *)

val aggregate_vector :
  result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [aggregate_vector r ss lumped_ss v] sums [v] over each class —
    probability aggregation.  @raise Invalid_argument on size or level
    mismatches, or when [lumped_ss] contains out-of-range class ids. *)

val average_vector :
  result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** Class-averaged vector — Theorem 2's lumped rewards
    [r~(i) = r(C_i)/|C_i|].
    @raise Invalid_argument as {!aggregate_vector}, and additionally
    when some state of [lumped_ss] receives {e no} state of [ss] (its
    average is undefined; silently returning [nan] would poison
    downstream measures). *)

val lumped_rewards : result -> Decomposed.t -> Decomposed.t
(** Carry a decomposed reward function to the lumped diagram by class
    representatives (valid in ordinary mode, where factors are
    class-constant by construction of [P_l^ini]). *)

val lumped_initial : result -> Decomposed.t -> Decomposed.t
(** Same for a decomposed initial distribution (exact mode). *)
