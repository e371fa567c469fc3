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
  ?key:Local_key.choice ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  result
(** Run the full algorithm: per-level initial partitions from the
    decomposed [rewards] (ordinary — every listed reward function is
    protected and remains computable on the lumped chain) or [initial]
    (exact), per-level refinement, then rebuild.

    Every level refines in one run of the ranked pipeline
    ({!Level_lumping.comp_lumping_level}) whose splitter step evaluates
    all the level's live nodes at once through the level's record of a
    splitter-key cache ({!Key_cache}): keys are summed in a reusable
    dense accumulator and interned into the record's tables, key
    accumulation skips singleton classes, and the rebuild folds each
    quotient row into a class-indexed slot table and reuses nodes of
    identity levels verbatim (aliasing the whole diagram when nothing
    lumps).  The run is one point of a throwaway {!sweep} engine — the
    same per-point code as {!sweep_point}, with empty memos.  Pass
    [cache] to share one
    cache (its compiled lines and hot intern tables) across several lump
    calls — e.g. a bench sweep; the cache is (re)bound to [md] under
    [key] and [mode] at the start of the run, and raises
    [Invalid_argument] if it was first bound under another key choice
    or mode.  Float keys and initial-partition factors are compared on
    the one grid {!Mdl_util.Floatx.default_eps}.  The oracle library's
    reference lumper recomputes the same partitions and an [Md.equal]
    diagram with none of this machinery, by Figure 3(a)'s per-node
    fixed point (pinned by the differential property tests and by
    [bin/fuzz]).

    [pool] refines the levels concurrently on a {!Mdl_util.Domain_pool}:
    the level is the only parallel unit.  Each level runs the untouched
    sequential refinement on its own domain over the one cache, writing
    only its own {!Key_cache.level} record, so level tasks share nothing
    mutable; nothing inside a level shards, and the rebuild runs on the
    calling domain.  {b Determinism:} level results are merged in level
    order, so the partitions, the lumped diagram (bit-identical,
    [Md.equal]), the splitter-pass counts and all counters are the same
    at {e any} domain count, pool or no pool — pinned by the
    differential concurrency suite.  When tracing is enabled
    ({!Mdl_obs.Trace}), levels run sequentially, because a
    {!Mdl_obs.Trace.Ctx.t} is single-owner and the level spans must nest
    in it.

    Observability: each level's class counts are logged on the
    [mdl.lump] source at debug level.  The run's counts go to the
    {!Mdl_obs.Metrics} registry while it is enabled: [lump.runs], the
    [refiner.*] and [level.*] counts and [key_cache.*] observations of
    every level that refines, and [rebuild.nodes_rebuilt] / [rebuild.nodes_reused] for
    each node of the rebuild ([bin/lumpmd --stats] prints them).
    Spans record into the calling thread's current
    {!Mdl_obs.Trace.Ctx.t}; [lumpd] isolates concurrently traced
    requests by installing one per request with
    {!Mdl_obs.Trace.with_ctx}. *)

val lump_with_partitions :
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
    rows directly in sorted order, one class at a time: class [C_i]'s
    row folds its contributing rows (the representative's in ordinary
    mode; every member's, each term scaled by [1/|C_i|], in exact mode)
    into one float slot per (touched class, output child) — no
    formal-sum arithmetic — so a level's scratch is linear in its class
    count.  The result is bit-identical to a from-scratch [Md.add_node]
    rebuild (the oracle's reference lumper keeps that one).  Each node
    counts once in the registry, as [rebuild.nodes_rebuilt] or
    [rebuild.nodes_reused] (an aliased diagram counts all its live nodes
    as reused).
    @raise Invalid_argument on partition count/size mismatch. *)

(** {1 Batched sweeps}

    The paper's headline use case (§6) lumps {e one} structural model
    repeatedly under varying measures; most levels see the same
    initial partition at nearby points.  A {!sweep} is a stateful engine
    over one diagram that keeps two memos warm across points: a
    per-level fixed-point memo (identical initial-partition layouts
    skip refinement entirely) and a rebuild memo (identical partition
    tuples alias the previously built lumped diagram).  Its cache keeps
    each level's compiled lines and intern tables across points.  A
    point that misses both memos is exactly an independent {!lump}: the
    same refinement runs, the same counts.  Results are bit-identical
    ([Md.equal], equal partitions) to an independent {!lump} per point —
    every memo replays only work whose inputs match exactly — pinned by
    the differential property suite.  Both memos grow with every
    distinct point and are never trimmed. *)

type sweep
(** A sweep engine bound to one diagram and lumping mode. *)

type sweep_stats = {
  points : int;  (** points run so far *)
  level_fixpoints : int;  (** per-level fixed points actually refined *)
  level_reused : int;  (** level results served from the fixed-point memo *)
  rebuilds : int;  (** quotient rebuilds actually performed *)
  rebuilds_reused : int;  (** lumped diagrams aliased from the rebuild memo *)
}

val sweep_create :
  ?pool:Mdl_util.Domain_pool.t ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  sweep
(** An engine over [md] with the paper's key choice
    ({!Local_key.Formal_sums}) and a fresh cache of its own.  [pool]
    parallelises each point exactly as in {!lump} (memo-missing levels
    refine concurrently, each on its own record of the engine's
    cache).  Mapping {!sweep_point} over a list of
    points is the batched equivalent of mapping {!lump} over it:
    bit-identical, and typically several times faster per point once
    warm (see the [sweeps] section of BENCH_refine.json and [lumpmd
    sweep]). *)

val sweep_point :
  sweep ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  result
(** Lump the engine's diagram for one point.  Equals
    [lump mode md ~rewards ~initial] (same partitions, [Md.equal]
    lumped diagram — the memo paths only replay exact-input matches),
    but amortises: the cache rebind keeps the compiled lines and intern
    tables, and level fixed points and the rebuild are memoised.  Only
    the levels that actually refine, and a rebuild that actually runs,
    add [refiner.*] and [rebuild.*] counts and [key_cache.*]
    observations — exactly what an independent {!lump} adds for them;
    memo hits add none.
    Observability: a
    [sweep.point] span when tracing (levels then refine sequentially,
    as in {!lump}), a [sweep.point_seconds] histogram and [sweep.*]
    counters when metrics are on. *)

val sweep_stats : sweep -> sweep_stats
(** Cumulative reuse counters of this engine.  [lumpd] reports these
    for each warm model; the registry's [sweep.*] counters are their sum
    over every engine in the process. *)

val sweep_cache : sweep -> Key_cache.t
(** The engine's cache — e.g. to inspect {!Key_cache.gid_count}. *)

val class_tuple : result -> int array -> int array
(** Map a global state to its class tuple (the corresponding state of
    the lumped diagram). *)

val class_volume : result -> int array -> int
(** [class_volume r ct] is [prod_l |C_l|] — the number of original
    states in the global class with class tuple [ct]. *)

val lump_statespace : result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t
(** Image of a reachable state space under {!class_tuple}, numbered
    lexicographically like any state space.  Built node by node by
    {!Mdl_md.Statespace.relabel} with the per-level class maps; no
    unlumped state is enumerated.
    @raise Invalid_argument if [ss] and [r] differ in their number of
    levels. *)

val is_closed : result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t -> bool
(** [is_closed r ss lumped_ss], with [lumped_ss] = {!lump_statespace}
    [r ss] (the image the caller already holds), is whether the
    reachable state space is a union of global equivalence classes
    (every class is fully reachable or fully unreachable).  Closure is
    what makes the quotient of the {e reachable} chain well-defined;
    symmetric models satisfy it by construction.  Read off the lumped
    image: every reachable state lies in one class of it, and a class
    holds at most {!class_volume} reachable states, so the set is
    closed iff the volumes over the image add up to
    [Statespace.size ss].  The sum walks the lumped states only, and
    stops once it passes that size.
    @raise Invalid_argument if [ss] or [lumped_ss] and [r] differ in
    their number of levels. *)

val aggregate_vector :
  result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [aggregate_vector r ss lumped_ss v] sums [v] over each class —
    probability aggregation.  This is how an initial distribution
    carries to the lumped chain: under exact lumping a lumped state's
    initial probability is the sum over its class, not the probability
    of one representative.  @raise Invalid_argument on size or level
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
