(** Memoisation of splitter-key evaluation across the refinement passes
    of {!Compositional.lump} — and, in {e persistent} mode, across the
    points of a whole parameter sweep (the sweep engine,
    {!Compositional.sweep_create}).

    The fixed-point iteration of [CompLumpingLevel] (Figure 3(a))
    re-walks every live node's rows once per splitter class {e per
    pass}; after the first pass most classes are unchanged, so most of
    those column walks recompute the very rows the previous pass
    already produced.  A [Key_cache.t] memoises each
    {!Local_key.splitter_keys} result — the [(state, K(node, s, C))]
    list of one node/splitter-class pair.

    {b One record per level.}  Everything a lookup writes lives in the
    {!level} record of the node's level, allocated by the first {!bind}
    to a diagram that deep and kept across later binds:

    - an intern table hash-consing key values to small integers (gids),
      never cleared, so its contents persist across {!bind}s and across
      the models of a bench sweep.  Cached rows store [(state, gid)]
      pairs, so a cache hit involves no structural key hashing or
      equality at all — each distinct key pays for hashing once, at
      miss time.  The per-pass dense ranks the counting sort needs are
      recovered from gids by the ranked refinement pipeline
      ({!Mdl_partition.Refiner.comp_lumping_ranked});
    - the rows memo (tier 1, below);
    - the level's {!Local_key.context} (expanded-matrix flattening memo
      and column transposes), kept for as long as the cache stays bound
      to the same diagram;
    - in persistent mode, a second intern table (splitter-class member
      sequences to {e content signatures}) and the store of full row
      lists keyed by [(node, signature)] — the cross-bind tier described
      below — with its count of cross-bind hits.

    A node belongs to exactly one level, the rows memo and the store key
    every entry by its node, and interned ids are only ever compared
    within one node's pass or store key, so per-level tables answer
    every lookup exactly as one shared table would; gids only ever
    become per-pass first-appearance ranks.
    Level tasks running concurrently on a domain pool therefore share
    nothing mutable: each writes only its own record, and the
    engine-level state (bound diagram, epoch, persistence, recorded
    configuration) is written only by {!bind} and {!set_persistent},
    before any level task starts.  Every table is a plain single-owner
    hash table.

    {b Cache identity and invalidation (per bind).}  A tier-1 entry is
    keyed by [(node, member, |C|)] — the node being walked, one member
    of the splitter class and the class size at evaluation time.
    Soundness rests on monotonicity: within one {!bind}, every
    refinement run on a node's level must start from a partition at
    least as coarse as it ends (which the [comp_lumping_level] fixed
    point guarantees — the per-level partition only ever gets finer, and
    {!Mdl_partition.Refiner} preserves class identities between runs by
    working on a {!Mdl_partition.Partition.copy}).  The classes
    containing a given member then form a descending chain, every actual
    split strictly shrinks each sub-block, so equal size means equal
    member set.  Invalidation is therefore {e structural}: a split
    changes the (member, size) identity of every affected class, and
    stale entries become unreachable rather than wrong, and the engine
    need not tell the cache about splits.  The churn still shows in the
    registry: a split retires the identities of all its sub-blocks, so
    [refiner.splits + refiner.blocks_created] counts them.

    {b Cross-bind persistence (sweep mode).}  The (member, size)
    identity says nothing across binds — a later run's partitions may
    give the same pair a different member set — which is why a plain
    cache wipes its rows at every {!bind}.  With {!set_persistent} the
    cache instead keeps a second, content-keyed tier: every tier-1 entry
    is stamped with the bind {e epoch}, a same-diagram rebind is a
    cheap epoch bump (stale stamps stop matching), and a lookup that
    misses tier 1 interns the splitter class's {e member sequence} (the
    slice in walk order) to a signature and consults its level's
    [(node, signature)] store.  Keying by the sequence rather than the
    member set is what keeps reuse {e bit-identical} to re-evaluation:
    {!Local_key.eval_keys} accumulates non-associative float sums in
    member order, so a row list is reused only where a fresh walk would
    traverse exactly the same order.  Store entries are full row lists —
    the singleton skip is disabled on persistent misses, because a row
    list must be complete to serve under a different partition's
    singleton pattern (extra rows are harmless: a class of one can never
    split).  Hits answered by the store against an entry born in an
    earlier epoch are counted as {!cross_bind_hits}
    ([key_cache.cross_bind_hits] in the metrics registry) — the number
    the sweep engine's amortisation comes from; it is the one count the
    cache also keeps itself, per level record.  Binding a {e different}
    diagram clears the stores (node ids restart per diagram, so keys
    could collide); the intern tables survive everything.

    {b Checked contract.}  Callers must {!bind} before lookup and
    re-{!bind} whenever a new (or restarted) refinement over a diagram
    begins.  The remaining free parameters of a row — key [choice] and
    lumping [mode] — are recorded by the first {!bind}, and every later
    {!bind} (or {!bound_md} query) under different values raises
    [Invalid_argument] instead of silently serving rows computed under
    another configuration.  Lookups take neither: {!splitter_keys} reads
    them from the cache.  Every key is quantized onto the one grid,
    {!Mdl_util.Floatx.default_eps}, so no tolerance is recorded.
    {!Compositional.lump} binds automatically (with its configuration)
    at the start of every run; sharing one cache across a sweep of
    models is then safe and keeps the intern tables hot.

    {b Counters.}  Every lookup counts into the {!Mdl_obs.Metrics}
    registry (while it is enabled) as [key_cache.hits] or
    [key_cache.misses]; store hits across binds also count as
    [key_cache.cross_bind_hits].  Misses feed the
    [key_cache.miss_seconds] and [key_cache.miss_rows] histograms. *)

type t

val create : unit -> t
(** A fresh, unbound, non-persistent cache with no level records and no
    recorded configuration. *)

val bind :
  choice:Local_key.choice ->
  mode:Mdl_lumping.State_lumping.mode ->
  t ->
  Mdl_md.Md.t ->
  unit
(** [bind ~choice ~mode t md] prepares [t] for one lumping run over
    [md] under key [choice] and lumping [mode].  Without
    persistence it discards all memoised rows (they are only sound
    within one monotone run); in persistent mode a same-diagram rebind
    just bumps the epoch and keeps the content-keyed stores warm, while
    binding a different diagram additionally clears the stores.  Binding
    a diagram deeper than any before allocates the missing {!level}
    records.  The records, their intern tables and the contexts (when
    [md] is physically the diagram already bound) always survive.

    The first bind records [(choice, mode)]; every later one checks it.
    @raise Invalid_argument on a configuration mismatch. *)

val bound_md :
  choice:Local_key.choice ->
  mode:Mdl_lumping.State_lumping.mode ->
  t ->
  Mdl_md.Md.t option
(** The diagram the cache is currently bound to, if any, for a run
    under [(choice, mode)].
    @raise Invalid_argument when the cache is bound under another
    configuration. *)

type level
(** One level's record: its intern tables, rows memo, persistent store,
    {!Local_key.context} and cross-bind count (see the module header). *)

val for_level : t -> int -> level
(** [for_level t l] is the record of the bound diagram's level [l], for
    the lookups of one level's refinement run to share.
    @raise Invalid_argument when the cache is unbound or [l] is out of
    range. *)

val set_persistent : t -> bool -> unit
(** Switch cross-bind persistence on or off.  Toggling (either way)
    discards the memoised rows and the content-keyed stores: rows cached
    without persistence may have been computed with the singleton skip
    and must not become reachable across binds, and a stale store must
    not survive a disable/re-enable cycle.  A no-op when the flag
    already has the requested value.  Set it before the first run
    sharing the cache (the sweep engine does this at creation). *)

val persistent : t -> bool
(** Whether cross-bind persistence is on. *)

val gid_count : t -> int
(** Distinct keys interned so far, summed over the level records' intern
    tables.  The tables survive {!bind} and are never cleared, so the
    count never shrinks.  With formal-sum keys on one diagram it equals
    the size one table shared by all levels would have: keys of
    different levels name different child nodes. *)

val store_size : t -> int
(** Bindings currently in the persistent row stores, summed over levels
    (0 unless {!set_persistent} is on and a sweep has run). *)

val epoch : t -> int
(** The current bind epoch (bumped by every {!bind}; tier-1 entries
    stamped with an older epoch are stale).  Exposed for tests and
    debugging. *)

val splitter_keys :
  ?skip:(int -> bool) ->
  level ->
  node:Mdl_md.Md.node_id ->
  Mdl_partition.Refiner.slice ->
  int array * int array
(** Memoising front-end to {!Local_key.splitter_keys} for a node of the
    record's level, under the key choice and mode recorded at {!bind},
    with keys replaced by their gids in the level's intern table:
    returns the cached parallel (states, gids) arrays — the shape
    {!Mdl_partition.Refiner.comp_lumping_ranked} consumes — when the
    splitter class's [(node, member, size)] identity has been evaluated
    in this bind epoch, or (persistent mode) when its [(node, member
    sequence)] content is in the cross-bind store, otherwise computes,
    interns, stores and returns them.  The arrays are owned by the
    cache: callers must not mutate them.  Gid equality coincides with
    {!Local_key.equal} (keys are quantized before interning), so ranking
    gids groups exactly the same states as ranking the keys themselves.
    A tier-1 hit may return a list computed under an earlier (coarser)
    partition of the same class — by monotonicity it is the same member
    set, and any states that have since become singletons are harmless
    extra rows (they can no longer split anything).  [skip] is applied
    only on non-persistent misses; persistent misses always evaluate
    full row lists (see the module header). *)

val cross_bind_hits : t -> int
(** Lookups answered by the persistent store against a row list born in
    an {e earlier} bind epoch — reuse across sweep points.  Summed over
    the level records; never reset. *)
