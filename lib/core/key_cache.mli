(** Memoisation of splitter-key evaluation across the refinement passes
    of {!Compositional.lump} — and, in {e persistent} mode, across the
    points of a whole parameter sweep ({!Compositional.lump_sweep}).

    The fixed-point iteration of [CompLumpingLevel] (Figure 3(a))
    re-walks every live node's rows once per splitter class {e per
    pass}; after the first pass most classes are unchanged, so most of
    those column walks recompute the very rows the previous pass
    already produced.  A [Key_cache.t] memoises each
    {!Local_key.splitter_keys} result — the [(state, K(node, s, C))]
    list of one node/splitter-class pair — and carries shared resources
    with it:

    - a {e global} {!Mdl_util.Gid_table} hash-consing key values to
      stable small integers (gids), shared across {e all} levels of a
      lump run (including levels refining concurrently on a domain
      pool — the table's read path is lock-free) and across models of a
      bench sweep (it is never cleared, so its contents persist across
      {!bind}s).  Cached rows store [(state, gid)] pairs, so a cache hit
      involves no structural key hashing or equality at all — each
      distinct key pays for hashing once, at miss time.  The per-pass
      dense ranks the counting sort needs are recovered from gids by
      the ranked refinement pipeline
      ({!Mdl_partition.Refiner.comp_lumping_ranked});
    - the {!Local_key.context} (expanded-matrix flattening memo), kept
      for as long as the cache stays bound to the same diagram;
    - in persistent mode, a second intern table (splitter-class member
      sequences to {e content signatures}) and a domain-safe
      {!Mdl_util.Shard_map} of full row lists keyed by
      [(node, signature)] — the cross-bind tier described below.

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
    stale entries become unreachable rather than wrong.  The engine's
    split trace ({!Mdl_partition.Refiner.on_split}, wired to
    {!note_split}) is surfaced as the {!invalidations} counter so the
    churn is observable.

    {b Cross-bind persistence (sweep mode).}  The (member, size)
    identity says nothing across binds — a later run's partitions may
    give the same pair a different member set — which is why a plain
    cache wipes its rows at every {!bind}.  With {!set_persistent} the
    cache instead keeps a second, content-keyed tier: every tier-1 entry
    is stamped with the bind {e epoch}, a same-diagram rebind is a
    cheap epoch bump (stale stamps stop matching), and a lookup that
    misses tier 1 interns the splitter class's {e member sequence} (the
    slice in walk order) to a signature and consults the shared
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
    the sweep engine's amortisation comes from.  Binding a {e different}
    diagram clears the store (node ids restart per diagram, so keys
    could collide); the two intern tables survive everything.

    {b Checked contract.}  Callers must {!bind} before lookup and
    re-{!bind} whenever a new (or restarted) refinement over a diagram
    begins.  The remaining free parameters of a row — [eps], key
    [choice], lumping [mode] — are recorded on first use and every later
    {!bind} or {!splitter_keys} with different values raises
    [Invalid_argument] instead of silently serving rows computed under
    another configuration.  {!Compositional.lump} binds automatically
    (with its configuration) at the start of every run; sharing one
    cache across a sweep of models is then safe and keeps the intern
    table hot. *)

type t

val create : unit -> t
(** A fresh, unbound, non-persistent cache with empty intern tables and
    no recorded configuration. *)

val bind :
  ?eps:float ->
  ?choice:Local_key.choice ->
  ?mode:Mdl_lumping.State_lumping.mode ->
  t ->
  Mdl_md.Md.t ->
  unit
(** [bind t md] prepares [t] for one lumping run over [md].  Without
    persistence it discards all memoised rows (they are only sound
    within one monotone run); in persistent mode a same-diagram rebind
    just bumps the epoch and keeps the content-keyed store warm, while
    binding a different diagram additionally clears the store.  The
    intern tables' storage and the flattening context (when [md] is
    physically the diagram already bound) always survive.

    When both [choice] and [mode] are given, the configuration
    [(eps, choice, mode)] — [eps] defaulting to
    {!Mdl_util.Floatx.default_eps} — is recorded on first use and
    checked on every later one.
    @raise Invalid_argument on a configuration mismatch. *)

val bound_md : t -> Mdl_md.Md.t option
(** The diagram the cache is currently bound to, if any. *)

val context : t -> Local_key.context
(** The bound diagram's {!Local_key.context}.
    @raise Invalid_argument when the cache is unbound. *)

val fork : t -> t
(** A fresh single-domain view of this cache for one parallel level
    task: its own rows memo, flattening context and counters, over the
    {e same} shared state — gid table, signature table, persistent row
    store, recorded configuration, cross-bind counter.  Forks are what
    make level-parallel lumping safe — every mutable part of a cache
    except the (domain-safe) shared tables is then owned by exactly one
    domain — and they are observationally equivalent to sharing one
    cache, because row keys embed the node id (nodes belong to one
    level, so cross-level entries never collide) and hit/miss counts per
    level are unaffected.  A fork inherits the epoch and persistence
    flag, so rows it publishes to the store remain visible to the parent
    and to later sweep points after the fork is gone. *)

val set_pool : ?par_threshold:int -> t -> Mdl_util.Domain_pool.t option -> unit
(** Arm (or disarm, with [None]) intra-node miss sharding: subsequent
    cache misses evaluate their keys through {!Local_key.eval_keys}
    with this pool whenever the splitter class has at least
    [par_threshold] members (default 1024; clamped to >= 1).  Inherited
    by {!fork}s made afterwards.  Never changes results — see the
    determinism contract on {!Local_key.eval_keys}. *)

val set_persistent : t -> bool -> unit
(** Switch cross-bind persistence on or off.  Toggling (either way)
    discards the memoised rows and the content-keyed store: rows cached
    without persistence may have been computed with the singleton skip
    and must not become reachable across binds, and a stale store must
    not survive a disable/re-enable cycle.  A no-op when the flag
    already has the requested value.  Set it before the first run
    sharing the cache (the sweep engine does this at creation); forks
    inherit the current value. *)

val persistent : t -> bool
(** Whether cross-bind persistence is on. *)

val gid_count : t -> int
(** Distinct keys interned into the global gid table so far; the
    table survives {!bind} and is never cleared, so gids are stable
    across levels, runs and models. *)

val store_size : t -> int
(** Bindings currently in the persistent row store (0 unless
    {!set_persistent} is on and a sweep has run). *)

val epoch : t -> int
(** The current bind epoch (bumped by every {!bind}; tier-1 entries
    stamped with an older epoch are stale).  Exposed for tests and
    debugging. *)

val splitter_keys :
  ?eps:float ->
  ?skip:(int -> bool) ->
  t ->
  Local_key.choice ->
  Mdl_lumping.State_lumping.mode ->
  node:Mdl_md.Md.node_id ->
  Mdl_partition.Refiner.slice ->
  int array * int array
(** Memoising front-end to {!Local_key.splitter_keys}, with keys
    replaced by their gids in the global intern table: returns the
    cached parallel (states, gids) arrays — the shape
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
    full row lists (see the module header).
    @raise Invalid_argument when the cache is unbound, or on a
    configuration mismatch with the recorded [(eps, choice, mode)]. *)

val note_split : t -> parent:int -> ids:int list -> unit
(** Split-trace sink (wire as the engine's
    {!Mdl_partition.Refiner.on_split}): records that the classes [ids]
    now have fresh cache identities, incrementing {!invalidations} by
    the number of affected classes.  No entry needs to be removed — see
    the structural-invalidation note above. *)

val hits : t -> int
(** Lookups answered from the cache since {!create} (never reset);
    includes cross-bind store hits. *)

val misses : t -> int
(** Lookups that fell through to {!Local_key.splitter_keys}. *)

val cross_bind_hits : t -> int
(** Lookups answered by the persistent store against a row list born in
    an {e earlier} bind epoch — reuse across sweep points.  Shared with
    every {!fork} of this cache (one atomic counter), never reset. *)

val invalidations : t -> int
(** Classes whose cache identity was retired by a split, as reported
    through {!note_split}. *)
