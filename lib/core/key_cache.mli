(** The per-level state of splitter-key evaluation for
    {!Compositional.lump} — and, in {e persistent} mode, the reuse of
    splitter rows across the points of a whole parameter sweep (the
    sweep engine, {!Compositional.sweep_create}).

    A level is refined by one run of
    {!Mdl_partition.Refiner.comp_lumping_ranked}, and each member set is
    popped as a splitter at most once per run, so within a run there is
    nothing to memoise: every lookup of a plain cache evaluates.  What a
    cache keeps is what outlives a splitter step.

    {b One record per level.}  Everything a lookup writes lives in the
    {!level} record of its level, allocated by the first {!bind} to a
    diagram that deep and kept across later binds:

    - the level's {!Local_key.accumulator}: the dense scratch the keys
      are summed in, and the tables interning level keys to small
      integers (gids), never cleared, so their contents persist across
      {!bind}s and across the models of a bench sweep.  Rows are
      [(state, gid)] pairs; the per-pass dense ranks the counting sort
      needs are recovered from gids by the ranked refinement pipeline;
    - the level's live nodes compiled for key evaluation
      ({!Local_key.lines}), built by the first lookup after a bind to a
      new diagram and kept while the cache stays bound to it, so a
      sweep or a warm lumpd model compiles once per diagram;
    - the level's {!Local_key.context} (expanded-matrix flattening
      memo), kept for as long as the cache stays bound to the same
      diagram;
    - in persistent mode, the store of full row lists keyed by the
      splitter's member sequence — the cross-bind tier described below —
      with its count of cross-bind hits.

    Gids are only ever compared within one pass or one store entry, so
    per-level tables answer every lookup exactly as one shared table
    would.  Level tasks running concurrently on a domain pool therefore
    share nothing mutable: each writes only its own record, and the
    engine-level state (bound diagram, epoch, persistence, recorded
    configuration) is written only by {!bind} and {!set_persistent},
    before any level task starts.  Every table is a plain single-owner
    hash table.

    {b Cross-bind persistence (sweep mode).}  With {!set_persistent},
    every lookup first consults its level's store, keyed by the
    splitter class's {e member sequence} (the slice in walk order), and
    every evaluation is stored there, stamped with the bind {e epoch}.
    Keying by the sequence rather than the member set is what keeps
    reuse {e bit-identical} to re-evaluation: keys accumulate
    non-associative float sums in member order, so a row list is reused
    only where a fresh walk would traverse exactly the same order, and
    the content key needs no argument about which partitions a run
    passes through.  Store entries are full row lists — the singleton
    skip is disabled on persistent lookups, because a row list must be
    complete to serve under a different partition's singleton pattern
    (extra rows are harmless: a class of one can never split).  Hits
    against an entry born in an earlier epoch are counted as
    {!cross_bind_hits} ([key_cache.cross_bind_hits] in the metrics
    registry) — the number the sweep engine's amortisation comes from;
    it is the one count the cache also keeps itself, per level record.
    Binding a {e different} diagram clears the stores (their rows hold
    keys of the old diagram's nodes); the intern tables survive
    everything.

    {b Checked contract.}  Callers must {!bind} before lookup.  The
    free parameters of a row — key [choice] and lumping [mode] — are
    recorded by the first {!bind}, and every later {!bind} (or
    {!bound_md} query) under different values raises
    [Invalid_argument] instead of silently serving rows computed under
    another configuration.  Lookups take neither: {!splitter_keys}
    reads them from the cache.  Every key is quantized onto the one
    grid, {!Mdl_util.Floatx.default_eps}, so no tolerance is recorded.
    {!Compositional.lump} binds automatically (with its configuration)
    at the start of every run; sharing one cache across a sweep of
    models is then safe and keeps the intern tables hot.

    {b Counters.}  Every lookup counts into the {!Mdl_obs.Metrics}
    registry (while it is enabled) as [key_cache.hits] (a store hit) or
    [key_cache.misses] (an evaluation); store hits across binds also
    count as [key_cache.cross_bind_hits].  Evaluations feed the
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
    [md] under key [choice] and lumping [mode], and bumps the epoch.
    Binding the diagram already bound keeps everything (compiled lines,
    contexts, stores); binding a different diagram drops the compiled
    lines, the contexts and the stores.  Binding a diagram deeper than
    any before allocates the missing {!level} records.  The records and
    their intern tables always survive.

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
(** One level's record: its accumulator and intern tables, compiled
    lines, persistent store, {!Local_key.context} and cross-bind count
    (see the module header). *)

val for_level : t -> int -> level
(** [for_level t l] is the record of the bound diagram's level [l], for
    the lookups of one level's refinement run to share.
    @raise Invalid_argument when the cache is unbound or [l] is out of
    range. *)

val set_persistent : t -> bool -> unit
(** Switch cross-bind persistence on or off.  Toggling (either way)
    discards the stores, so a stale store cannot survive a
    disable/re-enable cycle.  A no-op when the flag already has the
    requested value.  Set it before the first run sharing the cache
    (the sweep engine does this at creation). *)

val persistent : t -> bool
(** Whether cross-bind persistence is on. *)

val gid_count : t -> int
(** Distinct level keys interned so far, summed over the level records'
    intern tables.  The tables survive {!bind} and are never cleared,
    so the count never shrinks. *)

val store_size : t -> int
(** Row lists currently in the persistent stores, summed over levels
    (0 unless {!set_persistent} is on and a sweep has run). *)

val epoch : t -> int
(** The current bind epoch (bumped by every {!bind}; a store entry born
    in an older epoch answers a cross-bind hit).  Exposed for tests and
    debugging. *)

val splitter_keys :
  ?skip:(int -> bool) ->
  level ->
  Mdl_partition.Refiner.slice ->
  int array * int array
(** The level keys of one splitter step ({!Local_key.level_keys} under
    the key choice and mode recorded at {!bind}): parallel
    [(states, gids)] arrays, the shape
    {!Mdl_partition.Refiner.comp_lumping_ranked} consumes.  A plain
    cache evaluates every lookup; a persistent one returns the stored
    arrays when the splitter's member sequence is in its level's store,
    and otherwise evaluates and stores.  The arrays may be owned by the
    cache: callers must not mutate them.  [skip] is applied only by
    plain caches (see the module header). *)

val cross_bind_hits : t -> int
(** Lookups answered by the persistent store against a row list born in
    an {e earlier} bind epoch — reuse across sweep points.  Summed over
    the level records; never reset. *)
