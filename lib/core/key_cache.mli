(** The per-level state of splitter-key evaluation for
    {!Compositional.lump} and the sweep engine
    ({!Compositional.sweep_create}).

    A level is refined by one run of
    {!Mdl_partition.Refiner.comp_lumping_ranked}, and each member set is
    popped as a splitter at most once per run, so within a run there is
    nothing to memoise: every lookup evaluates.  What a cache keeps is
    what outlives a splitter step.

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
      diagram.

    Gids are only ever compared within one pass, so per-level tables
    answer every lookup exactly as one shared table would.  Level tasks
    running concurrently on a domain pool therefore share nothing
    mutable: each writes only its own record, and the engine-level state
    (bound diagram, recorded configuration) is written only by {!bind},
    before any level task starts.  Every table is a plain single-owner
    hash table.

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

    {b Metrics.}  While the {!Mdl_obs.Metrics} registry is enabled,
    every lookup feeds the [key_cache.eval_seconds] and
    [key_cache.eval_rows] histograms.  Their count equals
    [refiner.splitter_passes]: one lookup per pass. *)

type t

val create : unit -> t
(** A fresh, unbound cache with no level records and no recorded
    configuration. *)

val bind :
  choice:Local_key.choice ->
  mode:Mdl_lumping.State_lumping.mode ->
  t ->
  Mdl_md.Md.t ->
  unit
(** [bind ~choice ~mode t md] prepares [t] for one lumping run over
    [md] under key [choice] and lumping [mode].  Binding the diagram
    already bound keeps everything (compiled lines, contexts); binding a
    different diagram drops the compiled lines and the contexts.
    Binding a diagram deeper than any before allocates the missing
    {!level} records.  The records and their intern tables always
    survive.

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
    lines and {!Local_key.context} (see the module header). *)

val for_level : t -> int -> level
(** [for_level t l] is the record of the bound diagram's level [l], for
    the lookups of one level's refinement run to share.
    @raise Invalid_argument when the cache is unbound or [l] is out of
    range. *)

val gid_count : t -> int
(** Distinct level keys interned so far, summed over the level records'
    intern tables.  The tables survive {!bind} and are never cleared,
    so the count never shrinks. *)

val store_size : t -> int
(** Always [0]: the cache stores no rows.  Kept for callers that
    report the size of the row store earlier versions kept. *)

val splitter_keys :
  ?skip:(int -> bool) ->
  level ->
  Mdl_partition.Refiner.slice ->
  int array * int array
(** The level keys of one splitter step ({!Local_key.level_keys} under
    the key choice and mode recorded at {!bind}, with [skip] as there):
    parallel [(states, gids)] arrays, the shape
    {!Mdl_partition.Refiner.comp_lumping_ranked} consumes.  Every lookup
    evaluates; the arrays are fresh. *)
