(** The partition-refinement engine of Figure 1 (procedure
    [CompLumping]), parameterised by the key function [K].

    The engine refines an initial partition until every class is
    key-constant with respect to every class used as a splitter.  The
    key abstraction is exactly the paper's [K(R, s, C)] — "by choosing K
    appropriately, we can customize the algorithm to compute partitions
    that satisfy a set of desired conditions": flat ordinary lumping
    uses [R(s, C)], flat exact lumping uses [R(C, s)], and the MD-local
    variants use formal sums of [(coefficient, node)] pairs.

    Rather than computing [K] for every state of [S] (Figure 1 line 5),
    the engine asks only for the states with a key different from the
    zero key — for row/column-sum keys those are the (predecessor /
    successor) states of the splitter — and groups the remaining states
    of each class implicitly.

    The implementation is the in-place core of the optimal state-level
    algorithm of Derisavi, Hermanns & Sanders [9]: classes are
    contiguous slices of one permutation array ({!Partition}), a split
    moves only the touched states, and the worklist holds class ids
    driven by the {e process-all-but-the-largest-sub-block} rule — when
    a class not pending as a splitter is split, all sub-blocks except
    the largest join the worklist; when a pending splitter is split, all
    its sub-blocks stay pending.

    {b Key pipelines.}  The same core runs behind two key pipelines,
    chosen by the key type rather than by a flag:

    - the {b monomorphic float} pipeline ({!comp_lumping_float}) — flat
      row/column-sum keys written into reusable unboxed scratch buffers
      ({!float_buf}), quantized inline ({!Mdl_util.Floatx.quantize}) and
      sorted by a fused three-array merge: no list, no boxed float, no
      comparator closure.  The engine of flat chains
      ({!Mdl_lumping.State_lumping.coarsest});
    - the {b ranked} pipeline ({!comp_lumping_ranked}) — keys arrive
      already hash-consed to stable integer ids (the gids of
      {!Mdl_core.Key_cache}), are re-ranked per pass to dense integers
      by a stamped array lookup, and the (class, rank) pairs are
      counting-sorted in O(m + alphabet) when the rank alphabet is small
      relative to the pass ({!use_counting_sort}), comparison-sorted
      otherwise.  The engine of every matrix-diagram level.

    Both compute the coarsest stable refinement of the polymorphic
    ['k spec] they encode; the differential tests pin each against the
    list-based reference engine of the oracle library, which shares no
    code with this module.

    {b Key additivity.}  The largest-sub-block skip is sound only when
    keys are additive over disjoint unions of splitters,
    [K(s, B1 union B2) = K(s, B1) + K(s, B2)] (with [key_compare]
    respecting sums): stability against a parent block and all but one
    sub-block then implies stability against the remaining one.  Every
    key in this repository — row/column rate sums, formal sums, expanded
    matrices — is a sum over splitter members, so this holds by
    construction; a hypothetical non-additive key (e.g. a max) would
    need an exhaustive engine that re-splits against every sub-block. *)

val log_src : Logs.src
(** The engine's [Logs] source, [mdl.refine] — one per-run stats
    summary at debug level per refinement run.  Level setup is shared
    across binaries via [Mdl_obs.Logging.setup]. *)

type slice = int array * int * int
(** A zero-copy class view as returned by {!Partition.view}:
    [(perm, first, len)] — the members are
    [perm.(first) .. perm.(first + len - 1)].  Valid only for the
    duration of one [splitter_keys] call (the next split invalidates
    it); must not be mutated. *)

type 'k spec = {
  size : int;  (** number of states *)
  key_compare : 'k -> 'k -> int;
      (** total order on keys; [0] means equal.  Beware using tolerant
          float comparison here: {!Mdl_util.Floatx.compare_approx} is
          not transitive, so grouping with it depends on input order —
          quantize float keys ({!Mdl_util.Floatx.quantize}) and compare
          exactly instead.  States of a class are grouped by runs of
          equal keys. *)
  splitter_keys : slice -> (int * 'k) list;
      (** [splitter_keys c] lists [(s, K(s, C))] for every state [s]
          whose key w.r.t. splitter class [C] (given as a zero-copy
          {!slice} of its elements) is different from the zero key.
          States not listed are treated as sharing the common zero key.
          Must not list a state twice. *)
}

type stats = {
  mutable splitter_passes : int;  (** worklist pops (splitters processed) *)
  mutable key_evals : int;  (** (state, key) pairs returned by [splitter_keys] *)
  mutable splits : int;  (** classes actually split *)
  mutable blocks_created : int;  (** new class ids allocated by splits *)
  mutable largest_skips : int;
      (** splits whose largest sub-block was exempted from the worklist *)
  mutable counting_sort_passes : int;
      (** ranked passes that counting-sorted (vs the fused comparison
          sort); always [<= splitter_passes], and [0] for the float
          pipeline *)
  mutable intern_keys : int;
      (** largest per-pass rank alphabet (distinct keys) seen in any one
          ranked pass; [add_stats] takes the max, not the sum *)
  mutable cache_hits : int;
      (** splitter passes answered from the key cache — filled in by
          {!Mdl_core.Key_cache} users (the engine itself never caches) *)
  mutable cache_misses : int;
      (** splitter passes whose keys were freshly evaluated under a key
          cache — filled in by {!Mdl_core.Key_cache} users *)
  mutable nodes_rebuilt : int;
      (** lumped-diagram nodes reconstructed entry-by-entry during the
          rebuild — filled in by {!Mdl_core.Compositional} *)
  mutable nodes_reused : int;
      (** lumped-diagram nodes reused structurally (verbatim import or
          whole-diagram aliasing on identity partitions) — filled in by
          {!Mdl_core.Compositional} *)
  mutable wall_s : float;  (** monotonic wall time spent refining *)
}
(** Observability counters for one or more refinement runs.
    The [cache_*] / [nodes_*] counters belong to the layers above the
    engine (splitter-key memoisation, incremental diagram rebuild); they
    live here so one record travels through
    [Mdl_core.Compositional.lump] and out of [lumpmd --stats].

    This record is the {e per-run compatibility view} of the registry
    metrics: every refinement run also publishes the same counters
    cumulatively into [Mdl_obs.Metrics] under the [refiner.*] names
    (when the registry is enabled), plus per-pass latency histograms
    ([refiner.pass_seconds], [refiner.sort_seconds], [refiner.pass_keys])
    the record cannot express; with tracing on, each run emits a
    [refine.run] span containing one [refine.pass] span per worklist
    pop.  The differential suites pin the two views equal. *)

val create_stats : unit -> stats
(** A fresh all-zero counter record. *)

val add_stats : stats -> stats -> unit
(** [add_stats dst src] accumulates [src] into [dst] (counters add,
    wall times add, [intern_keys] takes the max). *)

val pp_stats : Format.formatter -> stats -> unit

type on_split = parent:int -> ids:int list -> unit
(** Split-trace callback: invoked once per actual split, {e after} the
    partition has been updated, with the id kept by the parent class and
    the full list of post-split sub-block ids ([parent] first, as
    returned by {!Partition.split_runs}).  The callback observes the
    refiner's working partition mid-run; it must not retain the slice
    views.  Used by {!Mdl_core.Key_cache} to account invalidations and
    by {!Mdl_core.Compositional} to know which classes the final
    partition owes to an actual split. *)

(** {2 Monomorphic float pipeline} *)

type float_buf
(** Reusable scratch holding the [(state, key)] pairs of one float-keyed
    splitter pass in parallel unboxed arrays. *)

val emit : float_buf -> int -> float -> unit
(** [emit buf s k] appends the pair [(s, k)] — the float-pipeline
    equivalent of consing onto a ['k spec]'s [splitter_keys] result.
    Keys are emitted {e raw}; the engine quantizes them inline. *)

type float_spec = {
  fsize : int;  (** number of states *)
  feps : float option;
      (** quantization tolerance applied inline to every emitted key
          ([None] = {!Mdl_util.Floatx.default_eps}) *)
  fsplitter_keys : slice -> float_buf -> unit;
      (** same contract as a ['k spec]'s [splitter_keys], emitting into
          the engine's scratch buffer instead of building a list *)
}

val comp_lumping_float :
  ?stats:stats ->
  ?on_split:on_split ->
  float_spec ->
  initial:Partition.t ->
  Partition.t
(** [comp_lumping_float fspec ~initial] returns the coarsest refinement
    of [initial] that is stable under [fspec.fsplitter_keys] splitting,
    grouping keys by their quantized value — the fixed point of the spec
    [{ key_compare = Float.compare on quantized keys; ... }].  The input
    partition is not mutated; the result is an id-preserving
    {!Partition.copy} refined in place, so when no split fires the
    output has the same class ids and member order as [initial].  When
    [stats] is given, the run's counters and wall time are {e added}
    onto it (so one record can aggregate several calls); [on_split]
    exports the split trace.  Termination: a class re-enters the
    worklist only when freshly created by a split, and partitions only
    ever get finer.
    @raise Invalid_argument if [initial] is not over [fspec.fsize]
    states. *)

(** {2 Ranked pipeline} *)

type ranked_spec = {
  rsize : int;  (** number of states *)
  rsplitter_keys : slice -> int array * int array;
      (** parallel (states, key ids) arrays for one splitter pass: keys
          already hash-consed to integers whose equality coincides with
          lumping-key equality (e.g. the stable gids of
          {!Mdl_core.Key_cache}).  The arrays are read within the pass
          only — the caller may reuse or share them. *)
}

val comp_lumping_ranked :
  ?stats:stats ->
  ?on_split:on_split ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  ranked_spec ->
  initial:Partition.t ->
  Partition.t
(** The refinement engine for producers whose keys are {e already}
    integers, with the same contract as {!comp_lumping_float}: per-pass
    dense ranks come from a stamped array lookup per pair, the pair
    arrays are blitted into the sort scratch, and each pass orders the
    (class, rank, state) triples by counting sort when
    {!use_counting_sort} says the alphabet is small enough, by fused
    integer comparison sort otherwise ([counting_sort_passes] and
    [intern_keys] report which).  This is the engine under the
    splitter-key cache, where a cache hit replays a previously interned
    row list.
    @raise Invalid_argument if [initial] is not over [rspec.rsize]
    states.

    [pool] shards the per-pass class lookups ([Partition.class_of] into
    disjoint scratch slots — pure reads, placement-independent writes)
    across the pool's domains when a pass has at least [par_threshold]
    pairs (default [8192]).  Rank assignment, sorting and the split
    scan stay sequential — ranks are first-appearance-ordered, which is
    exactly what makes the result independent of gid numbering — so the
    computed partition, split order and every counter are identical
    with or without a pool. *)

val use_counting_sort : m:int -> alphabet:int -> bool
(** The counting-sort threshold: true when a pass of [m] pairs over
    [alphabet] distinct key ranks is cheaper to counting-sort
    (O(m + alphabet), two stable scatter passes plus bucket resets) than
    to comparison-sort (O(m log m)).  Requires keys to actually repeat
    ([2 * alphabet <= m]) and the pass not to be tiny ([m >= 16]).
    Exposed for the threshold-selection unit tests. *)

val is_stable : 'k spec -> Partition.t -> bool
(** [is_stable spec p] checks directly that every class of [p] is
    key-constant w.r.t. every class of [p] as splitter — the
    post-condition of both pipelines, used by tests. *)
