(** The key functions [K] of Section 4, computed on a single MD node.

    The paper discusses two choices for [K(R_n2, s2, C2)]:

    - {b Formal sums} — [{(r_{n2,n3}(s2, C2), n3) | n3 in N3}]: a set of
      (coefficient, child) pairs, compared structurally.  Cheap (local
      to the node), but only a {e sufficient} condition: two formal sums
      can denote equal matrices without being structurally equal.  This
      is the choice the paper's algorithm uses.

    - {b Expanded matrices} — the actual matrix
      [sum_{n3} r_{n2,n3}(s2, C2) * R_{n3}] of size up to
      [|S_3| x |S_3|]: sufficient {e and} necessary per level, but
      "prohibitively time-consuming" in general.  Implemented here for
      the coarseness/time ablation (experiment P3 of DESIGN.md).

    Keys are row sums over a splitter class for ordinary lumping and
    column sums for exact lumping (Definition 3 / Proposition 1).

    {b Quantization invariant.}  Tolerant float comparison
    ({!Mdl_util.Floatx.compare_approx}) is not transitive, so it must
    never decide how keys are grouped, sorted or interned — the classes
    would depend on state order.  Instead, {!splitter_keys} quantizes
    every coefficient (matrix entry) {e at emission} onto the
    [Floatx.quantize] grid and re-canonicalises (coefficients that
    quantize to zero drop out, a key that quantizes to the empty sum is
    not emitted at all, matching the implicit zero key of untouched
    states).  On such canonical keys the exact structural relations
    {!compare_exact} / {!equal} / {!hash} agree with lumping-key
    equality, which is what makes hash-consing keys to integer ids
    ({!Key_cache}) sound: two keys intern to the same id iff
    {!compare_exact} calls them equal. *)

type choice = Formal_sums | Expanded_matrices

type t
(** A key value: either a formal sum or an expanded matrix. *)

val quantize : ?eps:float -> t -> t
(** Quantize all float content onto the tolerance grid and
    re-canonicalise.  Keys returned by {!splitter_keys} are already
    quantized; the function is idempotent. *)

val compare_exact : t -> t -> int
(** Exact structural total order ([Float.compare] on coefficients).  On
    {!quantize}d keys, [compare_exact a b = 0] iff [a] and [b] are equal
    as lumping keys — the comparator to use in refinement specs fed by
    {!splitter_keys}. *)

val compare : ?eps:float -> t -> t -> int
(** [compare_exact] of the {!quantize}d operands — a transitive total
    order; [0] = equal as lumping keys.  (Kept for callers holding raw,
    un-quantized keys; on {!splitter_keys} output it coincides with
    {!compare_exact}.) *)

val equal : t -> t -> bool
(** Exact structural equality (bit-level floats); the interning equality.
    Agrees with [compare_exact _ _ = 0] on canonical keys: zero
    coefficients are never stored, and equal nonzero grid values are
    bit-identical. *)

val hash : t -> int
(** Consistent with {!equal}. *)

type context
(** Per-diagram memoisation (expanded-matrix flattening cache). *)

val make_context : Mdl_md.Md.t -> context

val eval_keys :
  ?eps:float ->
  ?skip:(int -> bool) ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  context ->
  choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.node_id ->
  Mdl_partition.Refiner.slice ->
  int array * t array
(** List-free core of {!splitter_keys}: the same [(s, key)] pairs as
    parallel [(states, keys)] arrays, in exactly the order the list
    version produces, with no intermediate list allocation.

    When [pool] is given (and the splitter class has at least
    [par_threshold] members, default [1024]), the member walk is
    sharded across the pool's domains: workers collect raw
    [(state, contribution)] pairs per contiguous member chunk, and the
    calling domain replays the accumulation chunk-by-chunk in member
    order.  Because the replay order equals the sequential walk order,
    the accumulated sums — float additions, which are not associative —
    and therefore the emitted keys are bit-identical to the sequential
    walk at any domain count.  Requires {!Mdl_md.Md.warm_col_cache} on
    the context's diagram first (ordinary mode reads columns from any
    domain). *)

val splitter_keys :
  ?eps:float ->
  ?skip:(int -> bool) ->
  context ->
  choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.node_id ->
  Mdl_partition.Refiner.slice ->
  (int * t) list
(** [splitter_keys ctx choice mode node c] lists [(s, K(node, s, C))]
    for every level-local state [s] whose key w.r.t. splitter class [C]
    (a zero-copy {!Mdl_partition.Refiner.slice} of its members) is
    nonzero after quantization, with all float content quantized by
    [eps] (default {!Mdl_util.Floatx.default_eps}).  Ordinary mode sums
    the entries of columns [C] per row; exact mode sums the entries of
    rows [C] per column.

    [skip] (default: skip nothing) suppresses key accumulation for
    states it holds on, before any formal-sum work is done for them.
    Intended for states alone in their class: a singleton class can
    never split again, and the refinement engine treats an unlisted
    state exactly like a listed one whose key group covers its whole
    class — so skipping singletons changes no split decision, no
    splitter-pass count, only the per-pass key evaluation work (it does
    reduce the [key_evals] counter, which counts emitted pairs). *)
