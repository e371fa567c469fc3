(** The key functions [K] of Section 4, computed on a single MD node,
    and the level key the lumper refines by: the tuple of every live
    node's key at once (see {!level_keys}).

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
    would depend on state order.  Instead, {!splitter_keys} (like
    {!level_keys}) quantizes
    every coefficient (matrix entry) {e at emission} onto the one
    lumping grid ({!Mdl_util.Floatx.quantize} at
    {!Mdl_util.Floatx.default_eps}) and re-canonicalises (coefficients
    that quantize to zero drop out, a key that quantizes to the empty
    sum is not emitted at all, matching the implicit zero key of
    untouched states).  On such canonical keys the exact structural
    order {!compare_exact} agrees with lumping-key equality, and so do
    the bit-level equality and hash the intern tables use, which is
    what makes interning keys to integer ids ({!level_keys}) sound: two
    keys intern to the same id iff {!compare_exact} calls them
    equal. *)

type choice = Formal_sums | Expanded_matrices

type t
(** A key value: either a formal sum or an expanded matrix. *)

val compare_exact : t -> t -> int
(** Exact structural total order ([Float.compare] on coefficients).  On
    quantized keys, [compare_exact a b = 0] iff [a] and [b] are equal
    as lumping keys — the comparator to use in refinement specs fed by
    {!splitter_keys}. *)

type context
(** Memoisation over one diagram: the expanded-matrix flattening memo
    and the column transposes of the nodes walked in ordinary mode by
    {!splitter_keys}.  Single-owner: {!Key_cache} keeps one per level,
    so parallel level tasks never share one. *)

val make_context : Mdl_md.Md.t -> context

val node_cols : context -> Mdl_md.Md.node_id -> (int * Mdl_md.Formal_sum.t) array array
(** The node's column table, the transpose of {!Mdl_md.Md.node_rows}:
    column [c] holds its entries [(r, sum)] in ascending row order.
    Built on first use and kept in the context; the caller must not
    mutate it. *)

val splitter_keys :
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
    nonzero after quantization, with all float content quantized onto
    the {!Mdl_util.Floatx.default_eps} grid.  Ordinary mode sums the
    entries of columns [C] per row; exact mode sums the entries of rows
    [C] per column.

    [skip] (default: skip nothing) suppresses key accumulation for
    states it holds on, before any formal-sum work is done for them.
    Intended for states alone in their class: a singleton class can
    never split again, and the refinement engine treats an unlisted
    state exactly like a listed one whose key group covers its whole
    class — so skipping singletons changes no split decision, no
    splitter-pass count, only the per-pass key evaluation work (it does
    reduce the [key_evals] counter, which counts emitted pairs). *)

(** {2 The level key}

    The lumper refines a level once, against all its live nodes
    together: a state's key with respect to a splitter class [C] is the
    tuple [(K(n_1, s, C), ..., K(n_k, s, C))] over the level's live
    nodes [n_1 .. n_k], where a node that does not touch [s] contributes
    the zero key.  Tuple keys add componentwise over disjoint splitters,
    so the refinement engine's process-all-but-the-largest rule stays
    sound, and a partition is stable for tuple keys iff it is stable for
    every node's key on its own. *)

type lines
(** One level's live nodes compiled for key evaluation: each node's
    lines (columns in ordinary mode, rows in exact mode) in flat arrays,
    every term carrying its child's dense slot, the child's rank among
    that node's children by ascending id.  Immutable; valid for the
    diagram it was compiled from. *)

val compile : Mdl_md.Md.t -> Mdl_lumping.State_lumping.mode -> level:int -> lines
(** [compile md mode ~level] reads {!Mdl_md.Md.node_rows} of every live
    node of [level] once. *)

type accumulator
(** A level's reusable scratch — the dense accumulator, one float per
    (touched state, child of the node being walked) — and the intern
    tables of its keys, which are never cleared.  Single-owner. *)

val accumulator : unit -> accumulator

val interned : accumulator -> int
(** Distinct level keys interned so far (never shrinks). *)

val level_keys :
  ?skip:(int -> bool) ->
  context ->
  choice ->
  lines ->
  accumulator ->
  Mdl_partition.Refiner.slice ->
  int array * int array
(** [level_keys ctx choice lines acc c] returns fresh parallel
    [(states, gids)] arrays: every state whose level key with respect
    to the splitter class [c] is nonzero, and that key's id in [acc]'s
    intern table.  Equal ids mean equal keys: two states get one id iff
    every node gives them keys {!compare_exact} calls equal.

    Each node's lines are summed over [c]'s members, in member order,
    into the dense accumulator ([slot +. c], bit for bit the fold of
    {!Mdl_md.Formal_sum.add} that the single-node {!splitter_keys}
    performs), then quantized at emission: a node whose sum quantizes
    to zero contributes nothing, and a state with no nonzero
    contribution is not listed.  With formal-sum keys the tuple is
    interned from the quantized slots' bits, and no
    {!Mdl_md.Formal_sum.t} is built; with expanded keys each node's sum
    is built and expanded as in {!splitter_keys}.  States
    are listed in the order of their first nonzero contribution (nodes
    in live order, each node's states in the order its walk first
    touches them).  [skip] as in {!splitter_keys}.  [ctx] must belong
    to the diagram [lines] was compiled from; it serves the expanded
    keys only. *)
