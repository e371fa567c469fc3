(** Level restructuring of matrix diagrams.

    Section 3 of the paper reasons about MDs by {e merging adjacent
    levels} — bottom-up or top-down — to reduce an [L]-level diagram to
    three levels without changing the represented matrix.  This module
    implements that operation concretely.

    Besides mirroring the paper's formal device, merging is useful in
    its own right: the per-level lumping conditions (Definition 3) can
    only see symmetry {e within} one level, so two identical components
    assigned to {e different} levels never lump — the situation the
    paper defers to model-level lumping [10].  Merging their levels
    first moves the symmetry inside a single level, where the
    compositional algorithm finds it (at the price of a larger level
    index set). *)

val merge_adjacent : Md.t -> int -> Md.t
(** [merge_adjacent md l] merges levels [l] and [l+1] into a single
    level whose index set is [S_l x S_{l+1}] (row-major:
    [s_l * |S_{l+1}| + s_{l+1}]); the result has [L-1] levels and
    represents the same matrix.  {!Statespace.merge_levels} carries a
    reachable state space across the same merge.
    @raise Invalid_argument unless [1 <= l < L]. *)
