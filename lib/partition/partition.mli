(** Refinable partitions of [{0, .., n-1}].

    The central data structure of all lumping algorithms in this
    repository: a partition of a state space into equivalence classes,
    supporting class lookup in O(1) and in-place splitting of a class
    into groups.  Class ids are dense integers [0 .. num_classes-1];
    splitting reuses the split class's id for one sub-block and
    allocates fresh ids for the rest, so existing ids never dangle
    (they may shrink).

    Representation: all elements live in a single permutation array in
    which every class is a contiguous slice ([first]/[len] per class),
    with the inverse permutation kept alongside.  Splitting therefore
    moves only the elements being split off (a swap each),
    {!representative} is one array read, and {!view}/{!iter_class}
    expose class members with zero copying — the layout the refinement
    engine's O(m log n) bound relies on. *)

type t

val trivial : int -> t
(** [trivial n] is the one-class partition of [{0..n-1}] ([n >= 0]);
    with [n = 0] the partition has no class. *)

val discrete : int -> t
(** [discrete n] is the all-singletons partition. *)

val copy : t -> t
(** [copy t] is an independent partition with exactly the same classes,
    class ids {e and} internal member order as [t]: splitting the copy
    never affects the original (and vice versa), and representatives /
    slice layouts coincide until the first divergent split.  Unlike
    rebuilding through {!of_class_assignment} — which renumbers classes
    by first appearance and re-sorts the permutation — [copy] preserves
    identities, so a refinement run that splits nothing returns the
    input's classes, ids and member order unchanged. *)

val of_class_assignment : int array -> t
(** [of_class_assignment a] builds the partition where element [i]
    belongs to class [a.(i)].  Class labels may be arbitrary ints; they
    are renumbered densely in order of first appearance.
    @raise Invalid_argument on negative labels. *)

val group_by : int -> (int -> 'k) -> ('k -> 'k -> int) -> t
(** [group_by n key cmp] partitions [{0..n-1}] into classes of equal
    [key] (equality judged by [cmp] returning 0), the coarsest partition
    for which [key] is class-constant.  Used to build the initial
    partitions [P_ini] of the lumping algorithms.  [cmp] must be a total
    order — for tolerant float keys pass them through
    {!Mdl_util.Floatx.quantize} and compare exactly, not through the
    non-transitive [compare_approx]. *)

val size : t -> int
(** Number of elements [n]. *)

val num_classes : t -> int

val class_of : t -> int -> int
(** [class_of t x] is the id of the class containing element [x]. *)

val elements : t -> int -> int array
(** [elements t c] is a fresh array of the members of class [c] (in no
    particular order). @raise Invalid_argument for an invalid id. *)

val view : t -> int -> int array * int * int
(** [view t c] is [(perm, first, len)]: the members of class [c] are
    [perm.(first) .. perm.(first + len - 1)] — a zero-copy slice view of
    the partition's internal permutation.  The returned array must not
    be mutated, and the view is invalidated by the next {!split} /
    {!split_runs} touching any class. *)

val iter_class : (int -> unit) -> t -> int -> unit
(** [iter_class f t c] applies [f] to each member of class [c], without
    allocating. *)

val class_size : t -> int -> int

val representative : t -> int -> int
(** An arbitrary (but stable between splits) member of class [c]; O(1). *)

val split : t -> int -> int array list -> int list
(** [split t c groups] splits class [c] into the given groups, which
    must be a disjoint cover of [elements t c] with no empty group.
    Returns the class ids of the groups, in order ([c] first when more
    than one group; if [groups] has a single group this is a no-op
    returning [\[c\]]).  The general, fully validating entry point; the
    refinement engine uses {!split_runs}.
    @raise Invalid_argument if the groups do not exactly cover [c]. *)

val split_runs :
  t -> int -> members:int array -> bounds:int array -> nruns:int -> int list
(** [split_runs t c ~members ~bounds ~nruns] is the refiner's fast
    split: [members.(bounds.(r)) .. members.(bounds.(r+1) - 1)] for
    [r < nruns] are [nruns] disjoint, non-empty key-groups of members of
    [c] ([bounds.(0) = 0]); members of [c] not listed form an implicit
    extra group (the refiner's zero-key states).  Cost is
    O(listed members), independent of [|c|].  Returns the sub-block ids
    in slice order with [c] first; [c] is kept by the implicit group
    when it is non-empty (so unlisted members are not even relabelled),
    otherwise by the first run.  A no-op returning [\[c\]] when one run
    covers the whole class.
    @raise Invalid_argument on malformed bounds, elements outside [c],
    or duplicate members. *)

val refine_class_by : t -> int -> (int -> 'k) -> ('k -> 'k -> int) -> int list
(** [refine_class_by t c key cmp] splits class [c] into maximal groups
    of [cmp]-equal keys; convenience wrapper over {!split}. *)

val is_refinement_of : t -> t -> bool
(** [is_refinement_of fine coarse] — every class of [fine] is contained
    in a class of [coarse]. *)

val equal : t -> t -> bool
(** Same classes (regardless of numbering). *)

val to_class_assignment : t -> int array

val canonical_assignment : t -> int array
(** {!to_class_assignment} with class labels renumbered densely by
    first appearance: {!equal} partitions yield equal arrays whatever
    their internal numbering, so the array is a canonical key for the
    partition's {e class set} — the form the sweep engine's memo tables
    ({!Mdl_core.Compositional.sweep_create}) key on. *)

val classes : t -> int array array
(** All classes, indexed by class id (fresh arrays). *)

val pp : Format.formatter -> t -> unit
