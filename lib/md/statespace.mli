(** Reachable global state spaces for matrix diagrams.

    An MD is defined over the potential product space
    [S_1 x .. x S_L]; the states actually reachable in a model are a
    subset of it.  This module stores that subset as a lexicographically
    sorted array of substate tuples: solution vectors are indexed by
    [0 .. size-1], and a tuple's index is found by binary search (the
    role played by the symbolic state space in the paper's Möbius
    implementation; {!Mdd} indexes the same set by path offsets). *)

type t

val of_tuples : levels:int -> int array list -> t
(** Build from a list of length-[levels] tuples by sorting them
    lexicographically and merging duplicates.  The kept tuples are
    copied, so the caller may reuse or mutate its arrays afterwards.
    @raise Invalid_argument on a tuple of the wrong length or an empty
    list. *)

val levels : t -> int

val size : t -> int

val index : t -> int array -> int option
(** Position of a tuple, if present: an [O(L log n)] binary search over
    the sorted tuples.  A tuple whose length is not [levels t] is never
    present. *)

val tuple : t -> int -> int array
(** The tuple at an index (do not mutate the returned array). *)

val iter : (int -> int array -> unit) -> t -> unit

val local_states : t -> int -> int list
(** [local_states t l] is the sorted set of level-[l] substates that
    occur in some state — the projection of the state space onto level
    [l] (used to size the per-level index sets). *)

val map : t -> (int array -> int array) -> t
(** [map t f] is the state space [{f s | s in t}] (e.g. the lumped state
    space obtained by mapping substates to class ids); duplicates
    collapse.  [f] may change the number of levels (e.g.
    {!Restructure.merge_tuple}-style maps); all images must
    have the same length.  Distinct images are gathered by hashing
    before the sort, so a map that collapses many states sorts only
    the few images. *)

val pp : Format.formatter -> t -> unit
