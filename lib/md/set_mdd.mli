(** Hash-consed set MDDs: sets of substate tuples with shared suffixes,
    supporting union and saturation to a reachable set — the data structure
    behind {e symbolic} state-space generation (the paper's MDs are
    generated "with the help of a symbolic state-space exploration";
    this module provides that substrate).

    A manager owns the node store; values of type {!t} are meaningful
    only relative to their manager.  The empty set and the full-suffix
    terminal are distinguished nodes, so equality of sets is pointer
    equality of ids — which is what makes fixpoint detection O(1). *)

type man

type t = private int
(** A set of [levels]-tuples (a node id within the manager). *)

val manager : levels:int -> man
(** @raise Invalid_argument if [levels < 1]. *)

val empty : man -> t

val is_empty : t -> bool

val singleton : man -> int array -> t
(** @raise Invalid_argument on wrong tuple length or negative substate. *)

val union : man -> t -> t -> t
(** Memoised; O(shared structure). *)

val equal : t -> t -> bool
(** Constant-time (hash-consing canonicity). *)

val count : man -> t -> int
(** Number of tuples in the set (memoised). *)

val num_nodes : man -> int
(** Total nodes allocated in the manager (diagnostics). *)

val saturation :
  man ->
  rels:(int -> int -> int array) array ->
  tops:int array ->
  bots:int array ->
  t ->
  t
(** [saturation m ~rels ~tops ~bots s] is the least fixpoint of [s]
    under all the event relations — the reachable set — computed with
    the {e saturation} strategy of Ciardo et al. (the paper's [5]): each
    node is saturated bottom-up, firing exhaustively the events whose
    {e top} (highest level the event touches; levels above it must be
    identity) equals the node's level, and every intermediate image node
    is saturated before use.  Orders of magnitude fewer peak nodes than
    breadth-first iteration on structured models.

    Only work whose result is new is done.  Each firing round fires the
    arcs of the node that the previous round's node did not have (the
    first round fires all of them): the image distributes over arcs and
    a union only grows children, so the images of unchanged arcs are
    already in the node.  And an event stops at its {e bottom} level
    [bots.(e)], the deepest level it touches: there the image of a
    child is the child itself, because children of saturated nodes are
    saturated and the event is identity beneath.

    [rels.(e) l u] holds the level-[l] successors of local state [u]
    under event [e]; an empty array disables [e] locally, and with it
    the whole transition (Kronecker semantics: the relation factorises
    per level).  It is consulted only for local states present in the
    set, never below the event's bottom level, and must be
    deterministic: results are cached.
    [tops.(e)] is event [e]'s top level (use [1] when unknown) and
    [bots.(e)] its bottom level (use the number of levels when unknown);
    the unknown values are sound, merely slower.
    @raise Invalid_argument if [rels], [tops] and [bots] differ in
    length, a top is out of range, or a bottom lies above its top or
    beyond the last level. *)

val to_statespace : man -> t -> Statespace.t
(** The set as an offset-indexed state space, converted node by node
    with {!Statespace.of_dag} (each set-MDD node once, no state
    enumerated); the states are numbered in lexicographic order.
    @raise Invalid_argument on the empty set. *)
