(** Reachable global state spaces for matrix diagrams.

    An MD is defined over the potential product space
    [S_1 x .. x S_L]; the states actually reachable in a model are a
    subset of it.  This module stores that subset as an
    {e offset-indexed MDD}: one shared node per distinct suffix set
    (the role played by the symbolic state space in the paper's Möbius
    implementation).  A node's arcs are sorted by local state, and each
    arc carries the number of states before it within its node, so
    states are numbered [0 .. size-1] in lexicographic order and a
    state's index is the sum of the offsets on its path: [O(L log k)]
    per lookup for nodes of at most [k] arcs, with no hashing.  No
    per-state array is kept; solution vectors are indexed by these
    numbers, and vector products co-walk an {!Md.t} with two cursors
    over the nodes ({!root}, {!iter_arcs}), pruning unreachable
    branches wholesale (see {!Md_vector}). *)

type t

type node = private int
(** A node at some level; the root is at level 1, the terminal below
    level [L].  Nodes are numbered [0 .. num_nodes t], [0] being the
    terminal, so a caller can keep per-node tables in arrays. *)

val of_tuples : levels:int -> int array list -> t
(** Build from a list of length-[levels] tuples by sorting them
    lexicographically, merging duplicates and sharing suffixes.  No
    tuple is kept, so the caller may reuse or mutate its arrays
    afterwards.
    @raise Invalid_argument on a tuple of the wrong length or an empty
    list. *)

val of_dag : levels:int -> (int -> (int * int) array) -> int -> t
(** [of_dag ~levels arcs root] is the set of root-to-terminal paths of a
    shared DAG of [levels] levels whose nodes are named by ints:
    [arcs n] lists node [n]'s [(local state, child)] arcs, sorted by
    local state without repeats, and the children of a level-[levels]
    node are the terminal (their names are never looked at).  Each node
    is converted once, however many paths reach it (so a name must
    denote one node), and no state is enumerated: this is how
    {!Set_mdd.to_statespace} turns a saturated set into a state space.
    @raise Invalid_argument on a node without arcs or with unsorted
    arcs. *)

val relabel : t -> (int -> int -> int) -> t
(** [relabel t f] renames local state [v] of level [l] to [f l v] on
    every arc: the result is [of_tuples] of the renamed states, on the
    same nodes and with the states renumbered in their new
    lexicographic order, computed node by node without enumerating
    states.  [f] may be many-to-one: arcs of one node that land on one
    value lead to the union of their children (a memoised merge of
    sorted arcs), and the nodes a union absorbs are dropped by one copy
    of the result.  This is how [Compositional.lump_statespace] forms a
    lumped state space, and how [Model.finalize] applies its canonical
    local-state order. *)

val merge_levels : t -> int -> width:int -> t
(** [merge_levels t l ~width] merges levels [l] and [l+1] into one
    level, row-major: a state [(.., s_l, s_{l+1}, ..)] becomes
    [(.., s_l * width + s_{l+1}, ..)], the numbering of
    {!Restructure.merge_adjacent} with [width = |S_{l+1}|].  Built node
    by node: a level-[l] arc [(v, c)] followed by [c]'s arc [(w, g)]
    becomes the arc [(v * width + w, g)].  Row-major merging keeps the
    lexicographic order, so every state keeps its index.
    @raise Invalid_argument unless [1 <= l < levels t], or if some
    level-[l+1] substate lies outside [0 .. width-1]. *)

val levels : t -> int

val size : t -> int
(** Number of states (the root's count). *)

val num_nodes : t -> int
(** Shared nodes in the diagram, excluding the terminal. *)

val index : t -> int array -> int option
(** Position of a tuple, if present: an offset walk from the root.  A
    tuple whose length is not [levels t] is never present. *)

val tuple : t -> int -> int array
(** The tuple at an index, found by an offset descent from the root;
    a fresh array.
    @raise Invalid_argument on an index outside [0 .. size t - 1]. *)

val iter : (int -> int array -> unit) -> t -> unit
(** [iter f t] calls [f i s] for every state [s] in index order.  The
    tuple buffer [s] is reused from one call to the next: copy it to
    keep it, and do not mutate it. *)

val local_states : t -> int -> int list
(** [local_states t l] is the sorted set of level-[l] substates that
    occur in some state — the projection of the state space onto level
    [l], read off the arcs of the level-[l] nodes. *)

val root : t -> node

val iter_arcs : t -> node -> (int -> int -> node -> unit) -> unit
(** [iter_arcs t n f] calls [f s offset child] for each arc of node [n],
    in increasing local state [s]: [offset] is the number of states
    before [s] within [n].  The child of a level-[L] node is the
    terminal, which has no arcs. *)

val pp : Format.formatter -> t -> unit
