(** Multi-valued decision diagrams over substate tuples, with per-node
    state counts — the offset-based indexing structure real MD solvers
    use for {e actual} (reachable) state spaces.

    An {!t} represents the same set as a {!Statespace.t}, but
    hierarchically: one shared node per distinct suffix set.  Each arc
    carries the number of states lexicographically before it within its
    node, so the index of a tuple is the sum of the offsets along its
    path — [O(L)] per lookup with no hashing, and vector products can
    co-walk an {!Md.t} and two [t] cursors, pruning unreachable branches
    wholesale (see {!Md_vector.vec_mul_mdd}).

    Indices agree with {!Statespace.index} (both are lexicographic). *)

type t

type node
(** A node at some level; the root is at level 1, terminals below level
    [L]. *)

val of_statespace : Statespace.t -> t
(** Build (with suffix sharing) from an explicit state space. *)

val levels : t -> int

val count : t -> int
(** Number of states — equals [Statespace.size] of the source. *)

val num_nodes : t -> int
(** Shared nodes in the diagram (excluding the terminal). *)

val index : t -> int array -> int option
(** Lexicographic index of a tuple, [None] if not a member. *)

val root : t -> node

val arc : t -> node -> int -> (int * node) option
(** [arc t n s] follows local state [s] out of node [n]: returns the
    offset (number of states before [s] within [n]) and the child node,
    or [None] when no member state has substate [s] here.  The child of
    a level-[L] node is the terminal (count 1). *)

val iter : t -> (int -> int array -> unit) -> unit
(** Enumerate members in index order (the tuple buffer is reused). *)
