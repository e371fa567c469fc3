(** Matrix diagrams (MDs) — Section 3 of the paper.

    An ordered MD with [L] levels represents a real matrix over the
    product space [S_1 x .. x S_L].  A node at level [l] is a sparse
    [|S_l| x |S_l|] matrix whose entries are {!Formal_sum.t}s referencing
    nodes of level [l+1]; level-[L] entries reference the unique 1x1
    {e terminal} node (the paper's artificial level [L+1] containing the
    scalar 1), so every level is treated uniformly.

    Nodes are hash-consed per level: building an already-existing node
    returns the existing id, so the diagram is quasi-reduced by
    construction — "at any level, no two nodes are equal" — which is the
    basis of both MD space-efficiency and the locality of the lumping
    keys.

    A diagram value is a mutable {e store} of nodes plus a distinguished
    root.  Nodes are immutable once created; lumping builds new nodes
    (possibly in the same store) rather than mutating existing ones. *)

type t

type node_id = int

val create : sizes:int array -> t
(** [create ~sizes] is an empty diagram with [L = Array.length sizes]
    levels, level [l] having index set [{0 .. sizes.(l-1) - 1}].
    @raise Invalid_argument if [sizes] is empty or has a non-positive
    entry. *)

val levels : t -> int

val size : t -> int -> int
(** [size t l] is [|S_l|], for [l] in [1..L]. *)

val sizes : t -> int array

val terminal : t -> node_id
(** The terminal node (conceptual level [L+1]). *)

val add_node : t -> level:int -> (int * int * Formal_sum.t) list -> node_id
(** [add_node t ~level entries] creates (or finds) the node at [level]
    whose entry at [(row, col)] is the given formal sum; entries listed
    twice for the same position are summed, empty sums dropped.
    Children referenced by the sums must already exist and live at
    [level + 1] (the terminal for [level = L]).
    @raise Invalid_argument on bad level, out-of-range row/col, or
    wrong-level children. *)

val add_node_sorted_rows : t -> level:int -> (int * Formal_sum.t) array array -> node_id
(** Raw hash-consing constructor: [rows] becomes the node's row table
    {e as is}.  {b Unchecked preconditions}: each row strictly sorted by
    column with in-range columns, duplicate positions already combined,
    no empty sums, every child an existing node at [level + 1] — and the
    caller must not retain or mutate [rows] afterwards (the node owns
    it).  This skips the per-entry hashing, validation and sorting of
    {!add_node}; the incremental rebuild uses it for freshly accumulated
    quotient rows.  @raise Invalid_argument on a bad level or row
    count. *)

val import_node : t -> level:int -> t -> node_id -> (node_id -> node_id) -> node_id
(** [import_node t ~level src id remap] copies node [id] of the diagram
    [src] into [t] at [level], applying [remap] to every child
    reference.  The incremental-rebuild fast path: the source node's
    rows are already combined, validated and column-sorted, so unlike
    {!add_node} no per-entry hashing, validation or sorting is done —
    only the child remap (which may merge terms) and the hash-consing
    lookup.  {b Precondition}: [remap] must send every child of the
    source node to an existing node of [t] at [level + 1] (the terminal
    for [level = L]); this is {e not} checked.  Entries whose remapped
    sum cancels to zero are dropped.
    @raise Invalid_argument on a bad level or when the source node's
    dimension differs from [size t level]. *)

val equal : t -> t -> bool
(** Structural equality of the {e rooted} diagrams: same level sizes and
    isomorphic node structure from the roots down (coefficients compared
    exactly, children matched by recursive structural equality — node
    ids need not coincide, so a diagram equals its rebuilt copy).
    Unreachable store garbage is ignored; two rootless diagrams with
    equal sizes are equal.  Used to pin that the cached/incremental
    lumping path emits the same lumped diagram as the from-scratch
    path. *)

val scalar_sum : t -> float -> Formal_sum.t
(** [scalar_sum t v] is the formal sum [v * terminal] — the way real
    values appear at level [L]. *)

val set_root : t -> node_id -> unit
(** @raise Invalid_argument if the node is not at level 1. *)

val root : t -> node_id
(** @raise Invalid_argument if no root has been set. *)

val node_level : t -> node_id -> int

val node_row : t -> node_id -> int -> (int * Formal_sum.t) list
(** Entries of one row, ascending column order. *)

val node_rows : t -> node_id -> (int * Formal_sum.t) array array
(** The node's row table itself, not a copy: row [r] holds its entries
    in ascending column order.  For loops that must not allocate
    ({!Md_vector}); the caller must not mutate it.  The diagram keeps no
    column table: reading a node from any domain writes nothing, and a
    walker that needs columns keeps their transposes itself
    ({!Mdl_core.Local_key.node_cols}). *)

val node_children : t -> node_id -> node_id array
(** The node's distinct children in ascending id order, a fresh array
    (recorded when the node was created; no entry is read). *)

val iter_node_entries : t -> node_id -> (int -> int -> Formal_sum.t -> unit) -> unit

val node_nnz : t -> node_id -> int

val live_nodes : t -> node_id list array
(** [live_nodes t].(l-1) is the list of nodes at level [l] reachable from
    the root — the paper's [N_l] — in depth-first preorder, children in
    order of first appearance over (row, entry, term).  That order fixes
    the lumped diagram's node ids.  (The store may also hold unreachable
    nodes left over from construction; they are not part of the
    diagram.)  Each node records its distinct children when it is
    created, so the walk reads no entry.  @raise Invalid_argument if no
    root is set. *)

val num_live_nodes : t -> int

val iter_entries :
  t -> (row:int array -> col:int array -> float -> unit) -> unit
(** Enumerate the nonzero entries of the represented matrix by walking
    all root-to-terminal paths and multiplying coefficients.  [row] and
    [col] are length-[L] substate tuples, {e reused} between calls —
    copy them if retained.  Entries are visited once per path, so a
    position reachable by several paths is reported several times with
    partial values (summing them gives the matrix entry). *)

val to_csr : t -> Mdl_sparse.Csr.t
(** Flatten to a sparse matrix over the full (mixed-radix, row-major)
    product space — intended for tests and small diagrams.
    @raise Invalid_argument if the product space exceeds 2^22 states. *)

val potential_space_size : t -> int

val memory_bytes : t -> int
(** Rough heap footprint of the live nodes: per node its row table, per
    entry its column index and formal-sum terms.  Used for the Table 1
    "MD space" column. *)

val stats : t -> int array * int array
(** Per-level (node count, total entry count) of live nodes. *)

val pp : Format.formatter -> t -> unit
