(** Coordinate-format (triplet) builder for sparse matrices.

    A [Coo.t] accumulates [(row, col, value)] triplets in any order,
    possibly with duplicates; {!Csr.of_coo} sorts and sums duplicates.
    This is the natural output format of state-space exploration and of
    matrix-diagram flattening. *)

type t

val create : rows:int -> cols:int -> t
(** Fresh empty builder for a [rows x cols] matrix. *)

val rows : t -> int

val cols : t -> int

val nnz : t -> int
(** Number of accumulated triplets (before duplicate folding). *)

val add : t -> int -> int -> float -> unit
(** [add t i j v] appends triplet [(i, j, v)].  Zero values are ignored.
    @raise Invalid_argument if the indices are out of bounds. *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** Iterate triplets in insertion order. *)

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
