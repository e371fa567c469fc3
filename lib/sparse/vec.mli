(** Dense real vectors ([float array]) and the handful of BLAS-1 style
    operations the iterative solvers need. *)

type t = float array

val copy : t -> t

val dot : t -> t -> float
(** @raise Invalid_argument on dimension mismatch. *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] performs [y := alpha * x + y] in place. *)

val scale : float -> t -> unit
(** [scale alpha x] performs [x := alpha * x] in place. *)

val sum : t -> float
(** Compensated sum of all entries. *)

val normalize1 : t -> unit
(** Scale so entries sum to 1. @raise Invalid_argument if the sum is not
    positive. *)

val norm_inf : t -> float
(** Max absolute entry; [nan] if any entry is [nan]. *)

val diff_inf : t -> t -> float
(** Max absolute componentwise difference; [nan] if any difference is
    [nan].
    @raise Invalid_argument on dimension mismatch. *)

val gather : t -> int array -> t
(** [gather x perm] is the reordered vector [y] with
    [y.(k) = x.(perm.(k))] — pull [x] into the ordering described by
    [perm] (where [perm.(k)] is the original index of the element now at
    position [k], as returned by {!Ordering.rcm}).  Inverse of
    {!scatter} for a permutation.
    @raise Invalid_argument on length mismatch. *)

val scatter : t -> int array -> t
(** [scatter y perm] is the vector [x] with [x.(perm.(k)) = y.(k)] —
    push a vector computed in [perm]-order back to the original
    indexing.  [scatter (gather x perm) perm = x] when [perm] is a
    permutation.
    @raise Invalid_argument on length mismatch. *)

val approx_equal : ?eps:float -> t -> t -> bool
