(** Compressed-sparse-row matrices over the reals.

    This is the workhorse flat-matrix representation: the state-level
    lumping baseline, the iterative solvers and the lumpability checkers
    all consume it.  Matrices are immutable after construction. *)

type t

val of_coo : Coo.t -> t
(** Sort triplets, fold duplicates (values of equal [(i,j)] are summed)
    and drop entries that cancel to exactly [0.]. *)

val of_dense : float array array -> t
(** @raise Invalid_argument on ragged input. *)

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t

val of_entry_iter :
  rows:int -> cols:int -> ((int -> int -> float -> unit) -> unit) -> t
(** [of_entry_iter ~rows ~cols iter] builds the matrix CSR-natively from
    an entry producer: [iter f] must call [f i j v] once per entry, in
    any order, duplicates allowed (values of equal [(i,j)] are summed in
    emission order; entries that cancel to exactly [0.] are dropped,
    like {!of_coo}).  A two-pass count-then-fill construction — [iter]
    runs twice and must produce the same entries both times — with
    row-pointer prefix sums and an in-row column sort/merge: no triplet
    intermediate and no global sort, which is what the hot lump→solve
    quotient path wants.
    @raise Invalid_argument on out-of-bounds entries or when the two
    passes disagree. *)

val of_row_slots :
  rows:int -> cols:int -> int array -> int array -> float array -> t
(** [of_row_slots ~rows ~cols base col_idx values] is the last step of a
    count-then-fill construction such as {!of_entry_iter}'s: row [i]'s
    entries sit in slots [base.(i)] to [base.(i+1) - 1] of [col_idx]
    and [values], in any column order, duplicates allowed (summed in
    slot order; entries that cancel to exactly [0.] are dropped).  The
    arrays are taken over and may be reused for the result: the caller
    must not use them afterwards.
    @raise Invalid_argument unless [base] holds [rows + 1]
    nondecreasing offsets from [0] to the common length of [col_idx]
    and [values], or on a column outside [0 .. cols - 1]. *)

val rows : t -> int

val cols : t -> int

val nnz : t -> int

val raw : t -> int array * int array * float array
(** [raw t] is [(row_ptr, col_idx, values)], the matrix's own arrays,
    not copies: row [i]'s entries sit in slots [row_ptr.(i)] to
    [row_ptr.(i + 1) - 1] of [col_idx] and [values], columns strictly
    ascending.  For loops that must not allocate:
    {!iter_row}'s closure boxes every value it is handed.  {b Read
    only}: the matrix is immutable, and a caller that writes into these
    arrays corrupts it. *)

val get : t -> int -> int -> float
(** [get t i j] is entry [(i,j)] ([0.] when absent); binary search within
    the row, [O(log nnz_row)]. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row t i f] calls [f j v] for every stored entry of row [i] in
    increasing column order. *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** Iterate all stored entries in row-major order. *)

val iter_pattern : (int -> int -> unit) -> t -> unit
(** [iter_pattern f t] calls [f i j] for every stored entry in
    row-major order, without the value: {!iter} boxes each float it
    hands to [f], this allocates nothing. *)

val row_sum : t -> int -> float

val row_sums : t -> Vec.t

val col_sums : t -> Vec.t

val transpose : t -> t

val permute : t -> perm:int array -> t
(** [permute t ~perm] is the symmetric permutation [B] of a square [t]
    with [B(i,j) = t(perm.(i), perm.(j))]: state [perm.(k)] of [t]
    becomes state [k] of [B].  [perm] is in the convention of
    {!Ordering.rcm}; vectors move between the two orderings with
    {!Vec.gather} / {!Vec.scatter}.
    @raise Invalid_argument if [t] is not square or [perm] is not a
    permutation of its indices. *)

val diagonal : t -> Vec.t
(** The main diagonal of a square matrix ([0.] where absent).
    @raise Invalid_argument if the matrix is not square. *)

val scale : float -> t -> t

val add : t -> t -> t
(** Entrywise sum. @raise Invalid_argument on dimension mismatch. *)

val map : (float -> float) -> t -> t
(** Apply [f] to every {e stored} entry (structural zeros are untouched);
    entries mapped to exactly [0.] are dropped. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [A x]. @raise Invalid_argument on mismatch. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul x a] is [x A] (row vector times matrix). *)

val vec_mul_into : Vec.t -> t -> Vec.t -> unit
(** [vec_mul_into x a y] overwrites [y] with [x A], summed as
    {!vec_mul} sums it, and allocates nothing.
    @raise Invalid_argument on a dimension mismatch, or if [x] and [y]
    are the same array. *)

type sweep_plan
(** One Gauss–Seidel sweep on [x Q = 0] compiled for a rate matrix [R],
    built once per solve by [sweep_plan] and read by every
    {!sor_sweep}. *)

val sweep_plan : t -> diag:Vec.t -> sweep_plan
(** [sweep_plan r ~diag] compiles the sweep for the square rate matrix
    [r] (row [i] holds the rates out of state [i]) and the generator
    diagonal [diag] ([diag.(j) = Q(j,j)]).  In one count-then-fill pass
    over [r], row [j] of the plan collects the rates into [j] from the
    other states, in ascending source order (the order {!transpose}
    gives), and drops every self loop; the plan stores [-. diag.(j)]
    beside it.  [r] and [diag] are not retained.
    @raise Invalid_argument if [r] is not square or [diag] does not
    match its size. *)

val sor_sweep : sweep_plan -> relax:float -> Vec.t -> float
(** [sor_sweep p ~relax x] is one in-place Gauss–Seidel sweep (SOR when
    [relax < 1.]) with plan [p].  For [j] in increasing order it sums
    [x.(i) *. R(i,j)] over the sources [i <> j] in ascending order,
    sets [gs] to that sum divided by [-. Q(j,j)], and overwrites
    [x.(j)] with [gs] when [relax = 1.], else with
    [(1. -. relax) *. x.(j) +. relax *. gs].  Later rows read the
    values already overwritten.  It returns the sum of the new [x], the
    value and order of {!Mdl_util.Floatx.sum_kahan}, and allocates
    nothing; [x] is not normalised.
    @raise Invalid_argument if [x] does not match the plan's size. *)

val gs_sweep :
  t -> denom:Vec.t -> constant:Vec.t -> active:bool array -> Vec.t -> unit
(** [gs_sweep a ~denom ~constant ~active x] is one in-place Gauss–Seidel
    sweep on [x(i) = (constant(i) + sum_{j<>i} a(i,j) x(j)) / denom(i)],
    the absorption equations over the rows of a rate matrix [a]: for
    each [i] with [active.(i)], in increasing order, it sums
    [a(i,j) *. x.(j)] over the stored entries of row [i] in column
    order, skipping column [i], and overwrites [x.(i)] with
    [(constant.(i) +. sum) /. denom.(i)].  Later rows read the values
    already overwritten; inactive entries are left as they are.
    Allocates nothing.
    @raise Invalid_argument if [a] is not square or a vector does not
    match its size. *)

val to_dense : t -> float array array

val approx_equal : ?eps:float -> t -> t -> bool
(** Entrywise approximate equality (structure-independent). *)

val equal : t -> t -> bool
(** Exact structural equality: same dimensions, same stored structure,
    bit-level equal values.  Since construction drops exact zeros,
    matrices with bit-equal entries always have equal structure — this
    is the hash-consing equality for key interning (pair it with
    {!hash}); quantize values first when tolerant key equality is
    wanted. *)

val hash : t -> int
(** Consistent with {!equal}. *)

val identity : int -> t

val pp : Format.formatter -> t -> unit
