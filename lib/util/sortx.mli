(** Non-polymorphic sorting for the refinement hot path.

    The partition refiner sorts (index arrays into) key arrays on every
    splitter pass; going through [Stdlib.compare] or tuple-allocating
    comparators there costs more than the key evaluation itself.  Three
    routines live here: a stable merge sort of an [int array] under an
    explicit three-way comparator, and two {e fused} sorts that order
    the refiner's parallel (class, key, state) buffers directly —
    monomorphic float or int keys, no comparator closure, no boxing. *)

val sort_by : (int -> int -> int) -> int array -> unit
(** [sort_by cmp a] sorts [a] in place, stably, by [cmp].  [cmp] is
    typically an index comparator closing over parallel key arrays.
    O(n log n) comparisons, one O(n) scratch allocation, no polymorphic
    compare. *)

val sort_runs_float :
  cls:int array -> keys:float array -> states:int array -> int -> unit
(** [sort_runs_float ~cls ~keys ~states n] sorts the first [n] entries
    of the three parallel arrays {e together}, in place and stably, by
    [(cls, key, state)] ascending — the order the refiner's splitter
    pass needs to cut classes into key runs.  Float comparisons read
    unboxed values straight from [keys]; the arrays may be longer than
    [n] (reusable scratch), entries at [n..] are untouched.  Keys must
    not be NaN (quantized rates never are). *)

val sort_runs_int :
  cls:int array -> keys:int array -> states:int array -> int -> unit
(** Same as {!sort_runs_float} for dense integer key ranks (the
    ranked pipeline's comparison sort, used when a pass's key alphabet
    is too large for the counting sort). *)
