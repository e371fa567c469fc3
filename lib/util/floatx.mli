(** Tolerant floating-point comparison helpers.

    Partition refinement and lumpability checks compare sums of rates
    computed along different association orders; all such comparisons go
    through this module so the tolerance policy lives in one place. *)

val default_eps : float
(** Absolute/relative tolerance used when none is supplied ([1e-9]). *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is true when [|a - b| <= eps * max 1 (|a|, |b|)],
    i.e. absolute tolerance near zero, relative away from it. *)

val compare_approx : ?eps:float -> float -> float -> int
(** Three-way comparison compatible with {!approx_eq}: returns [0] when
    the two floats are approximately equal, and the sign of [a -. b]
    otherwise.

    {b Pitfall: this is not a total order.}  Approximate equality is not
    transitive ([a ~ b] and [b ~ c] do not imply [a ~ c]), so using
    [compare_approx] as a {e sort or grouping comparator} — e.g. in
    {!Mdl_partition.Partition.group_by} or as a refinement key
    comparator — can produce groups that depend on the input order, or
    sorts that never settle.  It is safe for comparing two values whose
    computation paths are identical (both sides accumulate the same
    terms), which is how the lumpability {e checks} use it.  For
    grouping and refinement keys, map each float through {!quantize}
    first and compare the quantized representatives with the exact
    [Float.compare]. *)

val quantize : ?eps:float -> float -> float
(** [quantize ~eps x] snaps [x] to the nearest multiple of [eps] — a
    deterministic representative of [x]'s tolerance bucket.  Equality of
    quantized values {e is} transitive, which makes
    [fun a b -> Float.compare (quantize a) (quantize b)] a total order
    suitable for sorting and grouping.  The trade-off: two values within
    [eps] of each other but straddling a bucket boundary quantize apart
    (grouping by a non-transitive relation exactly is impossible; the
    grid is the deterministic approximation).  [0.0] and [-0.0] quantize
    to [0.0]; values so large that [x /. eps] overflows are returned
    unchanged. *)

val quantize_range : float array -> int -> int -> unit
(** [quantize_range a off len] replaces [a.(off) .. a.(off + len - 1)]
    by their {!quantize} representatives on the default grid, in place
    and without boxing a float. *)

val sum_kahan : float array -> float
(** Compensated (Kahan) summation, used where many small rates are
    accumulated. *)
