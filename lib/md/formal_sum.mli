(** Formal sums [sum_k r_k * R_{n_k}] — the entries of matrix-diagram
    nodes (Section 3 of the paper).

    A formal sum is a linear combination of references to nodes of the
    next level, kept in a canonical form: terms sorted by node id, no
    duplicate ids, no zero coefficients.  Canonical form makes equality
    of formal sums a structural comparison, which is what the paper's
    local lumping keys rely on ("two formal sums are equal if their
    corresponding sets are equal"). *)

type t = private (int * float) array
(** The terms [(node, coefficient)] in canonical order.  The
    representation is readable, for loops that must not build a list
    ({!Md_vector}'s co-walk), but only this module constructs sums. *)

val empty : t

val is_empty : t -> bool

val singleton : int -> float -> t
(** [singleton node coeff]; the empty sum if [coeff = 0.]. *)

val of_list : (int * float) list -> t
(** Terms in any order, duplicates combined, zeros dropped. *)

val of_slots : int array -> float array -> int -> t
(** [of_slots ids coeffs off] is the sum of [coeffs.(off + i) * R_{ids.(i)}]
    over the slots [i] of [ids] whose coefficient is nonzero — how a
    dense accumulator (one float slot per child) emits its result
    without a sort.  [ids] must be strictly ascending; this is not
    checked. *)

val terms : t -> (int * float) list
(** Canonical term list (ascending node id). *)

val add : t -> t -> t

val scale : float -> t -> t

val sum : t list -> t

val num_terms : t -> int

val coeff : t -> int -> float
(** [coeff s node] is the coefficient of [node] ([0.] when absent). *)

val children : t -> int list
(** Node ids referenced (ascending). *)

val map_children : (int -> int) -> t -> t
(** Remap node ids; terms mapped to one id are combined.  Used when
    replacing nodes by their lumped versions (two distinct children may
    merge after lumping). *)

val equal : t -> t -> bool
(** Exact structural equality (bit-level on coefficients) — the
    hash-consing equality. *)

val hash : t -> int

val quantize : t -> t
(** Snap every coefficient to its {!Mdl_util.Floatx.quantize} grid
    representative on the one lumping grid,
    {!Mdl_util.Floatx.default_eps} (re-canonicalised: coefficients that
    quantize to [0.] drop out).  Quantize-then-{!compare} is the
    transitive replacement for {!compare_approx} wherever sums are
    grouped, sorted or interned. *)

val compare : t -> t -> int
(** Exact total order (term-lexicographic, [Float.compare] on
    coefficients).  On {!quantize}d operands this agrees with {!equal}
    as an equivalence: canonical form stores no zeros, so numerically
    equal nonzero coefficients on the same grid are bit-identical. *)

val compare_approx : ?eps:float -> t -> t -> int
(** Total-order comparison with tolerant coefficient comparison; [0]
    means the sums are equal as lumping keys.  Sums with different
    children sets never compare equal.  {b Not transitive} — never use
    it to order a sort or group a partition; use
    [compare (quantize a) (quantize b)] there (see
    {!Mdl_util.Floatx.compare_approx}). *)

val pp : Format.formatter -> t -> unit
