(** Structural well-formedness checks for matrix diagrams.

    The [Md] constructors enforce most of these by construction; the
    point of re-checking them from the {e outside} is (a) to guard the
    oracle against silent store corruption while fuzzing, and (b) to be
    callable as a debug assertion after any diagram-rewriting pass
    (lumping rebuild, {!Mdl_md.Restructure}). *)

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val md : Mdl_md.Md.t -> violation list
(** All violations found, empty when the diagram is well-formed:
    - [root]: a root exists and sits at level 1;
    - [edges]: every formal-sum child of a level-[l] node lives at level
      [l+1] (the terminal for [l = L]) — level-respecting edges;
    - [coeff]: every coefficient is finite and nonnegative (entries are
      rates);
    - [quasi-reduced]: no two live nodes of a level are structurally
      equal (the hash-consing invariant the local lumping keys rely on);
    - [row-sum]: row sums of the flattened matrix agree with sums
      accumulated independently over root-to-terminal paths — the
      encoded [R] is consistent across the two enumeration orders
      (skipped when the potential space exceeds [2^16] states). *)

val assert_valid : Mdl_md.Md.t -> unit
(** @raise Invalid_argument listing the violations, if any — the
    debug-assertion form. *)
