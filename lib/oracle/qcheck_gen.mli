(** QCheck arbitraries over model {!Spec}s.

    Properties quantify over {e specs}, not over concrete models: the
    generated value is a handful of integers, the printer emits a
    one-line reproduction recipe, and the shrinker walks the integers
    toward minimal values — so a failing property shrinks to the
    smallest spec (fewest levels, smallest index sets, fewest events)
    that still fails, and the printed counterexample can be replayed
    byte-for-byte through {!Gen_md.of_spec}. *)

val chain : Spec.chain QCheck.arbitrary

val kron : Spec.kron QCheck.arbitrary
(** Kronecker specs of up to 3 levels — for properties of a
    descriptor's compilation ({!Gen_md.kronecker} builds the
    descriptor). *)

val model : ?max_levels:int -> unit -> Spec.model QCheck.arbitrary
(** Any of the three families. *)

val md_model : ?max_levels:int -> unit -> Spec.model QCheck.arbitrary
(** Only the genuinely multi-level families (Kron / Direct) — for
    properties about diagram transformations. *)
