(** Hash-combination helpers for structural hash-consing. *)

val combine : int -> int -> int
(** [combine seed h] mixes [h] into [seed] (boost-style combiner). *)

val float : float -> int
(** Hash of the bit pattern of a float (distinguishes [-0.] from [0.];
    stable across runs). *)

val int_array : int array -> int
