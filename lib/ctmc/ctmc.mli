(** Continuous-time Markov chains.

    Following the paper, a CTMC over state space [S = {0, .., n-1}] is
    specified by its state-transition rate matrix [R], where [R(i,j)] is
    the rate of the transition from [i] to [j]; the generator is
    [Q = R - rs(R)] with [rs] the diagonal matrix of row sums.  [R] may
    carry self-loop rates on its diagonal — they cancel in [Q] but are
    distinguishable for lumping purposes (Theorem 1's converse remark),
    which is why [R], not [Q], is the primary representation here. *)

type t

val of_rates : Mdl_sparse.Csr.t -> t
(** [of_rates r] wraps rate matrix [r].
    @raise Invalid_argument if [r] is not square or has a negative or
    non-finite ([nan], [infinity]) entry: the solvers would iterate on
    such a chain to their iteration limit and return [nan]. *)

val of_triplets : int -> (int * int * float) list -> t
(** [of_triplets n l] builds the chain on [n] states from rate triplets. *)

val size : t -> int

val rates : t -> Mdl_sparse.Csr.t
(** The [R] matrix. *)

val generator : t -> Mdl_sparse.Csr.t
(** [Q = R - rs(R)] (computed once, cached). *)

val exit_rate : t -> int -> float
(** [exit_rate t i = R(i, S)], the row sum including any self loop. *)

val max_exit_rate : t -> float

val uniformized : ?lambda:float -> t -> Mdl_sparse.Csr.t * float
(** [uniformized t] is the DTMC transition-probability matrix
    [P = I + Q / lambda] together with the uniformisation rate [lambda]
    (default: 1.02 * max exit rate, so [P] is strictly substochastic in
    no row). @raise Invalid_argument if [lambda] is not >= max exit
    rate or the chain is empty. *)

val is_irreducible : t -> bool
(** True when the directed graph of positive off-diagonal rates is
    strongly connected (checked with two BFS passes on [R] and its
    transpose from state 0). *)
