(** Kronecker descriptors — the stochastic-automata-network style
    representation [R = sum_e lambda_e (W_e^1 (X) .. (X) W_e^L)] that
    matrix diagrams generalise (Section 1/3 of the paper; Plateau-Atif
    SANs).

    Serves three purposes here: (1) the natural compilation target of
    the compositional modelling layer, (2) a baseline symbolic
    representation to benchmark MDs against (shuffle-algorithm vector
    product), and (3) the constructor of MDs — {!to_md} reads the
    descriptor once and builds the diagram the lumper works on, in the
    paper's slice form with canonical scaling. *)

type event = {
  label : string;
  rate : float;  (** [lambda_e > 0] *)
  locals : Mdl_sparse.Csr.t array;  (** one [|S_l| x |S_l|] matrix per level *)
}

type t

val make : sizes:int array -> event list -> t
(** @raise Invalid_argument on empty levels, a non-positive or
    non-finite rate, or a local matrix with the wrong dimensions or a
    negative or non-finite entry. *)

val sizes : t -> int array

val events : t -> event list

val num_events : t -> int

val potential_size : t -> int

val identity_local : int -> Mdl_sparse.Csr.t
(** Convenience: the identity matrix, for levels an event does not
    touch. *)

val to_md : t -> Mdl_md.Md.t
(** The matrix diagram of the same matrix, in slice form and scaled
    canonically, built in one pass:

    - every formal sum above the bottom level has one term: the child
      of a root entry is the node of the sum, over the events with a
      nonzero there, of [lambda_e w_e (W_e^2 (X) .. (X) W_e^L)], and
      likewise below, so each node gathers every event active under one
      upper-level entry (the shape on which per-node lumping finds
      replica symmetries);
    - every node below the root is divided by its first nonzero
      coefficient in row-major order, after Miner's canonical MDs (the
      paper's [15]), and its parent's coefficient takes the factor, so
      proportional nodes are one node and formal-sum lumping keys
      compare matrices up to that scaling.

    Each event's chain of local matrices from a level down (its suffix)
    is numbered once per level, before the first node is built; nodes
    are committed bottom-up, and memoised per level by suffix number
    when the child is one suffix at coefficient 1, by formal sum
    otherwise.  Each row is read from the local matrices' arrays
    ({!Mdl_sparse.Csr.raw}) and summed in one scratch pool per level,
    with no per-entry list or closure.  Each (column, child) sum adds
    its terms in term order (at the root, the events in reverse list
    order; below, the suffixes in ascending number), so node ids and
    coefficient bits are those of the list-based builder this one
    replaced, which the tests keep as a reference.  An event with an
    all-zero local matrix at some level adds nothing and is left out,
    so that no entry refers to an empty node. *)

val vec_mul : t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul k x] is the row-vector product [x * R] over the {e
    potential} product space (mixed-radix, level 1 most significant),
    computed with the perfect-shuffle algorithm — [O(sum_l nnz(W_e^l) *
    N / n_l)] per event instead of materialising [R].
    @raise Invalid_argument if [x] is not of the potential size. *)

val to_csr : t -> Mdl_sparse.Csr.t
(** Materialise over the potential space (tests / small models only).
    @raise Invalid_argument if the potential space exceeds 2^22. *)
