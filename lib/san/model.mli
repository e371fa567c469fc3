(** A compositional Markovian modelling formalism in the
    stochastic-automata-network style — the substrate that plays the
    role of Möbius' SAN formalism + Rep/Join composer in the paper's
    tool chain.

    A model is a vector of {e components} (one per MD level) and a set
    of {e events}.  A component's local state is encoded as an [int
    array] (any canonical encoding the model author chooses).  An event
    has a base rate and, per component, a {e local effect}: a function
    from local state to weighted successor local states.  The event is
    enabled in a global state iff every component's effect list is
    non-empty, and fires into each combination of successors with rate
    [rate * product of weights] — exactly the Kronecker semantics
    [R = sum_e rate_e (W_e^1 (X) .. (X) W_e^L)], so guards and
    probabilistic branching must be local to a level (conjunctive
    across levels).

    {!explore_symbolic} (the paper's symbolic state-space generation)
    and {!explore} (explicit breadth-first search, the tested reference)
    compute the reachable states, discover the per-level local state
    spaces, and compile the model to a {!Mdl_kron.Kronecker.t}
    descriptor — from which the matrix diagram is one
    {!Mdl_kron.Kronecker.to_md} away.

    The local effects are kept in one relation table per (event, level),
    indexed by local state and filled on first use: each effect is
    evaluated at most once per (event, level, local state), its
    successors interned and its weights checked then.  Saturation reads
    its successors from the table, and the descriptor is read from the
    same cells.

    With tracing on ({!Mdl_obs.Trace}), saturation, the descriptor build
    and {!md_of} each record one span: [san.saturate], [san.finalize]
    and [san.md_of]. *)

type local_state = int array

type effect = local_state -> (local_state * float) list
(** Weighted successors; [\[\]] = disabled; identity = [\[(s, 1.)\]].
    Weights must be positive and finite.  An effect must be deterministic: the
    explorations evaluate it once per local state and keep the result. *)

type event = {
  label : string;
  rate : float;
  effects : effect array;  (** one per component *)
}

type component = {
  name : string;
  initial : local_state;
}

type t

val make : components:component array -> events:event list -> t
(** @raise Invalid_argument on empty components, events with the wrong
    number of effects, or a non-positive or non-finite rate. *)

val components : t -> component array

val events : t -> event list

val identity_effect : effect
(** [fun s -> \[(s, 1.)\]] — for levels an event does not touch. *)

type exploration = {
  model : t;
  local_spaces : local_state array array;
      (** [local_spaces.(l-1).(i)] is the decoded local state [i] of
          level [l]; indices are the MD level index sets *)
  statespace : Mdl_md.Statespace.t;
      (** reachable global states over the local indices, as an
          offset-indexed MDD: one shared node per distinct suffix set,
          states numbered in lexicographic order *)
  descriptor : Mdl_kron.Kronecker.t;
  initial_tuple : int array;  (** index tuple of the initial state *)
}

val explore : ?max_states:int -> t -> exploration
(** Breadth-first reachability from the initial state.  The search calls
    the effects itself; the descriptor is then read from a fresh
    relation table over the occurring local states.
    @raise Failure if more than [max_states] (default 5_000_000) states
    are reached, or if the model deadlocks the exploration entirely
    (no reachable state).
    @raise Invalid_argument
    ["Model.explore: event e has non-positive weight"] if an effect
    gives a weight [<= 0.] on an occurring local state, and
    ["Model.explore: event e has non-finite weight"] if it gives [nan]
    or [infinity].

    The result is canonical: local states are ordered lexicographically
    by their encoding and only states occurring in some reachable tuple
    are kept, so {!explore} and {!explore_symbolic} produce identical
    explorations.  The search's tuples are sorted into a
    {!Mdl_md.Statespace.of_tuples} over discovery-order local indices,
    which the canonical order then relabels arc by arc. *)

val explore_symbolic : ?max_states:int -> t -> exploration
(** Symbolic reachability: the reachable set is computed as a
    hash-consed set MDD ({!Mdl_md.Set_mdd}) by chained event-image
    fixpoint iteration — the style of state-space generation the paper's
    tool chain uses, and dramatically faster than explicit BFS on large
    structured models.  Produces the same (canonical) exploration as
    {!explore}.  No state is enumerated: the saturated set becomes the
    state space node by node ({!Mdl_md.Set_mdd.to_statespace}), the
    occurring local states are read off its arcs, and the canonical
    order is applied as a per-level arc relabel
    ({!Mdl_md.Statespace.relabel}).  [max_states] defaults to
    50_000_000.
    @raise Failure ["Model.explore_symbolic: more than n states"] beyond
    [max_states] states, or when a level's discovered local states
    outnumber it.
    @raise Invalid_argument
    ["Model.explore_symbolic: event e has non-positive weight"] as
    {!explore}, whether saturation or the descriptor reaches the
    weight. *)

val local_index : exploration -> int -> local_state -> int option
(** Index of a local state in a level's discovered space. *)

val md_of : exploration -> Mdl_md.Md.t
(** The matrix diagram of the explored model:
    {!Mdl_kron.Kronecker.to_md} of its descriptor, in one pass.  Each
    node gathers every event active under one upper-level entry (so
    replica symmetries are visible to the per-node lumping conditions)
    and is scaled canonically (so proportional nodes are one node). *)
