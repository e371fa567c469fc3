(** The differential lumping oracle.

    The paper's central claim (Theorems 3–4, Propositions 1–2) is that
    lumping a matrix diagram {e per level} yields the same chain-level
    guarantees as lumping the flat CTMC with the optimal state-level
    algorithm.  This module turns that claim into an executable
    invariant: given any model, it runs {!Mdl_core.Compositional.lump}
    on the diagram and {!Mdl_lumping.State_lumping} on the expanded flat
    matrix, then cross-checks everything the theory promises:

    - {b theorem-lumpable}: the per-level partitions induce a globally
      ordinarily/exactly lumpable partition of the flat chain
      (Theorems 3/4, checked literally via {!Mdl_lumping.Check});
    - {b quotient-agreement}: the flattened lumped MD equals the
      Theorem-2 quotient {!Mdl_lumping.Quotient.rates} of the flat
      matrix, entry by entry through the class correspondence;
    - {b refinement}: the induced global partition refines the coarsest
      flat partition of {!Mdl_lumping.State_lumping.coarsest} — the
      state-level optimum is never beaten, only approached;
    - {b single-level-equality}: for 1-level diagrams the two
      algorithms agree {e exactly} (partition equality);
    - {b reference-agreement}: {!Reference_lump.lump}, which shares no
      refinement or rebuild code with the production path, computes
      equal per-level partitions and an [Md.equal] lumped diagram;
    - {b stationary / transient / reward agreement}: solving the lumped
      chain and aggregating/averaging reproduces the measures of the
      original chain through {!Mdl_ctmc.Solver} (skipped when the flat
      chain is not irreducible);
    - {b equiprobable-lift} (exact mode): the stationary distribution is
      uniform within classes, [pi(s) = pi~(C_s) / |C_s|];
    - {b mrp-measures}: {!Mdl_ctmc.Measures} steady-state and transient
      rewards survive the flat {!Mdl_lumping.Quotient.mrp} quotient;
    - MD well-formedness ({!Invariants}) of both the input and the
      lumped diagram.

    [inject] is the oracle's own sanity check: multiply one entry of the
    {e lumped} matrix by [1 + factor] before comparing.  A healthy
    oracle must then report a violation — if it does not, the oracle
    itself is broken (fuzzers rot silently; this guards against that).

    [pool] is passed to {!Mdl_core.Compositional.lump}, which then
    refines the diagram's levels concurrently; the checks and the
    reference they compare against are the same, so a pooled run must
    reach the same outcome as a sequential one. *)

val log_src : Logs.src
(** The oracle's [Logs] source, [mdl.oracle]: one debug line per
    differential run summarising checks and violations. *)

type mode = Mdl_lumping.State_lumping.mode = Ordinary | Exact

type outcome = {
  model : string;  (** description / reproduction recipe *)
  mode : mode;
  violations : Invariants.violation list;
  checks : string list;  (** names of the checks that ran, in order *)
  skipped : (string * string) list;  (** (check, reason) not applicable *)
  states : int;  (** potential flat states *)
  lumped_states : int;
  flat_classes : int;  (** classes of the coarsest flat lumping *)
}

val ok : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit

val check_md :
  ?inject:float ->
  ?pool:Mdl_util.Domain_pool.t ->
  mode ->
  Mdl_md.Md.t ->
  outcome
(** Cross-check one diagram (over its full potential space). *)

val check_chain :
  ?inject:float ->
  ?pool:Mdl_util.Domain_pool.t ->
  mode ->
  Mdl_sparse.Csr.t ->
  outcome
(** Cross-check a flat square rate matrix, wrapped as a 1-level MD —
    on 1-level diagrams the compositional algorithm must coincide with
    the state-level one exactly. *)

val run :
  ?inject:float ->
  ?pool:Mdl_util.Domain_pool.t ->
  mode ->
  Spec.model ->
  outcome
(** Derive the model a spec denotes and cross-check it; [outcome.model]
    is the spec's reproduction recipe. *)
