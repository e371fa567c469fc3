(** Compact, printable descriptions of randomly generated models.

    The differential oracle never shrinks or replays a concrete matrix
    diagram; it shrinks and replays a {e spec} — a handful of integers
    from which the model is derived deterministically through
    {!Mdl_util.Prng}.  A printed spec is therefore a complete
    reproduction recipe: paste it back (or rerun the fuzzer with the
    same master seed) and the identical model is rebuilt. *)

type chain = {
  states : int;  (** [>= 2] *)
  extra : int;  (** random off-ring transitions on top of the ring *)
  planted : bool;
      (** symmetrise under the transposition of the last two states, so
          the flat lumping algorithm has something to find *)
  seed : int;
}
(** A flat irreducible CTMC: a ring [0 -> 1 -> .. -> 0] guaranteeing
    irreducibility plus [extra] random transitions. *)

type kron = {
  sizes : int array;  (** per-level index-set sizes, each [>= 2] *)
  events : int;  (** number of random synchronising events *)
  symmetric : bool;
      (** symmetrise every local matrix under the transposition of the
          level's last two states (plants per-level lumps) *)
  ring : bool;  (** add one local-ring event per level (irreducibility) *)
  merged : bool;
      (** compile with {!Mdl_kron.Kronecker.to_md} (the canonical slice
          form models use) rather than {!Gen_md.event_chains} *)
  seed : int;
}
(** A Kronecker descriptor compiled to a multi-level MD. *)

type direct = {
  sizes : int array;  (** per-level index-set sizes, each [>= 2] *)
  width : int;  (** node-pool width per level ([>= 1]; drives sharing) *)
  symmetric : bool;
      (** symmetrise every node under the transposition of the level's
          last two states *)
  seed : int;
}
(** A multi-level MD built node-by-node, bottom-up: shared children,
    multi-term formal sums — structure a Kronecker compilation never
    produces. *)

type model = Chain of chain | Kron of kron | Direct of direct

val to_string : model -> string
(** One-line reproduction recipe, e.g.
    [kron{sizes=2,3;events=2;symmetric=true;ring=true;merged=false;seed=7741}]. *)

val random : Mdl_util.Prng.t -> max_levels:int -> model
(** Draw a spec uniformly-ish over the three families, with level count
    bounded by [max_levels] — the fuzz driver's sampler. *)
