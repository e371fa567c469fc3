(** The model-family catalogue: one entry per bundled family, holding
    everything a front-end needs to offer it — its name, parameters and
    defaults, display name, named measures and build.  lumpd's
    [submit-model] verb, every [lumpmd] subcommand and the multi-level
    scenarios of [bench/refine] all read the families from here.

    The catalogue also defines the sweep study: the reward family
    [lumpmd sweep] and [bench/refine] lump one diagram under. *)

type param = {
  name : string;
      (** the name in lumpd's [params] object, e.g. ["hyper_dim"];
          [lumpmd]'s flag is the same name with dashes for underscores *)
  short : string option;  (** [lumpmd]'s one-letter alias, e.g. ["j"] *)
  default : int;
  doc : string;  (** [lumpmd]'s help line *)
}

type built = {
  md : Mdl_md.Md.t;
  statespace : Mdl_md.Statespace.t;  (** the reachable states *)
  rewards : (string * Mdl_core.Decomposed.t) list;
      (** the named measures, in report order *)
  initial : Mdl_core.Decomposed.t;
}

type t = {
  name : string;  (** lumpd's family name and [lumpmd]'s subcommand *)
  doc : string;  (** one line *)
  params : param list;  (** the main size knob first *)
  label : (string * int) list -> string;
      (** the display name of a {!resolve}d valuation, e.g.
          ["tandem (J=1, 2^3 hypercube, 3/4 MSMQ)"] *)
  build : (string * int) list -> built;
      (** explore a {!resolve}d valuation and compile its diagram *)
}

val all : t list
(** tandem, polling, workstations, multitier and kanban. *)

val find : string -> t option
(** The entry of that name. *)

val resolve :
  t -> size:int option -> (string * int) list -> ((string * int) list, string) result
(** [resolve f ~size params] completes [params] with [f]'s defaults,
    [size] standing for the main size knob, and returns every
    parameter sorted by name — the identity lumpd compares when a model
    is re-submitted.  The [Error] texts are lumpd's [bad_request]
    messages: a name [f] does not have, the main knob given both by name
    and as [size], or a value below 1. *)

(** {1 The sweep study} *)

type threshold = { level : int; ge : bool; k : int }
(** The indicator reward of [s >= k] (or [s < k] when [ge] is false) on
    the substate [s] of level [level] (1-based). *)

val sweep_study : Mdl_md.Md.t -> points:int -> threshold list list
(** The extra rewards of [points] sweep points, the shape of a
    sensitivity study around a design parameter: five variants on the
    largest level (of size [n]) cycled — none, [s >= n/3], its
    complement [s < n/3], [s >= 2n/3], and both [>=] thresholds (each
    cut at least 1).  The complement right after its threshold induces
    the same classes in the opposite class order, so its level fixed
    point misses the sweep engine's memo while every splitter class it
    walks is already in the key-cache store: the deterministic
    cross-bind fixture [bench/refine] gates on. *)

val point_rewards : built -> threshold list -> Mdl_core.Decomposed.t list
(** A sweep point's rewards: the thresholds' indicators, then the
    family's measures. *)
