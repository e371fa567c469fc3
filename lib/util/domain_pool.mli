(** A reusable pool of OCaml 5 domains for deterministic data-parallel
    loops.  The lumper submits one task per diagram level
    ({!Mdl_core.Compositional.lump}); nothing inside a level runs on the
    pool.

    A pool of size [k] owns [k - 1] spawned worker domains; the caller
    of {!run} is the [k]-th participant, so a pool of size 1 spawns
    nothing and {!run} degenerates to a plain sequential loop — the
    parallel entry points stay bit-identical to the sequential code
    path at every size.

    {b Scheduling.}  {!run} submits [n] indexed tasks; idle workers and
    the caller claim indices from a shared atomic counter (dynamic
    load balancing), so {e which} domain runs a task is
    non-deterministic — callers must make the {e results} independent
    of placement by writing task [i]'s output to slot [i] of a
    pre-sized array and merging slots in index order after {!run}
    returns.  Everything written by a task happens-before {!run}'s
    return (the completion count is an [Atomic.t]).

    {b Nesting.}  A task may itself call {!run} on the same pool: the
    submitting domain drains its own sub-tasks before blocking, and
    idle workers steal them from the shared queue, so nested loops
    cannot deadlock and still use the whole pool.

    {b Exceptions.}  If tasks raise, every task still runs to a
    claim/finish state and the first exception (by completion order) is
    re-raised from {!run} with its backtrace.

    {b Chaos mode.}  When the environment variable [MDL_CHAOS] is set
    to a non-empty value at {!create} time, every task claim spins a
    pseudo-random number of {!Domain.cpu_relax} calls first.  This
    perturbs interleavings without changing any result — the
    concurrency test suites run under it to shake out ordering
    assumptions.  Never enabled outside tests. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [max 0 (domains - 1)] worker domains.
    Values below 1 are clamped to 1.  Workers park on a condition
    variable while idle. *)

val size : t -> int
(** Number of participating domains, caller included; at least 1. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n - 1)], each exactly once, across
    the pool's domains (caller included) and returns when all [n] have
    finished.  With [size t = 1] or [n <= 1] the tasks run inline in
    index order with no synchronisation at all.  If tasks raise, the
    first exception (by completion order) is re-raised here after all
    tasks have settled. *)

val shutdown : t -> unit
(** Join every worker domain.  Idempotent; {!run} after [shutdown]
    falls back to running every task on the calling domain. *)

val chaos : t -> bool
(** Whether chaos perturbation is armed (the [MDL_CHAOS] environment
    variable was set when the pool was created). *)
