(** A sharded, domain-safe intern table: values to dense global ids.

    The concurrent counterpart of a single-domain intern table for the
    one shared-write hot spot of parallel refinement — the global
    key-to-gid table every domain interns splitter keys into.  The
    table is a {!Shard_map} from values to gids plus an atomic
    counter: writers contend only within a shard, and the {e read} path
    (the overwhelmingly common case once the table is warm: a cache hit
    never re-interns, and repeated keys hit the table) is the lock-free
    hit path of {!Shard_map.find_or_add}.  Only a miss takes its shard's
    mutex, re-checks, and takes the next gid from the counter.

    Gids are allocated from one atomic counter: unique, dense, and
    stable for the table's lifetime — but {e not} deterministic across
    runs or domain counts, because allocation order depends on domain
    interleaving.  Consumers must therefore never let gid {e values}
    reach results: the refinement pipelines reduce gids to per-pass
    dense ranks by first appearance in (deterministically merged) node
    order, which is invariant under any gid numbering.  The test suite
    pins this: concurrent interning of overlapping key sets yields no
    duplicate gids and identical rank assignments run-to-run.

    Besides splitter keys, {!Mdl_core.Key_cache} interns splitter-class
    {e member sequences} through a second table of its own to form the
    content signatures of its persistent cross-bind row store (the
    sweep engine's warm tier) — same rules: signature values never
    reach results, only equality of signatures is consumed. *)

type 'k t

val create : ?shards:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> 'k t
(** [shards] is rounded up to a power of two; default 16. *)

val intern : 'k t -> 'k -> int
(** The value's gid, allocating the next dense id on first sight.
    Safe to call from any number of domains concurrently; two
    concurrent calls with equal values return the same gid. *)

val find : 'k t -> 'k -> int option
(** Lock-free lookup without insertion. *)

val size : 'k t -> int
(** Number of distinct values interned so far. *)
