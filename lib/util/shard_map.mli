(** A sharded, domain-safe key/value map with a lock-free read path.

    Immutable bucket lists published through [Atomic.t] cells, sharded
    by hash so writers contend only within a shard, with lock-free
    {!find} and a double-checked locked insert.  {!Gid_table} is this
    map plus an id counter.  Built for read-mostly workloads —
    e.g. the cross-bind splitter-row store of {!Mdl_core.Key_cache},
    where every sweep point after the first answers almost every lookup
    from the map.

    Bindings are {e first-writer-wins}: {!find_or_add} never replaces
    an existing binding, it returns the one already present.  This is the
    right semantics for a memo table of a pure function — two domains
    racing to insert results for the same key insert {e equal} values,
    and keeping the first published one means every reader that already
    saw a value keeps seeing that same value.  Publication through the
    atomic bucket cells gives the usual happens-before edge: a reader
    that finds a value sees it (and everything reachable from it) fully
    initialised, even when it was built on another domain. *)

type ('k, 'v) t

val create : ?shards:int -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** [shards] is rounded up to a power of two; default 16. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lock-free lookup. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k make] is the value bound to [k], binding it to
    [make ()] first when [k] is absent.  A hit takes no lock; [make]
    runs under [k]'s shard lock, only when [k] is absent, so it runs at
    most once per key however many domains race on [k], and all of them
    return the one winning value.  [make] must not use [t]. *)

val size : ('k, 'v) t -> int
(** Number of bindings.  Exact when no writer is concurrently active;
    during concurrent insertion the count may lag by in-flight inserts. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding (shard by shard, under the shard locks).  The
    caller must ensure no concurrent reader relies on the old bindings
    staying complete — clearing while other domains read is memory-safe
    (readers see either the old or the fresh empty buckets) but not
    atomic across shards. *)
