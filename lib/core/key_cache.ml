module Md = Mdl_md.Md
module Hashx = Mdl_util.Hashx
module Metrics = Mdl_obs.Metrics
module Timer = Mdl_util.Timer
module Gid_table = Mdl_util.Gid_table
module Shard_map = Mdl_util.Shard_map
module Domain_pool = Mdl_util.Domain_pool

(* The cache's lookup counts live in the registry only.  The two
   histograms add what a count cannot say: how long uncached column
   walks take and how many rows they emit (the allocation the miss path
   pays).  [cross_bind_hits] is also kept per engine, in [shared],
   because lumpd reports it per model. *)
let c_hits = Metrics.counter "key_cache.hits"

let c_misses = Metrics.counter "key_cache.misses"

let c_cross_bind_hits = Metrics.counter "key_cache.cross_bind_hits"

let m_miss_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-7 ~hi:1.0 ~per_decade:3)
    "key_cache.miss_seconds"

let m_miss_rows =
  Metrics.histogram
    ~buckets:[| 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0 |]
    "key_cache.miss_rows"

(* A cached splitter-key row list is indexed by the *identity* of the
   splitter class at evaluation time: the node whose matrix is being
   walked, one member of the class, and the class size.  Under monotone
   refinement (classes only ever shrink within one bound run) this
   triple pins the member set exactly: the classes containing a given
   element form a descending chain, every actual split strictly shrinks
   each sub-block, so two classes of the chain with equal size are the
   same set.  A split therefore invalidates structurally — the
   (member, size) identity of every affected class changes and the stale
   entries can never be looked up again within the run. *)
(* Packed as one int, [(node * (dim + 1) + member) * (dim + 1) + len]
   with [dim] the largest level size of the bound diagram: member < dim
   and len <= dim, so the encoding is injective, and lookups avoid a
   tuple allocation and its polymorphic hash. *)
type rows_key = int (* node, member, class size *)

(* The lumping configuration a cache's rows were computed under.  Rows
   are a pure function of (diagram, node, members, choice, mode) on the
   one quantization grid; the diagram is pinned by [bind] and the
   members by the row identity, so recording the remaining two at the
   first bind turns the documented "keep them fixed" contract into a
   checked one, and lookups read them instead of taking them. *)
type config = {
  cfg_choice : Local_key.choice;
  cfg_mode : Mdl_lumping.State_lumping.mode;
}

let config_mismatch =
  "Key_cache: key choice / lumping mode differ from the configuration recorded at \
   this cache's first bind (use a fresh cache per configuration)"

(* State shared by reference between a cache and every [fork] of it —
   all of it domain-safe.  [table] is the *global* intern table:
   Local_key -> stable small int (gid), never cleared, so a key pays for
   structural hashing once per miss and cached rows are pure int pairs.
   The per-pass dense ranks the counting sort needs are recovered from
   gids by the ranked pipeline through a stamped array that is
   invalidated every pass; this table must never be.  [sig_table] and [store] are the persistent (sweep-mode) tier:
   member sequences interned to content signatures, and full splitter
   rows keyed by (node, signature) so they survive same-diagram rebinds
   (see [splitter_keys]). *)
type shared = {
  table : Local_key.t Gid_table.t;
  sig_table : int array Gid_table.t; (* splitter-class member sequence -> csig *)
  store : (int * int, int * (int array * int array)) Shard_map.t;
      (* (node, csig) -> birth epoch, (states, gids) *)
  mutable config : config option; (* recorded by the first bind *)
  cross_bind_hits : int Atomic.t;
}

type t = {
  shared : shared;
  mutable md : Md.t option;
  mutable ctx : Local_key.context option;
  mutable dim : int; (* 1 + max level size of the bound diagram *)
  rows : (rows_key, int * (int array * int array)) Hashtbl.t;
      (* epoch, (states, gids) *)
  mutable epoch : int; (* persistent mode: bumped per same-diagram bind *)
  mutable persistent : bool;
  mutable pool : Domain_pool.t option;
  mutable par_threshold : int;
}

let default_par_threshold = 1024

let int_pair_hash (a, b) = Hashx.combine a b

let int_pair_equal ((a, b) : int * int) (c, d) = a = c && b = d

let int_array_equal (a : int array) b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let create () =
  {
    shared =
      {
        table = Gid_table.create ~hash:Local_key.hash ~equal:Local_key.equal ();
        sig_table = Gid_table.create ~hash:Hashx.int_array ~equal:int_array_equal ();
        store = Shard_map.create ~hash:int_pair_hash ~equal:int_pair_equal ();
        config = None;
        cross_bind_hits = Atomic.make 0;
      };
    md = None;
    ctx = None;
    dim = 1;
    rows = Hashtbl.create 1024;
    epoch = 0;
    persistent = false;
    pool = None;
    par_threshold = default_par_threshold;
  }

(* A fork is this cache's single-domain scratch state — rows memo and
   flattening context — rebuilt fresh over the *same* shared
   state (gid table, signature table, persistent row store, recorded
   configuration).  Per-level forks behave exactly like one shared cache
   would: rows keys embed the node id and nodes belong to one level, so
   entries of different levels never collide anyway, and gids stay
   global so cached rows from any fork rank consistently.  The epoch and
   persistence flag are inherited, so rows a fork publishes to the
   persistent store carry the right birth epoch and remain visible to
   the parent (and to later points of a sweep) after the fork dies. *)
let fork t =
  {
    shared = t.shared;
    md = t.md;
    ctx = (match t.md with Some md -> Some (Local_key.make_context md) | None -> None);
    dim = t.dim;
    rows = Hashtbl.create 1024;
    epoch = t.epoch;
    persistent = t.persistent;
    pool = t.pool;
    par_threshold = t.par_threshold;
  }

let set_pool ?par_threshold t pool =
  t.pool <- pool;
  match par_threshold with Some th -> t.par_threshold <- max 1 th | None -> ()

let set_persistent t on =
  if t.persistent <> on then begin
    (* Entering persistence: tier-1 rows may have been computed with the
       singleton skip (sound per bind, not across binds) — drop them so
       everything reachable from now on is a full row list.  Leaving:
       drop the store so a later re-enable cannot see rows of another
       regime, and free the memory. *)
    Hashtbl.reset t.rows;
    Shard_map.clear t.shared.store;
    t.persistent <- on
  end

let persistent t = t.persistent

let cross_bind_hits t = Atomic.get t.shared.cross_bind_hits

let epoch t = t.epoch

(* Record-or-check the lumping configuration.  The one write is the
   first [bind], on the domain that owns the cache and before any fork
   of it exists; forks only read the field, so it needs no atomic. *)
let check_config t choice mode =
  match t.shared.config with
  | Some c ->
      if c.cfg_choice <> choice || c.cfg_mode <> mode then invalid_arg config_mismatch
  | None -> t.shared.config <- Some { cfg_choice = choice; cfg_mode = mode }

let bind ~choice ~mode t md =
  check_config t choice mode;
  match t.md with
  | Some prev when prev == md ->
      (* Same diagram: in persistent mode the rebind is a cheap epoch
         bump — tier-1 entries of earlier epochs stop matching (their
         (member, size) identity may denote a different member set under
         the new run's partitions) and lookups fall through to the
         content-keyed store.  Without persistence this is the classic
         wipe: rows are only sound within one monotone run. *)
      if t.persistent then t.epoch <- t.epoch + 1 else Hashtbl.reset t.rows
  | _ ->
      (* New diagram: node ids restart per diagram, so the persistent
         store's (node, csig) keys from the previous diagram could
         collide with this one's — drop it.  Signatures are plain state
         index sequences (diagram-independent) and keys intern globally,
         so both tables survive. *)
      Hashtbl.reset t.rows;
      if t.persistent then Shard_map.clear t.shared.store;
      t.epoch <- t.epoch + 1;
      t.md <- Some md;
      t.dim <- 1 + Array.fold_left max 0 (Md.sizes md);
      t.ctx <- Some (Local_key.make_context md)

let bound_md ~choice ~mode t =
  (match t.md with Some _ -> check_config t choice mode | None -> ());
  t.md

let context t =
  match t.ctx with
  | Some ctx -> ctx
  | None -> invalid_arg "Key_cache.context: cache not bound to a diagram (use bind)"

let gid_count t = Gid_table.size t.shared.table

let store_size t = Shard_map.size t.shared.store

(* A bound cache always has a recorded configuration: [bind] records it
   before it sets the context. *)
let eval_rows ?skip t node slice =
  let ctx = context t in
  let { cfg_choice; cfg_mode } = Option.get t.shared.config in
  let metered = Metrics.enabled () in
  let t0 = if metered then Timer.now_ns () else 0L in
  let states, keys =
    Local_key.eval_keys ?skip ?pool:t.pool ~par_threshold:t.par_threshold ctx cfg_choice
      cfg_mode node slice
  in
  let gids = Array.map (fun k -> Gid_table.intern t.shared.table k) keys in
  if metered then begin
    Metrics.observe m_miss_seconds
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
    Metrics.observe m_miss_rows (float_of_int (Array.length states))
  end;
  (states, gids)

let splitter_keys ?skip t ~node ((perm, first, len) as slice) =
  let key = (((node * t.dim) + perm.(first)) * t.dim) + len in
  match Hashtbl.find_opt t.rows key with
  | Some (ep, rows) when ep = t.epoch ->
      (* Without persistence every entry carries the current epoch (the
         table is wiped on rebind), so this arm is the plain hit path. *)
      Metrics.incr c_hits;
      rows
  | _ when not t.persistent ->
      Metrics.incr c_misses;
      let rows = eval_rows ?skip t node slice in
      Hashtbl.replace t.rows key (t.epoch, rows);
      rows
  | _ ->
      (* Persistent tier: the class's *content* — its member sequence in
         slice order — is interned to a signature, and full rows keyed
         by (node, csig) survive epoch bumps.  Keying by the sequence
         (not the member set) makes a store hit trivially bit-identical
         to re-evaluation: [eval_keys] accumulates float sums in member
         order, so only an identical walk order may reuse the result
         verbatim.  [skip] is never applied here — a row list must be
         complete to be reusable under a different partition's singleton
         pattern (extra rows for states that are singletons *now* are
         harmless: a class of one can never be split). *)
      let csig = Gid_table.intern t.shared.sig_table (Array.sub perm first len) in
      (match Shard_map.find t.shared.store (node, csig) with
      | Some (born, rows) ->
          Metrics.incr c_hits;
          if born < t.epoch then begin
            Atomic.incr t.shared.cross_bind_hits;
            Metrics.incr c_cross_bind_hits
          end;
          Hashtbl.replace t.rows key (t.epoch, rows);
          rows
      | None ->
          Metrics.incr c_misses;
          let rows = eval_rows t node slice in
          (* First-writer-wins keeps concurrent domains agreeing on one
             published row list (they compute equal ones — the store key
             pins the full evaluation). *)
          let _, rows =
            Shard_map.find_or_add t.shared.store (node, csig) (fun () -> (t.epoch, rows))
          in
          Hashtbl.replace t.rows key (t.epoch, rows);
          rows)
