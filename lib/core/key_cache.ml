module Md = Mdl_md.Md
module Hashx = Mdl_util.Hashx
module Metrics = Mdl_obs.Metrics
module Timer = Mdl_util.Timer

(* The cache's lookup counts live in the registry.  The two histograms
   add what a count cannot say: how long uncached column walks take and
   how many rows they emit (the allocation the miss path pays).
   [cross_bind_hits] is also kept per level record, because lumpd
   reports it per model. *)
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

(* Intern tables hand out dense ids by first appearance.  Both keep a
   hash that reads the whole value: the polymorphic [Hashtbl.hash]
   stops after a prefix of a long member sequence. *)
module Interned (H : Hashtbl.HashedType) = struct
  include Hashtbl.Make (H)

  let intern t k =
    match find t k with
    | id -> id
    | exception Not_found ->
        let id = length t in
        add t k id;
        id
end

module Key_table = Interned (Local_key)

module Sig_table = Interned (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash = Hashx.int_array
end)

module Store = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d

  let hash (a, b) = Hashx.combine a b
end)

(* Everything one level's refinement writes.  A node belongs to exactly
   one level, the rows memo and the store key every entry by its node,
   and an interned id is only compared within one node's pass or store
   key, so giving each level its own tables changes no lookup's answer
   — and a level task running on its own domain then writes nothing
   another task reads.  [gids] interns keys to ids (never
   cleared: a key pays for structural hashing once per miss and cached
   rows are pure int pairs); the per-pass dense ranks the counting sort
   needs are recovered from gids by the ranked pipeline.  [sigs] and
   [store] are the persistent (sweep-mode) tier: member sequences
   interned to content signatures, and full splitter rows keyed by
   (node, signature) so they survive same-diagram rebinds (see
   [splitter_keys]).  [owner] is read-only here: its fields are written
   by [bind] and [set_persistent] only, before any level task starts. *)
type level = {
  owner : t;
  gids : int Key_table.t;
  sigs : int Sig_table.t; (* splitter-class member sequence -> csig *)
  store : (int * (int array * int array)) Store.t;
      (* (node, csig) -> birth epoch, (states, gids) *)
  rows : (rows_key, int * (int array * int array)) Hashtbl.t; (* epoch, (states, gids) *)
  mutable ctx : Local_key.context;
  mutable cross_bind_hits : int;
}

and t = {
  mutable md : Md.t option;
  mutable levels : level array;
      (* one record per level of the deepest diagram bound so far *)
  mutable dim : int; (* 1 + max level size of the bound diagram *)
  mutable epoch : int; (* persistent mode: bumped per same-diagram bind *)
  mutable persistent : bool;
  mutable config : config option; (* recorded by the first bind *)
}

let create () =
  { md = None; levels = [||]; dim = 1; epoch = 0; persistent = false; config = None }

let drop_rows lv =
  Hashtbl.reset lv.rows;
  Store.reset lv.store

let set_persistent t on =
  if t.persistent <> on then begin
    (* Entering persistence: tier-1 rows may have been computed with the
       singleton skip (sound per bind, not across binds) — drop them so
       everything reachable from now on is a full row list.  Leaving:
       drop the store so a later re-enable cannot see rows of another
       regime, and free the memory. *)
    Array.iter drop_rows t.levels;
    t.persistent <- on
  end

let persistent t = t.persistent

let sum_levels f t = Array.fold_left (fun acc lv -> acc + f lv) 0 t.levels

let cross_bind_hits t = sum_levels (fun lv -> lv.cross_bind_hits) t

let gid_count t = sum_levels (fun lv -> Key_table.length lv.gids) t

let store_size t = sum_levels (fun lv -> Store.length lv.store) t

let epoch t = t.epoch

(* Record-or-check the lumping configuration.  The one write is the
   first [bind]; lookups only read the field. *)
let check_config t choice mode =
  match t.config with
  | Some c ->
      if c.cfg_choice <> choice || c.cfg_mode <> mode then invalid_arg config_mismatch
  | None -> t.config <- Some { cfg_choice = choice; cfg_mode = mode }

let new_level owner md =
  {
    owner;
    gids = Key_table.create 1024;
    sigs = Sig_table.create 64;
    store = Store.create 64;
    rows = Hashtbl.create 1024;
    ctx = Local_key.make_context md;
    cross_bind_hits = 0;
  }

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
      if t.persistent then t.epoch <- t.epoch + 1
      else Array.iter (fun lv -> Hashtbl.reset lv.rows) t.levels
  | _ ->
      (* New diagram: node ids restart per diagram, so the persistent
         store's (node, csig) keys from the previous diagram could
         collide with this one's — drop them, and the contexts, which
         memoise nodes.  Signatures are plain state index sequences
         (diagram-independent) and an id is only ever compared with ids
         of the same pass, so both intern tables survive; records of
         levels the new diagram lacks are kept for a deeper one. *)
      Array.iter
        (fun lv ->
          drop_rows lv;
          lv.ctx <- Local_key.make_context md)
        t.levels;
      let have = Array.length t.levels in
      if Md.levels md > have then
        t.levels <-
          Array.append t.levels (Array.init (Md.levels md - have) (fun _ -> new_level t md));
      t.epoch <- t.epoch + 1;
      t.md <- Some md;
      t.dim <- 1 + Array.fold_left max 0 (Md.sizes md)

let bound_md ~choice ~mode t =
  (match t.md with Some _ -> check_config t choice mode | None -> ());
  t.md

let for_level t l =
  match t.md with
  | None -> invalid_arg "Key_cache.for_level: cache not bound to a diagram (use bind)"
  | Some md ->
      if l < 1 || l > Md.levels md then invalid_arg "Key_cache.for_level: level out of range";
      t.levels.(l - 1)

(* A bound cache always has a recorded configuration: [bind] records it
   before it allocates the level records. *)
let eval_rows ?skip lv node slice =
  let { cfg_choice; cfg_mode } = Option.get lv.owner.config in
  let metered = Metrics.enabled () in
  let t0 = if metered then Timer.now_ns () else 0L in
  let states, keys = Local_key.eval_keys ?skip lv.ctx cfg_choice cfg_mode node slice in
  let gids = Array.map (Key_table.intern lv.gids) keys in
  if metered then begin
    Metrics.observe m_miss_seconds
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
    Metrics.observe m_miss_rows (float_of_int (Array.length states))
  end;
  (states, gids)

let splitter_keys ?skip lv ~node ((perm, first, len) as slice) =
  let t = lv.owner in
  let key = (((node * t.dim) + perm.(first)) * t.dim) + len in
  match Hashtbl.find_opt lv.rows key with
  | Some (ep, rows) when ep = t.epoch ->
      (* Without persistence every entry carries the current epoch (the
         table is wiped on rebind), so this arm is the plain hit path. *)
      Metrics.incr c_hits;
      rows
  | _ when not t.persistent ->
      Metrics.incr c_misses;
      let rows = eval_rows ?skip lv node slice in
      Hashtbl.replace lv.rows key (t.epoch, rows);
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
      let csig = Sig_table.intern lv.sigs (Array.sub perm first len) in
      let rows =
        match Store.find_opt lv.store (node, csig) with
        | Some (born, rows) ->
            Metrics.incr c_hits;
            if born < t.epoch then begin
              lv.cross_bind_hits <- lv.cross_bind_hits + 1;
              Metrics.incr c_cross_bind_hits
            end;
            rows
        | None ->
            Metrics.incr c_misses;
            let rows = eval_rows lv node slice in
            Store.add lv.store (node, csig) (t.epoch, rows);
            rows
      in
      Hashtbl.replace lv.rows key (t.epoch, rows);
      rows
