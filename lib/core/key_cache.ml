module Md = Mdl_md.Md
module Hashx = Mdl_util.Hashx
module Metrics = Mdl_obs.Metrics
module Timer = Mdl_util.Timer

(* The cache's lookup counts live in the registry.  The two histograms
   add what a count cannot say: how long key evaluations take and how
   many rows they emit (the allocation a miss pays).  [cross_bind_hits]
   is also kept per level record, because lumpd reports it per model. *)
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

(* The lumping configuration a cache's rows were computed under.  Rows
   are a pure function of (diagram, level, members, choice, mode) on the
   one quantization grid; the diagram is pinned by [bind] and the
   members by the store key, so recording the remaining two at the
   first bind turns the documented "keep them fixed" contract into a
   checked one, and lookups read them instead of taking them. *)
type config = {
  cfg_choice : Local_key.choice;
  cfg_mode : Mdl_lumping.State_lumping.mode;
}

let config_mismatch =
  "Key_cache: key choice / lumping mode differ from the configuration recorded at \
   this cache's first bind (use a fresh cache per configuration)"

(* Keyed by a splitter's member sequence, hashed in full: the
   polymorphic [Hashtbl.hash] stops after a prefix of a long one. *)
module Store = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash = Hashx.int_array
end)

(* Everything one level's refinement writes.  A level task running on
   its own domain therefore writes nothing another task reads.  [keys]
   holds the level's accumulator and the intern tables of its keys
   (never cleared: a key pays for hashing once per miss, and rows are
   pure int pairs); [lines] is its live nodes compiled for key
   evaluation, once per bound diagram; [store] holds, in persistent
   (sweep) mode, full rows keyed by the splitter's member sequence,
   which survive same-diagram rebinds (see [splitter_keys]).  [owner]
   is read-only here: its fields are written by [bind] and
   [set_persistent] only, before any level task starts. *)
type level = {
  owner : t;
  number : int;
  keys : Local_key.accumulator;
  store : (int * (int array * int array)) Store.t; (* members -> birth epoch, rows *)
  mutable lines : Local_key.lines option;
  mutable ctx : Local_key.context;
  mutable cross_bind_hits : int;
}

and t = {
  mutable md : Md.t option;
  mutable levels : level array;
      (* one record per level of the deepest diagram bound so far *)
  mutable epoch : int; (* bumped per bind *)
  mutable persistent : bool;
  mutable config : config option; (* recorded by the first bind *)
}

let create () = { md = None; levels = [||]; epoch = 0; persistent = false; config = None }

let set_persistent t on =
  if t.persistent <> on then begin
    (* Leaving persistence drops the stores, so a later re-enable cannot
       see rows of another regime, and frees the memory. *)
    Array.iter (fun lv -> Store.reset lv.store) t.levels;
    t.persistent <- on
  end

let persistent t = t.persistent

let sum_levels f t = Array.fold_left (fun acc lv -> acc + f lv) 0 t.levels

let cross_bind_hits t = sum_levels (fun lv -> lv.cross_bind_hits) t

let gid_count t = sum_levels (fun lv -> Local_key.interned lv.keys) t

let store_size t = sum_levels (fun lv -> Store.length lv.store) t

let epoch t = t.epoch

(* Record-or-check the lumping configuration.  The one write is the
   first [bind]; lookups only read the field. *)
let check_config t choice mode =
  match t.config with
  | Some c ->
      if c.cfg_choice <> choice || c.cfg_mode <> mode then invalid_arg config_mismatch
  | None -> t.config <- Some { cfg_choice = choice; cfg_mode = mode }

let new_level owner md number =
  {
    owner;
    number;
    keys = Local_key.accumulator ();
    store = Store.create 64;
    lines = None;
    ctx = Local_key.make_context md;
    cross_bind_hits = 0;
  }

let bind ~choice ~mode t md =
  check_config t choice mode;
  (match t.md with
  | Some prev when prev == md ->
      (* Same diagram: the compiled lines, contexts and stores stay; the
         epoch bump is what tells a later store hit from one of this
         run. *)
      ()
  | _ ->
      (* New diagram: node ids restart per diagram, so the compiled
         lines and the contexts (which memoise nodes) go, and so do the
         stores, whose rows hold keys of this diagram's nodes.  A gid is
         only ever compared with gids of the same pass, so the intern
         tables survive; records of levels the new diagram lacks are
         kept for a deeper one. *)
      Array.iter
        (fun lv ->
          Store.reset lv.store;
          lv.lines <- None;
          lv.ctx <- Local_key.make_context md)
        t.levels;
      let have = Array.length t.levels in
      if Md.levels md > have then
        t.levels <-
          Array.append t.levels
            (Array.init (Md.levels md - have) (fun i -> new_level t md (have + i + 1)));
      t.md <- Some md);
  t.epoch <- t.epoch + 1

let bound_md ~choice ~mode t =
  (match t.md with Some _ -> check_config t choice mode | None -> ());
  t.md

let for_level t l =
  match t.md with
  | None -> invalid_arg "Key_cache.for_level: cache not bound to a diagram (use bind)"
  | Some md ->
      if l < 1 || l > Md.levels md then invalid_arg "Key_cache.for_level: level out of range";
      t.levels.(l - 1)

(* A bound cache always has a recorded configuration and a diagram:
   [bind] sets both before any record is handed out. *)
let eval_rows ?skip lv slice =
  let { cfg_choice; cfg_mode } = Option.get lv.owner.config in
  let lines =
    match lv.lines with
    | Some lines -> lines
    | None ->
        let lines = Local_key.compile (Option.get lv.owner.md) cfg_mode ~level:lv.number in
        lv.lines <- Some lines;
        lines
  in
  let metered = Metrics.enabled () in
  let t0 = if metered then Timer.now_ns () else 0L in
  let ((states, _) as rows) =
    Local_key.level_keys ?skip lv.ctx cfg_choice lines lv.keys slice
  in
  if metered then begin
    Metrics.observe m_miss_seconds
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
    Metrics.observe m_miss_rows (float_of_int (Array.length states))
  end;
  rows

let splitter_keys ?skip lv ((perm, first, len) as slice) =
  let t = lv.owner in
  if not t.persistent then begin
    Metrics.incr c_misses;
    eval_rows ?skip lv slice
  end
  else begin
    (* Keying by the member sequence (not the member set) makes a store
       hit bit-identical to re-evaluation: keys accumulate float sums in
       member order, so only an identical walk order may reuse the
       result verbatim.  [skip] is never applied here: a row list must
       be complete to be reusable under another partition's singleton
       pattern (extra rows for states that are singletons now are
       harmless: a class of one can never be split). *)
    let members = Array.sub perm first len in
    match Store.find_opt lv.store members with
    | Some (born, rows) ->
        Metrics.incr c_hits;
        if born < t.epoch then begin
          lv.cross_bind_hits <- lv.cross_bind_hits + 1;
          Metrics.incr c_cross_bind_hits
        end;
        rows
    | None ->
        Metrics.incr c_misses;
        let rows = eval_rows lv slice in
        Store.add lv.store members (t.epoch, rows);
        rows
  end
