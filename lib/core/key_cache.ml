module Md = Mdl_md.Md
module Metrics = Mdl_obs.Metrics
module Timer = Mdl_util.Timer

(* Every lookup evaluates, so the registry's [refiner.splitter_passes]
   already counts them.  The two histograms add what a count cannot
   say: how long key evaluations take and how many rows they emit. *)
let m_eval_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-7 ~hi:1.0 ~per_decade:3)
    "key_cache.eval_seconds"

let m_eval_rows =
  Metrics.histogram
    ~buckets:[| 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0 |]
    "key_cache.eval_rows"

(* The lumping configuration a cache's rows are computed under.  Rows
   are a pure function of (diagram, level, members, choice, mode) on the
   one quantization grid; the diagram is pinned by [bind], so recording
   the remaining two at the first bind turns the documented "keep them
   fixed" contract into a checked one, and lookups read them instead of
   taking them. *)
type config = {
  cfg_choice : Local_key.choice;
  cfg_mode : Mdl_lumping.State_lumping.mode;
}

let config_mismatch =
  "Key_cache: key choice / lumping mode differ from the configuration recorded at \
   this cache's first bind (use a fresh cache per configuration)"

(* Everything one level's refinement writes.  A level task running on
   its own domain therefore writes nothing another task reads.  [keys]
   holds the level's accumulator and the intern tables of its keys
   (never cleared: a key pays for hashing once, and rows are pure int
   pairs); [lines] is its live nodes compiled for key evaluation, once
   per bound diagram.  [owner] is read-only here: its fields are
   written by [bind] only, before any level task starts. *)
type level = {
  owner : t;
  number : int;
  keys : Local_key.accumulator;
  mutable lines : Local_key.lines option;
  mutable ctx : Local_key.context;
}

and t = {
  mutable md : Md.t option;
  mutable levels : level array;
      (* one record per level of the deepest diagram bound so far *)
  mutable config : config option; (* recorded by the first bind *)
}

let create () = { md = None; levels = [||]; config = None }

let gid_count t = Array.fold_left (fun acc lv -> acc + Local_key.interned lv.keys) 0 t.levels

let store_size _ = 0

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
    lines = None;
    ctx = Local_key.make_context md;
  }

let bind ~choice ~mode t md =
  check_config t choice mode;
  match t.md with
  | Some prev when prev == md -> (* Same diagram: the compiled lines and contexts stay. *) ()
  | _ ->
      (* New diagram: node ids restart per diagram, so the compiled
         lines and the contexts (which memoise nodes) go.  A gid is only
         ever compared with gids of the same pass, so the intern tables
         survive; records of levels the new diagram lacks are kept for a
         deeper one. *)
      Array.iter
        (fun lv ->
          lv.lines <- None;
          lv.ctx <- Local_key.make_context md)
        t.levels;
      let have = Array.length t.levels in
      if Md.levels md > have then
        t.levels <-
          Array.append t.levels
            (Array.init (Md.levels md - have) (fun i -> new_level t md (have + i + 1)));
      t.md <- Some md

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
let splitter_keys ?skip lv slice =
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
    Metrics.observe m_eval_seconds
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
    Metrics.observe m_eval_rows (float_of_int (Array.length states))
  end;
  rows
