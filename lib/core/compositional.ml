let log_src = Logs.Src.create "mdl.lump" ~doc:"compositional MD lumping"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Domain_pool = Mdl_util.Domain_pool
module Sortx = Mdl_util.Sortx

let c_nodes_rebuilt = Metrics.counter "rebuild.nodes_rebuilt"

let c_nodes_reused = Metrics.counter "rebuild.nodes_reused"

let c_lumps = Metrics.counter "lump.runs"

let c_sweep_points = Metrics.counter "sweep.points"

let c_sweep_level_fixpoints = Metrics.counter "sweep.level_fixpoints"

let c_sweep_level_reused = Metrics.counter "sweep.level_reused"

let c_sweep_rebuilds = Metrics.counter "sweep.rebuilds"

let c_sweep_rebuild_reused = Metrics.counter "sweep.rebuild_reused"

let m_sweep_point_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-6 ~hi:10.0 ~per_decade:3)
    "sweep.point_seconds"

type result = {
  lumped : Md.t;
  partitions : Partition.t array;
}

(* A level partition is the identity when every state is its own class
   id.  Only then may class ids be used interchangeably with state ids,
   which is what the verbatim-reuse paths below rely on; a discrete but
   renumbered partition (possible through [lump_with_partitions]) does
   not qualify.  [Level_lumping.comp_lumping_level] canonicalises its
   discrete results to the identity, so lump runs always hit the fast
   path when a level does not lump. *)
let is_identity p =
  let n = Partition.size p in
  Partition.num_classes p = n
  &&
  let ok = ref true in
  for s = 0 to n - 1 do
    if Partition.class_of p s <> s then ok := false
  done;
  !ok

(* The rows that make up each class's quotient row, every term taken
   with weight [1 / (number of rows)]: ordinary lumping reads the
   representative's row alone (weight 1); exact lumping averages the
   rows of all members, the aggregated form [R(C_i, C_j) / |C_i|]
   (Theorem 4).  Exact-mode members are listed in descending state
   order, bucketed in one pass per level. *)
let contributing_rows mode p =
  let nc = Partition.num_classes p in
  match mode with
  | Mdl_lumping.State_lumping.Ordinary ->
      Array.init nc (fun ci -> [| Partition.representative p ci |])
  | Mdl_lumping.State_lumping.Exact ->
      let rows = Array.init nc (fun ci -> Array.make (Partition.class_size p ci) 0) in
      let filled = Array.make nc 0 in
      for s = Partition.size p - 1 downto 0 do
        let ci = Partition.class_of p s in
        rows.(ci).(filled.(ci)) <- s;
        filled.(ci) <- filled.(ci) + 1
      done;
      rows

(* One node's quotient rows, emitted through the raw sorted-rows
   constructor, which skips [add_node]'s per-entry hashing, validation
   and sort.  Each class's row folds its contributing rows, in the order
   listed and each with its columns descending, into a dense slot table:
   one float per (touched class C_j, output child), where the output
   children are the node's children under [remap], ranked by ascending
   id.  Every (C_i, C_j) cell thus folds its terms, each scaled by
   1/|rows|, in {e descending} (row, col) order — the order [add_node]
   combines a consed entry list in — and [slot +. c] is bit for bit the
   formal-sum addition [add_node] performs: a cell meets each child at
   most once per term, IEEE addition commutes, and a slot that cancels
   to 0 restarts from [0.0 +. c = c] just as a dropped term does.  So
   the coefficients come out bit-identical to a from-scratch [add_node]
   rebuild (the oracle's reference lumper) and both hash-cons to equal
   diagrams.  A sum with two children that [remap] merges is remapped
   by [Formal_sum.map_children] first, which merges them in exactly the
   order the reference does.  Touched classes are emitted ascending. *)
let quotient_rows md p remap contributors =
  let nc = Partition.num_classes p in
  let stamp = Array.make nc 0 and at = Array.make nc 0 and touched = Array.make nc 0 in
  let gen = ref 0 in
  let slots = ref [||] in
  let seen = ref [||] in
  fun node ->
    let rows = Md.node_rows md node in
    let kids = Md.node_children md node in
    let outs = Array.map remap kids in
    let out_ids = Array.of_list (List.sort_uniq Int.compare (Array.to_list outs)) in
    let nout = Array.length out_ids in
    let kid_slot = Array.map (Sortx.find_sorted out_ids) outs in
    let slot_of child = kid_slot.(Sortx.find_sorted kids child) in
    (* Whether [remap] sends two children of [sum] to one output node. *)
    let merges =
      if nout = Array.length kids then fun _ -> false
      else begin
        if Array.length !seen < nout then seen := Array.make nout 0;
        fun sum ->
          incr gen;
          let g = !gen and seen = !seen in
          Array.exists
            (fun (child, _) ->
              let o = slot_of child in
              seen.(o) = g
              ||
              (seen.(o) <- g;
               false))
            (sum : Formal_sum.t :> (int * float) array)
      end
    in
    Array.init nc (fun ci ->
        incr gen;
        let g = !gen in
        let members = contributors.(ci) in
        let n = Array.length members in
        let w = 1.0 /. float_of_int n in
        let nt = ref 0 in
        let add cj o c =
          let t =
            if stamp.(cj) = g then at.(cj)
            else begin
              let t = !nt in
              stamp.(cj) <- g;
              at.(cj) <- t;
              touched.(t) <- cj;
              incr nt;
              if Array.length !slots < (t + 1) * nout then begin
                let a = Array.make (max ((t + 1) * nout) (2 * Array.length !slots)) 0.0 in
                Array.blit !slots 0 a 0 (t * nout);
                slots := a
              end;
              Array.fill !slots (t * nout) nout 0.0;
              t
            end
          in
          (* A weight of 1 scales nothing, bit for bit: skip the product. *)
          let j = (t * nout) + o in
          !slots.(j) <- (!slots.(j) +. if n = 1 then c else w *. c)
        in
        for k = 0 to n - 1 do
          let row = rows.(members.(k)) in
          for x = Array.length row - 1 downto 0 do
            let c, sum = row.(x) in
            let cj = Partition.class_of p c in
            if merges sum then
              Array.iter
                (fun (o, v) -> add cj (Sortx.find_sorted out_ids o) v)
                (Formal_sum.map_children remap sum :> (int * float) array)
            else begin
              let terms = (sum : Formal_sum.t :> (int * float) array) in
              for y = 0 to Array.length terms - 1 do
                let child, v = terms.(y) in
                add cj (slot_of child) v
              done
            end
          done
        done;
        let cols = Array.sub touched 0 !nt in
        Array.sort Int.compare cols;
        let row = ref [] in
        for x = Array.length cols - 1 downto 0 do
          let cj = cols.(x) in
          let s = Formal_sum.of_slots out_ids !slots (at.(cj) * nout) in
          if not (Formal_sum.is_empty s) then row := (cj, s) :: !row
        done;
        Array.of_list !row)

let rebuild_body mode md partitions =
  let nlevels = Md.levels md in
  let identity = Array.map is_identity partitions in
  if Array.for_all Fun.id identity then begin
    (* Nothing lumps at any level: the lumped diagram is the input
       diagram itself.  Alias it (the result shares the node store)
       instead of copying node by node. *)
    Metrics.add c_nodes_reused (Md.num_live_nodes md);
    md
  end
  else begin
    let new_sizes = Array.map Partition.num_classes partitions in
    let out = Md.create ~sizes:new_sizes in
    let node_map = Hashtbl.create 64 in
    Hashtbl.add node_map (Md.terminal md) (Md.terminal out);
    let remap child =
      match Hashtbl.find_opt node_map child with
      | Some id -> id
      | None -> invalid_arg "Compositional.rebuild: dangling child reference"
    in
    let live = Md.live_nodes md in
    for level = nlevels downto 1 do
      let p = partitions.(level - 1) in
      if identity.(level - 1) then
        (* Identity level: every quotient node is the original node with
           children remapped — import verbatim, skipping the quotient
           entry construction and [add_node]'s validation/sort. *)
        List.iter
          (fun node ->
            Hashtbl.replace node_map node (Md.import_node out ~level md node remap);
            Metrics.incr c_nodes_reused)
          live.(level - 1)
      else begin
        let build = quotient_rows md p remap (contributing_rows mode p) in
        List.iter
          (fun node ->
            Hashtbl.replace node_map node (Md.add_node_sorted_rows out ~level (build node));
            Metrics.incr c_nodes_rebuilt)
          live.(level - 1)
      end
    done;
    Md.set_root out (remap (Md.root md));
    out
  end

let rebuild mode md partitions =
  if not (Trace.enabled ()) then rebuild_body mode md partitions
  else
    Trace.with_span ~cat:"lump" "lump.rebuild" (fun () ->
        let out = rebuild_body mode md partitions in
        Trace.add_args
          [
            ("nodes_in", Trace.Int (Md.num_live_nodes md));
            ("nodes_out", Trace.Int (Md.num_live_nodes out));
            ("aliased", Trace.Bool (out == md));
          ];
        out)

let lump_with_partitions mode md partitions =
  if Array.length partitions <> Md.levels md then
    invalid_arg "Compositional.lump_with_partitions: level count mismatch";
  Array.iteri
    (fun i p ->
      if Partition.size p <> Md.size md (i + 1) then
        invalid_arg "Compositional.lump_with_partitions: partition size mismatch")
    partitions;
  { lumped = rebuild mode md partitions; partitions }

(* ------------------------------------------------------------------ *)
(* The lumping engine: one diagram, one or many reward/initial points. *)

type sweep_stats = {
  points : int;
  level_fixpoints : int;
  level_reused : int;
  rebuilds : int;
  rebuilds_reused : int;
}

(* Both memos are keyed by long int arrays, hashed in full: the
   polymorphic [Hashtbl.hash] reads only a prefix of one, so keys that
   differ only further in would share a bucket. *)
module Int_array_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash = Mdl_util.Hashx.int_array
end)

(* What survives from one point to the next.  [lump] runs a single point
   on a throwaway engine (fresh cache, empty memos); a sweep engine keeps
   its cache and both memos warm across points. *)
type sweep = {
  sw_mode : Mdl_lumping.State_lumping.mode;
  sw_md : Md.t;
  sw_key : Local_key.choice;
  sw_cache : Key_cache.t;
  sw_pool : Domain_pool.t option;
  sw_level_memo : int array Int_array_tbl.t array;
      (* per level: initial layout -> final canonical assignment *)
  sw_rebuild_memo : Md.t Int_array_tbl.t;
      (* concatenated final assignments -> lumped diagram *)
  mutable sw_points : int;
  mutable sw_level_fixpoints : int;
  mutable sw_level_reused : int;
  mutable sw_rebuilds : int;
  mutable sw_rebuilds_reused : int;
}

let engine ?(key = Local_key.Formal_sums) ?cache ?pool mode md =
  let cache = match cache with Some c -> c | None -> Key_cache.create () in
  {
    sw_mode = mode;
    sw_md = md;
    sw_key = key;
    sw_cache = cache;
    sw_pool = pool;
    sw_level_memo = Array.init (Md.levels md) (fun _ -> Int_array_tbl.create 16);
    sw_rebuild_memo = Int_array_tbl.create 16;
    sw_points = 0;
    sw_level_fixpoints = 0;
    sw_level_reused = 0;
    sw_rebuilds = 0;
    sw_rebuilds_reused = 0;
  }

(* One flat int array capturing a partition completely — class order,
   member order, class contents: [len c0; members of c0 in slice order;
   len c1; ...].  Refinement is deterministic given this layout (the
   engine works on a layout-preserving copy of the initial partition),
   so it is the sound memo key for a level's fixed point.  A coarser
   key — the class *set*, i.e. {!Partition.canonical_assignment} alone —
   would be value-correct but could let a memo hit diverge bitwise from
   a fresh run at a quantization-grid boundary, because splitter-key
   float sums accumulate in member order. *)
let layout_key p =
  let n = Partition.size p in
  let nc = Partition.num_classes p in
  let out = Array.make (n + nc) 0 in
  let w = ref 0 in
  for c = 0 to nc - 1 do
    let perm, first, len = Partition.view p c in
    out.(!w) <- len;
    incr w;
    Array.blit perm first out !w len;
    w := !w + len
  done;
  out

let is_identity_assignment a =
  let ok = ref true in
  Array.iteri (fun i c -> if c <> i then ok := false) a;
  !ok

(* One level of one point: its initial partition, the memo lookup, and
   the fixed point ([refined] is false when the memo served it). *)
type level_outcome = {
  p_ini : Partition.t;
  layout : int array;
  final : Partition.t;
  refined : bool;
}

(* The only level loop: [lump] and [sweep_point] both come through
   here.  Levels are algorithmically independent — each computes its own
   initial partition and fixed point from [md] alone — so with a pool
   they run concurrently, each on its own domain, and share nothing
   mutable: each writes only its own record of the engine's cache, the
   memo is only read there, and every other write (memo entries, engine
   counters) happens afterwards on this domain, in level order, so
   totals equal a sequential run's whatever order levels finished in.
   The level is the only parallel unit: nothing inside one shards, and
   the rebuild runs on this domain.  A [Trace.Ctx] is single-owner, so
   traced runs keep levels sequential. *)
let run_point sw ~rewards ~initial =
  let md = sw.sw_md and mode = sw.sw_mode in
  let nlevels = Md.levels md in
  (* The intern tables and (same-md) compiled lines and contexts
     survive the rebind.  Binding with the run's configuration makes a
     mismatched shared cache fail loudly here instead of deep inside a
     splitter pass.  The bind writes the cache's engine-level fields,
     so it comes before any level task starts. *)
  Key_cache.bind ~choice:sw.sw_key ~mode sw.sw_cache md;
  let level_work i =
    let level = i + 1 in
    let p_ini =
      Trace.with_span ~cat:"lump" "lump.initial_partition" (fun () ->
          Level_lumping.initial_partition mode md ~level ~rewards ~initial)
    in
    let layout = layout_key p_ini in
    match Int_array_tbl.find_opt sw.sw_level_memo.(i) layout with
    | Some assignment ->
        (* The memoised fixed point is replayed from its canonical
           assignment; [comp_lumping_level] canonicalises exactly the
           same way (discrete -> identity, otherwise renumber by first
           appearance), so this partition equals the one a fresh run
           would return — layout included. *)
        let final =
          if is_identity_assignment assignment then
            Partition.discrete (Array.length assignment)
          else Partition.of_class_assignment assignment
        in
        { p_ini; layout; final; refined = false }
    | None ->
        let final =
          Level_lumping.comp_lumping_level ~key:sw.sw_key ~cache:sw.sw_cache mode md ~level
            ~initial:p_ini
        in
        { p_ini; layout; final; refined = true }
  in
  let levels =
    match sw.sw_pool with
    | Some pl when Domain_pool.size pl > 1 && nlevels > 1 && not (Trace.enabled ()) ->
        let results = Array.make nlevels None in
        Domain_pool.run pl ~n:nlevels (fun i -> results.(i) <- Some (level_work i));
        Array.map Option.get results
    | _ ->
        Array.init nlevels (fun i ->
            Trace.with_span ~cat:"lump"
              ~args:[ ("level", Trace.Int (i + 1)) ]
              "lump.level"
              (fun () ->
                let l = level_work i in
                Trace.add_args
                  [
                    ("classes_initial", Trace.Int (Partition.num_classes l.p_ini));
                    ("classes", Trace.Int (Partition.num_classes l.final));
                  ];
                l))
  in
  Array.iteri
    (fun i l ->
      if not l.refined then sw.sw_level_reused <- sw.sw_level_reused + 1
      else begin
        sw.sw_level_fixpoints <- sw.sw_level_fixpoints + 1;
        (* [final] is canonical, so [to_class_assignment] already is the
           canonical assignment. *)
        Int_array_tbl.replace sw.sw_level_memo.(i) l.layout
          (Partition.to_class_assignment l.final);
        Log.debug (fun m ->
            m "level %d: %d -> %d classes (P_ini %d)" (i + 1) (Partition.size l.final)
              (Partition.num_classes l.final)
              (Partition.num_classes l.p_ini))
      end)
    levels;
  let partitions = Array.map (fun l -> l.final) levels in
  (* Per-level assignment lengths are fixed by the diagram, so the plain
     concatenation is an injective key for the partition tuple. *)
  let rebuild_key =
    Array.concat (Array.to_list (Array.map Partition.to_class_assignment partitions))
  in
  match Int_array_tbl.find_opt sw.sw_rebuild_memo rebuild_key with
  | Some lumped ->
      (* The quotient is a pure function of (diagram, partitions, mode):
         equal canonical assignments rebuild to an [Md.equal] diagram,
         so the previously built one is aliased.  A replay counts no
         [rebuild.nodes_rebuilt] or [rebuild.nodes_reused]. *)
      sw.sw_rebuilds_reused <- sw.sw_rebuilds_reused + 1;
      { lumped; partitions }
  | None ->
      sw.sw_rebuilds <- sw.sw_rebuilds + 1;
      let r, dt = Mdl_util.Timer.time (fun () -> lump_with_partitions mode md partitions) in
      Log.debug (fun m ->
          m "rebuild: %d nodes -> %d nodes in %.3fs%s" (Md.num_live_nodes md)
            (Md.num_live_nodes r.lumped) dt
            (if r.lumped == md then " (aliased: nothing lumped)" else ""));
      Int_array_tbl.add sw.sw_rebuild_memo rebuild_key r.lumped;
      r

let lump ?key ?cache ?pool mode md ~rewards ~initial =
  Metrics.incr c_lumps;
  let sw = engine ?key ?cache ?pool mode md in
  if not (Trace.enabled ()) then run_point sw ~rewards ~initial
  else
    Trace.with_span ~cat:"lump"
      ~args:[ ("levels", Trace.Int (Md.levels md)) ]
      "lump"
      (fun () -> run_point sw ~rewards ~initial)

let sweep_create ?pool mode md = engine ?pool mode md

let sweep_point sw ~rewards ~initial =
  sw.sw_points <- sw.sw_points + 1;
  Metrics.incr c_sweep_points;
  let fixpoints0 = sw.sw_level_fixpoints and reused0 = sw.sw_level_reused in
  let rebuilds0 = sw.sw_rebuilds and rebuilds_reused0 = sw.sw_rebuilds_reused in
  let traced () =
    if not (Trace.enabled ()) then run_point sw ~rewards ~initial
    else
      Trace.with_span ~cat:"lump"
        ~args:[ ("point", Trace.Int sw.sw_points) ]
        "sweep.point"
        (fun () ->
          let r = run_point sw ~rewards ~initial in
          Trace.add_args
            [
              ("levels_reused", Trace.Int (sw.sw_level_reused - reused0));
              ("rebuilt", Trace.Bool (sw.sw_rebuilds > rebuilds0));
              ("nodes_out", Trace.Int (Md.num_live_nodes r.lumped));
            ];
          r)
  in
  let r =
    if not (Metrics.enabled ()) then traced ()
    else begin
      let r, dt = Mdl_util.Timer.time traced in
      Metrics.observe m_sweep_point_seconds dt;
      r
    end
  in
  Metrics.add c_sweep_level_fixpoints (sw.sw_level_fixpoints - fixpoints0);
  Metrics.add c_sweep_level_reused (sw.sw_level_reused - reused0);
  Metrics.add c_sweep_rebuilds (sw.sw_rebuilds - rebuilds0);
  Metrics.add c_sweep_rebuild_reused (sw.sw_rebuilds_reused - rebuilds_reused0);
  r

let sweep_stats sw =
  {
    points = sw.sw_points;
    level_fixpoints = sw.sw_level_fixpoints;
    level_reused = sw.sw_level_reused;
    rebuilds = sw.sw_rebuilds;
    rebuilds_reused = sw.sw_rebuilds_reused;
  }

let sweep_cache sw = sw.sw_cache

let class_tuple r s =
  if Array.length s <> Array.length r.partitions then
    invalid_arg "Compositional.class_tuple: tuple length mismatch";
  Array.mapi (fun i si -> Partition.class_of r.partitions.(i) si) s

let class_volume r ct =
  if Array.length ct <> Array.length r.partitions then
    invalid_arg "Compositional.class_volume: tuple length mismatch";
  let vol = ref 1 in
  Array.iteri (fun i ci -> vol := !vol * Partition.class_size r.partitions.(i) ci) ct;
  !vol

let lump_statespace r ss =
  if Statespace.levels ss <> Array.length r.partitions then
    invalid_arg "Compositional.lump_statespace: level count mismatch";
  Statespace.relabel ss (fun l v -> Partition.class_of r.partitions.(l - 1) v)

let is_closed r ss lumped_ss =
  let levels = Array.length r.partitions in
  if Statespace.levels ss <> levels || Statespace.levels lumped_ss <> levels then
    invalid_arg "Compositional.is_closed: level count mismatch";
  (* Each reachable state lies in exactly one class of the image, and a
     class holds at most its volume of reachable states: the set is a
     union of classes iff the volumes add up to its size. *)
  let n = Statespace.size ss and total = ref 0 in
  (try
     Statespace.iter
       (fun _ ct ->
         total := !total + class_volume r ct;
         if !total > n then raise Exit)
       lumped_ss
   with Exit -> ());
  !total = n

let check_sizes r ss lumped_ss v fn =
  if Array.length v <> Statespace.size ss then
    invalid_arg (Printf.sprintf "Compositional.%s: vector size mismatch" fn);
  (* The lumped side must actually be a lumped image under [r]: same
     number of levels, every substate a valid class id.  Without this, a
     statespace belonging to a different model slips through and the
     per-class sums land in the wrong slots (or divide by zero in
     [average_vector]). *)
  let levels = Array.length r.partitions in
  if Statespace.levels ss <> levels then
    invalid_arg (Printf.sprintf "Compositional.%s: statespace level count mismatch" fn);
  if Statespace.levels lumped_ss <> levels then
    invalid_arg
      (Printf.sprintf "Compositional.%s: lumped statespace level count mismatch" fn);
  Statespace.iter
    (fun _ ct ->
      Array.iteri
        (fun i ci ->
          if ci < 0 || ci >= Partition.num_classes r.partitions.(i) then
            invalid_arg
              (Printf.sprintf "Compositional.%s: lumped statespace class id out of range"
                 fn))
        ct)
    lumped_ss

let aggregate_vector r ss lumped_ss v =
  check_sizes r ss lumped_ss v "aggregate_vector";
  let out = Array.make (Statespace.size lumped_ss) 0.0 in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (class_tuple r s) with
      | Some j -> out.(j) <- out.(j) +. v.(i)
      | None -> invalid_arg "Compositional.aggregate_vector: class tuple not in lumped space")
    ss;
  out

let average_vector r ss lumped_ss v =
  check_sizes r ss lumped_ss v "average_vector";
  let out = Array.make (Statespace.size lumped_ss) 0.0 in
  let counts = Array.make (Statespace.size lumped_ss) 0 in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (class_tuple r s) with
      | Some j ->
          out.(j) <- out.(j) +. v.(i);
          counts.(j) <- counts.(j) + 1
      | None -> invalid_arg "Compositional.average_vector: class tuple not in lumped space")
    ss;
  Array.mapi
    (fun j total ->
      (* A lumped state no flat state maps to has no average; dividing
         would silently poison the vector with a nan. *)
      if counts.(j) = 0 then
        invalid_arg
          "Compositional.average_vector: lumped state receives no flat states (is \
           lumped_ss the image of ss?)"
      else total /. float_of_int counts.(j))
    out

let representative_pick r l c = Partition.representative r.partitions.(l - 1) c

let lumped_sizes r = Array.map Partition.num_classes r.partitions

let lumped_rewards r d =
  Decomposed.relabel d ~new_sizes:(lumped_sizes r) ~pick:(representative_pick r)
