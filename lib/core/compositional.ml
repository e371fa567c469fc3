let log_src = Logs.Src.create "mdl.lump" ~doc:"compositional MD lumping"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Domain_pool = Mdl_util.Domain_pool

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

let bump_rebuilt stats n =
  Metrics.add c_nodes_rebuilt n;
  match stats with
  | Some st -> st.Refiner.nodes_rebuilt <- st.Refiner.nodes_rebuilt + n
  | None -> ()

let bump_reused stats n =
  Metrics.add c_nodes_reused n;
  match stats with
  | Some st -> st.Refiner.nodes_reused <- st.Refiner.nodes_reused + n
  | None -> ()

(* How many pool tasks to cut [n] work items into: enough for dynamic
   load balancing, bounded so per-task overhead stays negligible. *)
let task_count pool n = min n (4 * Domain_pool.size pool)

let rebuild_body ?stats ?pool ?(par_threshold = 1024) mode md partitions =
  let nlevels = Md.levels md in
  let identity = Array.map is_identity partitions in
  if Array.for_all Fun.id identity then begin
    (* Nothing lumps at any level: the lumped diagram is the input
       diagram itself.  Alias it (the result shares the node store)
       instead of copying node by node. *)
    bump_reused stats (Md.num_live_nodes md);
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
            bump_reused stats 1)
          live.(level - 1)
      else begin
        (* Fast quotient build: flat class-indexed accumulation emitted
           through the raw sorted-rows constructor, skipping
           [add_node]'s per-entry hashing/validation/sort.  Entries are
           folded in {e descending} (row, col) order — the order
           [add_node] combines a consed entry list in — so the
           floating-point coefficients come out bit-identical to a
           from-scratch [add_node] rebuild (the oracle's reference
           lumper) and both hash-cons to equal diagrams. *)
        let nc = Partition.num_classes p in
        (* Per-node quotient rows are computed independently (per-task
           scratch, untouched per-node fold order), so they can be
           produced on any domain; the [add_node_sorted_rows] commits —
           hash-consing into the shared store — run on this domain in
           node order, which keeps node ids, cons-table state and the
           [node_map] exactly as the sequential build makes them. *)
        let build =
          match mode with
          | Mdl_lumping.State_lumping.Ordinary ->
              (* Representative rows, class-summed columns. *)
              fun () ->
                let acc = Array.make nc Formal_sum.empty in
                let seen = Array.make nc false in
                fun node ->
                  let rows = Array.make nc [||] in
                  for ci = 0 to nc - 1 do
                    let rep = Partition.representative p ci in
                    let cols = ref [] in
                    Md.rev_iter_node_row md node rep (fun c sum ->
                        let cj = Partition.class_of p c in
                        if not seen.(cj) then begin
                          seen.(cj) <- true;
                          cols := cj :: !cols
                        end;
                        acc.(cj) <-
                          Formal_sum.add acc.(cj) (Formal_sum.map_children remap sum));
                    let row =
                      List.filter_map
                        (fun cj ->
                          let s = acc.(cj) in
                          acc.(cj) <- Formal_sum.empty;
                          seen.(cj) <- false;
                          if Formal_sum.is_empty s then None else Some (cj, s))
                        (List.sort compare !cols)
                    in
                    rows.(ci) <- Array.of_list row
                  done;
                  rows
          | Mdl_lumping.State_lumping.Exact ->
              (* Aggregated form: all entries, scaled by 1/|C_row|. *)
              fun () ->
                let acc = Array.make (nc * nc) Formal_sum.empty in
                let seen = Array.make (nc * nc) false in
                fun node ->
                  let touched = ref [] in
                  Md.rev_iter_node_entries md node (fun r c sum ->
                      let ci = Partition.class_of p r in
                      let w = 1.0 /. float_of_int (Partition.class_size p ci) in
                      let idx = (ci * nc) + Partition.class_of p c in
                      if not seen.(idx) then begin
                        seen.(idx) <- true;
                        touched := idx :: !touched
                      end;
                      acc.(idx) <-
                        Formal_sum.add acc.(idx)
                          (Formal_sum.scale w (Formal_sum.map_children remap sum)));
                  let per_row = Array.make nc [] in
                  (* Descending index order, so each row list conses up
                     ascending. *)
                  List.iter
                    (fun idx ->
                      let s = acc.(idx) in
                      acc.(idx) <- Formal_sum.empty;
                      seen.(idx) <- false;
                      if not (Formal_sum.is_empty s) then
                        per_row.(idx / nc) <- ((idx mod nc), s) :: per_row.(idx / nc))
                    (List.sort (fun a b -> compare (b : int) a) !touched);
                  Array.map Array.of_list per_row
        in
        let nodes = Array.of_list live.(level - 1) in
        let nnodes = Array.length nodes in
        let commit rows_of =
          Array.iteri
            (fun i node ->
              Hashtbl.replace node_map node (Md.add_node_sorted_rows out ~level (rows_of i));
              bump_rebuilt stats 1)
            nodes
        in
        match pool with
        | Some pool
          when Domain_pool.size pool > 1 && nnodes > 1 && nnodes * nc >= par_threshold ->
            let results = Array.make nnodes [||] in
            let tasks = task_count pool nnodes in
            Domain_pool.run pool ~n:tasks (fun t ->
                let lo, hi = Domain_pool.split ~n:nnodes ~tasks t in
                let build_node = build () in
                for i = lo to hi - 1 do
                  results.(i) <- build_node nodes.(i)
                done);
            commit (fun i -> results.(i))
        | _ ->
            let build_node = build () in
            commit (fun i -> build_node nodes.(i))
      end
    done;
    Md.set_root out (remap (Md.root md));
    out
  end

let rebuild ?stats ?pool ?par_threshold mode md partitions =
  if not (Trace.enabled ()) then rebuild_body ?stats ?pool ?par_threshold mode md partitions
  else
    Trace.with_span ~cat:"lump" "lump.rebuild" (fun () ->
        let out = rebuild_body ?stats ?pool ?par_threshold mode md partitions in
        Trace.add_args
          [
            ("nodes_in", Trace.Int (Md.num_live_nodes md));
            ("nodes_out", Trace.Int (Md.num_live_nodes out));
            ("aliased", Trace.Bool (out == md));
          ];
        out)

let lump_with_partitions ?stats ?pool ?par_threshold mode md partitions =
  if Array.length partitions <> Md.levels md then
    invalid_arg "Compositional.lump_with_partitions: level count mismatch";
  Array.iteri
    (fun i p ->
      if Partition.size p <> Md.size md (i + 1) then
        invalid_arg "Compositional.lump_with_partitions: partition size mismatch")
    partitions;
  { lumped = rebuild ?stats ?pool ?par_threshold mode md partitions; partitions }

(* ------------------------------------------------------------------ *)
(* The lumping engine: one diagram, one or many reward/initial points. *)

type sweep_spec = {
  sweep_rewards : Decomposed.t list;
  sweep_initial : Decomposed.t;
}

type sweep_stats = {
  points : int;
  level_fixpoints : int;
  level_reused : int;
  rebuilds : int;
  rebuilds_reused : int;
  cross_bind_hits : int;
}

(* What survives from one point to the next.  [lump] runs a single point
   on a throwaway engine (plain cache, empty memos); a sweep engine keeps
   its persistent cache and both memos warm across points. *)
type sweep = {
  sw_mode : Mdl_lumping.State_lumping.mode;
  sw_md : Md.t;
  sw_eps : float option;
  sw_key : Local_key.choice;
  sw_cache : Key_cache.t;
  sw_pool : Domain_pool.t option;
  sw_par_threshold : int option;
  sw_level_memo : (int * int array, int array) Hashtbl.t;
      (* (level, initial layout) -> final canonical assignment *)
  sw_rebuild_memo : (int array, Md.t) Hashtbl.t;
      (* concatenated final assignments -> lumped diagram *)
  mutable sw_points : int;
  mutable sw_level_fixpoints : int;
  mutable sw_level_reused : int;
  mutable sw_rebuilds : int;
  mutable sw_rebuilds_reused : int;
  sw_cross0 : int; (* cache cross-bind counter at engine creation *)
}

let engine ?eps ?(key = Local_key.Formal_sums) ?cache ?pool ?par_threshold mode md =
  let cache = match cache with Some c -> c | None -> Key_cache.create () in
  {
    sw_mode = mode;
    sw_md = md;
    sw_eps = eps;
    sw_key = key;
    sw_cache = cache;
    sw_pool = pool;
    sw_par_threshold = par_threshold;
    sw_level_memo = Hashtbl.create 64;
    sw_rebuild_memo = Hashtbl.create 16;
    sw_points = 0;
    sw_level_fixpoints = 0;
    sw_level_reused = 0;
    sw_rebuilds = 0;
    sw_rebuilds_reused = 0;
    sw_cross0 = Key_cache.cross_bind_hits cache;
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
   the fixed point on a miss ([refined] carries that run's counters). *)
type level_outcome = {
  p_ini : Partition.t;
  memo_key : int * int array;
  final : Partition.t;
  refined : Refiner.stats option;
}

(* The only level loop: [lump] and [sweep_point] both come through
   here.  Levels are algorithmically independent — each computes its own
   initial partition and fixed point from [md] alone — so with a pool
   they run concurrently, each on its own domain over its own cache
   fork; the memo is only read there, and every write (memo entries,
   counters, stats) happens afterwards on this domain, in level order,
   so totals equal a sequential run's whatever order levels finished
   in.  A [Trace.Ctx] is single-owner, so traced runs keep levels
   sequential (intra-level sharding never emits spans and stays on). *)
let run_point ?stats sw ~rewards ~initial =
  let md = sw.sw_md and mode = sw.sw_mode and eps = sw.sw_eps in
  let nlevels = Md.levels md in
  (* Rebinding retires the memoised rows (an epoch bump on a persistent
     cache, a wipe otherwise): per-bind entries are only sound within
     one monotone refinement run per level.  The intern tables and
     (same-md) flatten context survive the rebind.  Binding with the
     run's configuration makes a mismatched shared cache fail loudly
     here instead of deep inside a splitter pass.  Arming the pool (or
     disarming it, so a reused cache never keeps a stale one) reaches
     intra-node splitter-key sharding; forks inherit the setting. *)
  Key_cache.bind ?eps ~choice:sw.sw_key ~mode sw.sw_cache md;
  Key_cache.set_pool ?par_threshold:sw.sw_par_threshold sw.sw_cache sw.sw_pool;
  let level_work cache i =
    let level = i + 1 in
    let p_ini =
      Trace.with_span ~cat:"lump" "lump.initial_partition" (fun () ->
          Level_lumping.initial_partition ?eps mode md ~level ~rewards ~initial)
    in
    let memo_key = (level, layout_key p_ini) in
    match Hashtbl.find_opt sw.sw_level_memo memo_key with
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
        { p_ini; memo_key; final; refined = None }
    | None ->
        let level_stats = Refiner.create_stats () in
        let final =
          Level_lumping.comp_lumping_level ?eps ~key:sw.sw_key ~stats:level_stats ~cache
            ?pool:sw.sw_pool mode md ~level ~initial:p_ini
        in
        { p_ini; memo_key; final; refined = Some level_stats }
  in
  let levels =
    match sw.sw_pool with
    | Some pl when Domain_pool.size pl > 1 && nlevels > 1 && not (Trace.enabled ()) ->
        (* The column cache fills lazily under splitter-key walks; fill it
           from this domain first so every later [node_col] is a pure
           read, from any domain.  Forks publish their rows to the shared
           persistent store, so a sweep keeps their work. *)
        Md.warm_col_cache md;
        let results = Array.make nlevels None in
        Domain_pool.run pl ~n:nlevels (fun i ->
            results.(i) <- Some (level_work (Key_cache.fork sw.sw_cache) i));
        Array.map Option.get results
    | _ ->
        Array.init nlevels (fun i ->
            Trace.with_span ~cat:"lump"
              ~args:[ ("level", Trace.Int (i + 1)) ]
              "lump.level"
              (fun () ->
                let l = level_work sw.sw_cache i in
                Trace.add_args
                  [
                    ("classes_initial", Trace.Int (Partition.num_classes l.p_ini));
                    ("classes", Trace.Int (Partition.num_classes l.final));
                  ];
                l))
  in
  Array.iteri
    (fun i l ->
      match l.refined with
      | None -> sw.sw_level_reused <- sw.sw_level_reused + 1
      | Some level_stats ->
          sw.sw_level_fixpoints <- sw.sw_level_fixpoints + 1;
          (* [final] is canonical, so [to_class_assignment] already is
             the canonical assignment. *)
          Hashtbl.replace sw.sw_level_memo l.memo_key
            (Partition.to_class_assignment l.final);
          Log.debug (fun m ->
              m "level %d: %d -> %d classes (P_ini %d) [refiner: %a]" (i + 1)
                (Partition.size l.final)
                (Partition.num_classes l.final)
                (Partition.num_classes l.p_ini)
                Refiner.pp_stats level_stats);
          Option.iter (fun dst -> Refiner.add_stats dst level_stats) stats)
    levels;
  let partitions = Array.map (fun l -> l.final) levels in
  (* Per-level assignment lengths are fixed by the diagram, so the plain
     concatenation is an injective key for the partition tuple. *)
  let rebuild_key =
    Array.concat (Array.to_list (Array.map Partition.to_class_assignment partitions))
  in
  match Hashtbl.find_opt sw.sw_rebuild_memo rebuild_key with
  | Some lumped ->
      (* The quotient is a pure function of (diagram, partitions, mode):
         equal canonical assignments rebuild to an [Md.equal] diagram,
         so the previously built one is aliased.  [nodes_rebuilt] /
         [nodes_reused] stats are not re-counted for a replay. *)
      sw.sw_rebuilds_reused <- sw.sw_rebuilds_reused + 1;
      { lumped; partitions }
  | None ->
      sw.sw_rebuilds <- sw.sw_rebuilds + 1;
      let r, dt =
        Mdl_util.Timer.time (fun () ->
            lump_with_partitions ?stats ?pool:sw.sw_pool
              ?par_threshold:sw.sw_par_threshold mode md partitions)
      in
      Log.debug (fun m ->
          m "rebuild: %d nodes -> %d nodes in %.3fs%s" (Md.num_live_nodes md)
            (Md.num_live_nodes r.lumped) dt
            (if r.lumped == md then " (aliased: nothing lumped)" else ""));
      Hashtbl.add sw.sw_rebuild_memo rebuild_key r.lumped;
      r

let lump ?eps ?key ?stats ?cache ?pool ?par_threshold mode md ~rewards ~initial =
  Metrics.incr c_lumps;
  let sw = engine ?eps ?key ?cache ?pool ?par_threshold mode md in
  if not (Trace.enabled ()) then run_point ?stats sw ~rewards ~initial
  else
    Trace.with_span ~cat:"lump"
      ~args:[ ("levels", Trace.Int (Md.levels md)) ]
      "lump"
      (fun () -> run_point ?stats sw ~rewards ~initial)

let sweep_create ?eps ?key ?cache ?pool ?par_threshold mode md =
  let sw = engine ?eps ?key ?cache ?pool ?par_threshold mode md in
  (* Persistence is what carries splitter rows across points; binding
     now records the configuration, so a mismatched shared cache fails
     at creation rather than at the first point. *)
  Key_cache.set_persistent sw.sw_cache true;
  Key_cache.bind ?eps ~choice:sw.sw_key ~mode sw.sw_cache md;
  sw

let sweep_point ?stats sw ~rewards ~initial =
  sw.sw_points <- sw.sw_points + 1;
  Metrics.incr c_sweep_points;
  let fixpoints0 = sw.sw_level_fixpoints and reused0 = sw.sw_level_reused in
  let rebuilds0 = sw.sw_rebuilds and rebuilds_reused0 = sw.sw_rebuilds_reused in
  let traced () =
    if not (Trace.enabled ()) then run_point ?stats sw ~rewards ~initial
    else
      Trace.with_span ~cat:"lump"
        ~args:[ ("point", Trace.Int sw.sw_points) ]
        "sweep.point"
        (fun () ->
          let r = run_point ?stats sw ~rewards ~initial in
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
    cross_bind_hits = Key_cache.cross_bind_hits sw.sw_cache - sw.sw_cross0;
  }

let sweep_cache sw = sw.sw_cache

let lump_sweep ?eps ?key ?stats ?cache ?pool ?par_threshold mode md ~points =
  let sw = sweep_create ?eps ?key ?cache ?pool ?par_threshold mode md in
  List.map
    (fun { sweep_rewards; sweep_initial } ->
      sweep_point ?stats sw ~rewards:sweep_rewards ~initial:sweep_initial)
    points

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

let lump_statespace r ss = Statespace.map ss (class_tuple r)

let is_closed r ss =
  (* The reachable states of each global class must number exactly the
     class volume (product of local class sizes). *)
  let counts = Hashtbl.create (Statespace.size ss) in
  Statespace.iter
    (fun _ s ->
      let ct = class_tuple r s in
      let n = Option.value ~default:0 (Hashtbl.find_opt counts ct) in
      Hashtbl.replace counts ct (n + 1))
    ss;
  Hashtbl.fold (fun ct n ok -> ok && n = class_volume r ct) counts true

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

let lumped_initial r d =
  Decomposed.relabel d ~new_sizes:(lumped_sizes r) ~pick:(representative_pick r)
