module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Floatx = Mdl_util.Floatx
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics

let c_levels = Metrics.counter "level.fixpoints"

let check_level md level fn =
  if level < 1 || level > Md.levels md then
    invalid_arg (Printf.sprintf "Level_lumping.%s: level out of range" fn)

let full_row_sum md node s =
  Formal_sum.sum (List.map snd (Md.node_row md node s))

let initial_partition mode md ~level ~rewards ~initial =
  check_level md level "initial_partition";
  let n = Md.size md level in
  (* Float factors are grouped by their quantized representative:
     [compare_approx] is not transitive, so using it as a group_by
     comparator makes the classes depend on the state order (see
     {!Mdl_util.Floatx.quantize}).  Same for the formal-sum factors of
     the exact branch: quantize the sums, compare exactly. *)
  let q = Floatx.quantize in
  match mode with
  | Mdl_lumping.State_lumping.Ordinary ->
      Partition.group_by n
        (fun s -> List.map (fun r -> q (Decomposed.factor r level s)) rewards)
        (List.compare Float.compare)
  | Mdl_lumping.State_lumping.Exact ->
      let nodes = (Md.live_nodes md).(level - 1) in
      let key s =
        ( q (Decomposed.factor initial level s),
          List.map (fun node -> Formal_sum.quantize (full_row_sum md node s)) nodes )
      in
      let cmp (f1, sums1) (f2, sums2) =
        let c = Float.compare f1 f2 in
        if c <> 0 then c else List.compare Formal_sum.compare sums1 sums2
      in
      Partition.group_by n key cmp

(* [splitter_keys] emits quantized canonical keys, so the spec can
   compare exactly. *)
let node_spec ctx choice mode md node =
  {
    Refiner.size = Md.size md (Md.node_level md node);
    key_compare = Local_key.compare_exact;
    splitter_keys = (fun c -> Local_key.splitter_keys ctx choice mode node c);
  }

let has_singleton p =
  let nc = Partition.num_classes p in
  let rec go c = c < nc && (Partition.class_size p c = 1 || go (c + 1)) in
  go 0

let comp_lumping_level ?(key = Local_key.Formal_sums) ?cache mode md ~level ~initial =
  check_level md level "comp_lumping_level";
  if Partition.size initial <> Md.size md level then
    invalid_arg "Level_lumping.comp_lumping_level: partition size mismatch";
  let kc = match cache with Some kc -> kc | None -> Key_cache.create () in
  (* Defensive auto-bind: a cache bound to a different diagram must not
     serve rows for this one.  A cache already bound to [md] is left as
     is — per-level calls of one lump run share the bind (each writes
     only its own level's record), and rebinding here would drop what
     the bind keeps — once [bound_md] has checked that it was bound
     under this run's key choice and mode. *)
  (match Key_cache.bound_md ~choice:key ~mode kc with
  | Some prev when prev == md -> ()
  | _ -> Key_cache.bind ~choice:key ~mode kc md);
  (* The level's record hands out parallel (states, gids) arrays — gids
     are the stable ids of its intern table, so the ranked pipeline
     turns them into per-pass dense ranks by stamped array lookups. *)
  let lv = Key_cache.for_level kc level in
  (* Singletons at run start stay singletons for the whole run (splits
     only shrink classes), so their keys need never be accumulated —
     the dominant saving on near-discrete levels.  When the run starts
     with none, the per-touch test is pure overhead; singletons created
     mid-run are then merely accumulated like any other state, which is
     harmless (a class of one can never be split). *)
  let skip =
    if has_singleton initial then
      Some (fun s -> Partition.class_size initial (Partition.class_of initial s) = 1)
    else None
  in
  (* [CompLumpingLevel] (Figure 3(a)) repeats per-node refinement until
     no node splits a class.  Its result is the coarsest refinement of
     [initial] stable for every live node at once, and that partition
     is unique; one run whose splitter step keys each state by the
     tuple of all its nodes' keys reaches it directly. *)
  let rspec =
    { Refiner.rsize = Md.size md level; rsplitter_keys = Key_cache.splitter_keys ?skip lv }
  in
  let p =
    Trace.with_span ~cat:"lump" ~args:[ ("level", Trace.Int level) ] "lump.fixpoint"
      (fun () -> Refiner.comp_lumping_ranked rspec ~initial)
  in
  Metrics.incr c_levels;
  (* Canonicalise the class numbering.  The refinement engine preserves
     input class ids, so the result's ids depend on split order — which
     differs between engines (and between cold and warm caches) even
     when the classes themselves agree.  Renumbering by first appearance
     (and a fully-discrete result to the identity partition, which is
     what lets the rebuild reuse nodes or the whole diagram verbatim)
     makes every run emit the same partition object — and hence
     structurally equal lumped diagrams, in both ordinary and exact
     mode. *)
  if Partition.num_classes p = Partition.size p then Partition.discrete (Partition.size p)
  else Partition.of_class_assignment (Partition.to_class_assignment p)

let is_locally_lumpable mode md ~level p =
  check_level md level "is_locally_lumpable";
  let nodes = (Md.live_nodes md).(level - 1) in
  let ctx = Local_key.make_context md in
  List.for_all
    (fun node ->
      Refiner.is_stable (node_spec ctx Local_key.Formal_sums mode md node) p
      &&
      (* Exact lumping additionally requires constant full-row sums
         (Eq. 4 of Definition 3). *)
      match mode with
      | Mdl_lumping.State_lumping.Ordinary -> true
      | Mdl_lumping.State_lumping.Exact ->
          Array.for_all
            (fun members ->
              let reference = full_row_sum md node members.(0) in
              Array.for_all
                (fun s ->
                  Formal_sum.compare_approx reference (full_row_sum md node s) = 0)
                members)
            (Partition.classes p))
    nodes
