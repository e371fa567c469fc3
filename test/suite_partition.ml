(* Tests for the refinable-partition data structure and the refinement
   engine's two pipelines, pinned against the oracle's list-based
   reference engine. *)

module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Refiner_reference = Mdl_oracle.Refiner_reference

let partition_testable = Alcotest.testable Partition.pp Partition.equal

let test_trivial_discrete () =
  let t = Partition.trivial 5 in
  Alcotest.(check int) "one class" 1 (Partition.num_classes t);
  Alcotest.(check int) "class size" 5 (Partition.class_size t 0);
  let d = Partition.discrete 5 in
  Alcotest.(check int) "five classes" 5 (Partition.num_classes d);
  Alcotest.(check bool) "discrete refines trivial" true (Partition.is_refinement_of d t);
  Alcotest.(check bool) "trivial does not refine discrete" false
    (Partition.is_refinement_of t d);
  let empty = Partition.trivial 0 in
  Alcotest.(check int) "empty has no class" 0 (Partition.num_classes empty)

let test_of_class_assignment () =
  let p = Partition.of_class_assignment [| 7; 3; 7; 3; 9 |] in
  Alcotest.(check int) "three classes" 3 (Partition.num_classes p);
  Alcotest.(check int) "same class" (Partition.class_of p 0) (Partition.class_of p 2);
  Alcotest.(check bool) "diff class" true (Partition.class_of p 0 <> Partition.class_of p 4);
  Alcotest.check_raises "negative label"
    (Invalid_argument "Partition.of_class_assignment: negative label") (fun () ->
      ignore (Partition.of_class_assignment [| -1 |]))

let test_group_by () =
  let p = Partition.group_by 6 (fun i -> i mod 3) compare in
  Alcotest.(check int) "three classes" 3 (Partition.num_classes p);
  Alcotest.(check int) "0 and 3 together" (Partition.class_of p 0) (Partition.class_of p 3)

let test_split () =
  let p = Partition.trivial 6 in
  let ids = Partition.split p 0 [ [| 0; 1; 2 |]; [| 3; 4 |]; [| 5 |] ] in
  Alcotest.(check int) "three ids" 3 (List.length ids);
  Alcotest.(check int) "three classes" 3 (Partition.num_classes p);
  Alcotest.(check int) "first group keeps id" 0 (List.hd ids);
  Alcotest.(check int) "element moved" (Partition.class_of p 5) (List.nth ids 2)

let test_split_validation () =
  let p = Partition.trivial 4 in
  Alcotest.check_raises "bad cover"
    (Invalid_argument "Partition.split: groups do not cover the class") (fun () ->
      ignore (Partition.split p 0 [ [| 0; 1 |] ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Partition.split: duplicate element") (fun () ->
      ignore (Partition.split p 0 [ [| 0; 1; 2 |]; [| 2 |] ]));
  let q = Partition.of_class_assignment [| 0; 0; 1; 1 |] in
  Alcotest.check_raises "element of other class"
    (Invalid_argument "Partition.split: element not in class") (fun () ->
      ignore (Partition.split q 0 [ [| 0 |]; [| 2 |] ]))

let test_split_noop () =
  let p = Partition.trivial 3 in
  let ids = Partition.split p 0 [ [| 0; 1; 2 |] ] in
  Alcotest.(check (list int)) "no-op" [ 0 ] ids;
  Alcotest.(check int) "still one class" 1 (Partition.num_classes p)

let test_refine_class_by () =
  let p = Partition.trivial 6 in
  let ids = Partition.refine_class_by p 0 (fun i -> i mod 2) compare in
  Alcotest.(check int) "two groups" 2 (List.length ids);
  Alcotest.(check int) "0 with 2" (Partition.class_of p 0) (Partition.class_of p 2)

let test_equal () =
  let p1 = Partition.of_class_assignment [| 0; 0; 1 |] in
  let p2 = Partition.of_class_assignment [| 5; 5; 2 |] in
  let p3 = Partition.of_class_assignment [| 0; 1; 1 |] in
  Alcotest.check partition_testable "label-independent equal" p1 p2;
  Alcotest.(check bool) "different" false (Partition.equal p1 p3)

(* A tiny refinement spec: split by reachability keys of a fixed
   functional graph; classes end up grouping states with equal behaviour
   with respect to successor membership counts. *)
let graph_spec edges n =
  {
    Refiner.size = n;
    key_compare = compare;
    splitter_keys =
      (fun (perm, first, len) ->
        (* key(s) = number of edges from s into the splitter class *)
        let in_c = Array.make n false in
        for i = first to first + len - 1 do
          in_c.(perm.(i)) <- true
        done;
        let counts = Hashtbl.create 16 in
        List.iter
          (fun (u, v) ->
            if in_c.(v) then
              Hashtbl.replace counts u (1 + Option.value ~default:0 (Hashtbl.find_opt counts u)))
          edges;
        Hashtbl.fold (fun s k acc -> (s, k) :: acc) counts []);
  }

(* The same graph keys, fed through the ranked pipeline: keys are
   pre-interned to stable ids through a persistent table (the Key_cache
   arrangement) and handed over as parallel arrays.  [gid_of] replaces
   the interning with a fixed injective numbering of the keys. *)
let ranked_graph_spec ?gid_of edges n =
  let spec = graph_spec edges n in
  let ids = Hashtbl.create 16 in
  let intern k =
    match gid_of with
    | Some f -> f k
    | None -> (
        match Hashtbl.find_opt ids k with
        | Some g -> g
        | None ->
            let g = Hashtbl.length ids in
            Hashtbl.add ids k g;
            g)
  in
  {
    Refiner.rsize = n;
    rsplitter_keys =
      (fun c ->
        let keyed = spec.Refiner.splitter_keys c in
        let m = List.length keyed in
        let states = Array.make m 0 and gids = Array.make m 0 in
        List.iteri
          (fun i (s, k) ->
            states.(i) <- s;
            gids.(i) <- intern k)
          keyed;
        (states, gids));
  }

let refine_graph ?stats ?on_split edges n ~initial =
  Refiner.comp_lumping_ranked ?stats ?on_split (ranked_graph_spec edges n) ~initial

let test_refiner_bisimulation_like () =
  (* 0 -> 1 -> 2 (sink), 3 -> 4 -> 2: states 0/3 and 1/4 should pair up. *)
  let edges = [ (0, 1); (1, 2); (3, 4); (4, 2) ] in
  let spec = graph_spec edges 5 in
  let result = refine_graph edges 5 ~initial:(Partition.trivial 5) in
  Alcotest.check partition_testable "classic bisimulation classes"
    (Partition.of_class_assignment [| 0; 1; 2; 0; 1 |])
    result;
  Alcotest.(check bool) "stable" true (Refiner.is_stable spec result)

let test_refiner_respects_initial () =
  let edges = [] in
  let initial = Partition.of_class_assignment [| 0; 0; 1; 1 |] in
  let result = refine_graph edges 4 ~initial in
  Alcotest.check partition_testable "no edges: initial unchanged" initial result;
  Alcotest.(check bool) "input not mutated" true
    (Partition.num_classes initial = 2)

let test_refiner_size_mismatch () =
  Alcotest.check_raises "ranked: size mismatch"
    (Invalid_argument "Refiner.comp_lumping_ranked: partition size mismatch") (fun () ->
      ignore (refine_graph [] 4 ~initial:(Partition.trivial 3)));
  let r = Mdl_sparse.Csr.of_triplets ~rows:4 ~cols:4 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "float: size mismatch"
    (Invalid_argument "Refiner.comp_lumping_float: partition size mismatch") (fun () ->
      ignore
        (Refiner.comp_lumping_float
           (Mdl_lumping.State_lumping.float_spec Ordinary r)
           ~initial:(Partition.trivial 3)))

let test_view_iter_class () =
  let p = Partition.of_class_assignment [| 0; 1; 0; 1; 0 |] in
  let c0 = Partition.class_of p 0 in
  let perm, first, len = Partition.view p c0 in
  Alcotest.(check int) "slice length" 3 len;
  let slice = Array.sub perm first len in
  Array.sort compare slice;
  Alcotest.(check (array int)) "slice members" [| 0; 2; 4 |] slice;
  let seen = ref [] in
  Partition.iter_class (fun x -> seen := x :: !seen) p c0;
  Alcotest.(check (array int)) "iter_class agrees" slice
    (let a = Array.of_list !seen in
     Array.sort compare a;
     a);
  Alcotest.(check bool) "representative in class" true
    (Partition.class_of p (Partition.representative p c0) = c0)

let test_split_runs () =
  (* split {0..5} into runs [0;1], [2;3], [4;5] laid out as sorted members *)
  let p = Partition.trivial 6 in
  let members = [| 0; 1; 2; 3; 4; 5 |] in
  let bounds = [| 0; 2; 4; 6; 0; 0 |] in
  let ids = Partition.split_runs p 0 ~members ~bounds ~nruns:3 in
  Alcotest.(check int) "three ids" 3 (List.length ids);
  Alcotest.(check int) "three classes" 3 (Partition.num_classes p);
  Alcotest.(check int) "run 0 keeps id" 0 (List.hd ids);
  Alcotest.(check int) "0 with 1" (Partition.class_of p 0) (Partition.class_of p 1);
  Alcotest.(check int) "2 with 3" (Partition.class_of p 2) (Partition.class_of p 3);
  Alcotest.(check bool) "0 apart from 2" true
    (Partition.class_of p 0 <> Partition.class_of p 2);
  (* single-run split is a no-op returning the original id *)
  let q = Partition.trivial 3 in
  let ids = Partition.split_runs q 0 ~members:[| 2; 0; 1 |] ~bounds:[| 0; 3 |] ~nruns:1 in
  Alcotest.(check (list int)) "no-op" [ 0 ] ids;
  Alcotest.(check int) "still one class" 1 (Partition.num_classes q)

let test_split_runs_partial () =
  (* runs covering only part of the class: untouched members keep id *)
  let p = Partition.trivial 5 in
  let ids = Partition.split_runs p 0 ~members:[| 3; 4 |] ~bounds:[| 0; 2 |] ~nruns:1 in
  Alcotest.(check int) "two classes" 2 (Partition.num_classes p);
  Alcotest.(check int) "untouched keep id 0" 0 (Partition.class_of p 0);
  Alcotest.(check int) "0 with 1" (Partition.class_of p 0) (Partition.class_of p 1);
  (match ids with
  | [ old_id; fresh ] ->
      Alcotest.(check int) "parent id first" 0 old_id;
      Alcotest.(check int) "moved members in fresh class" fresh (Partition.class_of p 3);
      Alcotest.(check int) "3 with 4" (Partition.class_of p 3) (Partition.class_of p 4)
  | _ -> Alcotest.fail "expected [parent; fresh]")

let test_copy () =
  (* [copy] preserves class ids and member order, and the halves are
     independent afterwards — the contract the splitter-key cache's
     structural invalidation rests on. *)
  let p = Partition.of_class_assignment [| 0; 0; 1; 1; 1 |] in
  let q = Partition.copy p in
  Alcotest.check partition_testable "same classes" p q;
  for s = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "class id of %d preserved" s)
      (Partition.class_of p s) (Partition.class_of q s)
  done;
  let c0 = Partition.class_of p 0 in
  Alcotest.(check int) "representative preserved" (Partition.representative p c0)
    (Partition.representative q c0);
  let c2 = Partition.class_of q 2 in
  ignore (Partition.split q c2 [ [| 2 |]; [| 3; 4 |] ]);
  Alcotest.(check int) "original untouched by split of copy" 2 (Partition.num_classes p);
  Alcotest.(check int) "copy refined" 3 (Partition.num_classes q);
  ignore (Partition.split p c0 [ [| 0 |]; [| 1 |] ]);
  Alcotest.(check int) "copy untouched by split of original" 3 (Partition.num_classes q);
  Alcotest.(check int) "original refined" 3 (Partition.num_classes p)

let test_on_split_trace () =
  (* The split trace must report every actual split, parent id first,
     and account exactly for the blocks the run created. *)
  let edges = [ (0, 1); (1, 2); (3, 4); (4, 2) ] in
  let stats = Refiner.create_stats () in
  let trace = ref [] in
  let result =
    refine_graph ~stats
      ~on_split:(fun ~parent ~ids -> trace := (parent, ids) :: !trace)
      edges 5 ~initial:(Partition.trivial 5)
  in
  Alcotest.(check bool) "some splits traced" true (!trace <> []);
  Alcotest.(check int) "one callback per split" stats.Refiner.splits
    (List.length !trace);
  List.iter
    (fun (parent, ids) ->
      Alcotest.(check bool) "at least two sub-blocks" true (List.length ids >= 2);
      Alcotest.(check int) "parent id listed first" parent (List.hd ids))
    !trace;
  Alcotest.(check int) "traced fresh ids = blocks_created"
    stats.Refiner.blocks_created
    (List.fold_left (fun acc (_, ids) -> acc + List.length ids - 1) 0 !trace);
  (* every traced id is a class id of the final partition (ids are
     stable once allocated) *)
  List.iter
    (fun (_, ids) ->
      List.iter
        (fun id ->
          Alcotest.(check bool) "traced id valid" true
            (id >= 0 && id < Partition.num_classes result))
        ids)
    !trace

(* ---- worklist bookkeeping / stats instrumentation ---- *)

let test_stats_all_discrete () =
  (* Discrete initial partition: nothing to split; every class is passed
     over as a splitter exactly once and no blocks are created. *)
  let n = 7 in
  let stats = Refiner.create_stats () in
  let result =
    refine_graph ~stats [ (0, 1); (1, 2); (2, 3) ] n ~initial:(Partition.discrete n)
  in
  Alcotest.(check int) "still discrete" n (Partition.num_classes result);
  Alcotest.(check int) "no splits" 0 stats.Refiner.splits;
  Alcotest.(check int) "no blocks created" 0 stats.Refiner.blocks_created;
  Alcotest.(check int) "one pass per initial class" n stats.Refiner.splitter_passes

let test_stats_giant_class () =
  (* One giant class refined to the bisimulation fixed point; block
     accounting must balance: final = initial + blocks_created. *)
  let edges = [ (0, 1); (1, 2); (3, 4); (4, 2) ] in
  let stats = Refiner.create_stats () in
  let result = refine_graph ~stats edges 5 ~initial:(Partition.trivial 5) in
  Alcotest.(check int) "blocks_created = final - initial"
    (Partition.num_classes result - 1)
    stats.Refiner.blocks_created;
  Alcotest.(check bool) "some splits happened" true (stats.Refiner.splits > 0);
  Alcotest.(check bool) "splits <= blocks created" true
    (stats.Refiner.splits <= stats.Refiner.blocks_created);
  Alcotest.(check bool) "wall time recorded" true (stats.Refiner.wall_s >= 0.0)

let test_stats_singleton_mixed () =
  (* Singletons mixed with a large class; largest-block skips only make
     sense once a settled class splits. *)
  let n = 8 in
  let edges = [ (2, 0); (3, 0); (4, 1); (5, 1); (6, 0); (6, 1); (7, 0); (7, 1) ] in
  let spec = graph_spec edges n in
  let initial = Partition.of_class_assignment [| 1; 2; 0; 0; 0; 0; 0; 0 |] in
  let stats = Refiner.create_stats () in
  let result = refine_graph ~stats edges n ~initial in
  Alcotest.(check bool) "stable" true (Refiner.is_stable spec result);
  Alcotest.(check int) "blocks_created = final - initial"
    (Partition.num_classes result - Partition.num_classes initial)
    stats.Refiner.blocks_created;
  (* classes: {0} {1} {2,3} {4,5} {6,7} *)
  Alcotest.(check int) "fixed point" 5 (Partition.num_classes result);
  Alcotest.(check bool) "key evaluations counted" true (stats.Refiner.key_evals > 0)

let test_add_stats () =
  let a = Refiner.create_stats () in
  let b = Refiner.create_stats () in
  a.Refiner.splits <- 2;
  a.Refiner.wall_s <- 0.5;
  a.Refiner.intern_keys <- 5;
  b.Refiner.splits <- 3;
  b.Refiner.key_evals <- 7;
  b.Refiner.wall_s <- 0.25;
  b.Refiner.intern_keys <- 3;
  Refiner.add_stats a b;
  Alcotest.(check int) "splits summed" 5 a.Refiner.splits;
  Alcotest.(check int) "key_evals summed" 7 a.Refiner.key_evals;
  Alcotest.(check (float 1e-9)) "wall summed" 0.75 a.Refiner.wall_s;
  Alcotest.(check int) "intern_keys takes max" 5 a.Refiner.intern_keys;
  b.Refiner.intern_keys <- 9;
  Refiner.add_stats a b;
  Alcotest.(check int) "intern_keys max updates" 9 a.Refiner.intern_keys

(* ---- the two pipelines: ranked keys with counting sort, float keys ---- *)

let test_use_counting_sort_threshold () =
  (* Pin the decision boundary: keys must repeat (2 * alphabet <= m) and
     the pass must not be tiny (m >= 16). *)
  Alcotest.(check bool) "small alphabet, big pass" true
    (Refiner.use_counting_sort ~m:100 ~alphabet:10);
  Alcotest.(check bool) "boundary 2a = m" true
    (Refiner.use_counting_sort ~m:16 ~alphabet:8);
  Alcotest.(check bool) "alphabet too large" false
    (Refiner.use_counting_sort ~m:100 ~alphabet:80);
  Alcotest.(check bool) "tiny pass" false (Refiner.use_counting_sort ~m:8 ~alphabet:2);
  Alcotest.(check bool) "just below m floor" false
    (Refiner.use_counting_sort ~m:15 ~alphabet:1)

(* 100 states, every state has edges into {0, 1}: big splitter passes
   over a tiny key alphabet. *)
let counting_sort_edges n =
  List.concat_map
    (fun s -> if s mod 3 = 0 then [ (s, 0); (s, 1) ] else [ (s, 0) ])
    (List.init n Fun.id)

let test_counting_sort_pipeline () =
  (* Big passes with a tiny key alphabet: the counting sort must fire on
     some passes and the comparison sort keep the rest, and the counters
     must say which. *)
  let n = 100 in
  let stats = Refiner.create_stats () in
  let p = refine_graph ~stats (counting_sort_edges n) n ~initial:(Partition.trivial n) in
  Alcotest.(check bool) "counting sort fired" true (stats.Refiner.counting_sort_passes > 0);
  Alcotest.(check bool) "counting-sorted passes bounded by splitter passes" true
    (stats.Refiner.counting_sort_passes <= stats.Refiner.splitter_passes);
  Alcotest.(check bool) "alphabet recorded" true (stats.Refiner.intern_keys > 0);
  Alcotest.(check bool) "stable" true
    (Refiner.is_stable (graph_spec (counting_sort_edges n) n) p)

let test_pipeline_counters () =
  (* Each pipeline fills the counters that describe it: the ranked one
     its counting-sort passes and key alphabet, the float one neither. *)
  let edges = [ (0, 1); (1, 2); (3, 4); (4, 2) ] in
  let n = 5 in
  let rnk_stats = Refiner.create_stats () in
  let p_rnk = refine_graph ~stats:rnk_stats edges n ~initial:(Partition.trivial n) in
  Alcotest.check partition_testable "ranked = reference"
    (Refiner_reference.comp_lumping (graph_spec edges n) ~initial:(Partition.trivial n))
    p_rnk;
  Alcotest.(check bool) "ranked: passes counted" true (rnk_stats.Refiner.splitter_passes > 0);
  Alcotest.(check bool) "ranked: counting sorts bounded" true
    (rnk_stats.Refiner.counting_sort_passes <= rnk_stats.Refiner.splitter_passes);
  Alcotest.(check bool) "ranked: alphabet recorded" true (rnk_stats.Refiner.intern_keys > 0);
  let r =
    Mdl_sparse.Csr.of_triplets ~rows:4 ~cols:4
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ]
  in
  let flt_stats = Refiner.create_stats () in
  ignore
    (Refiner.comp_lumping_float ~stats:flt_stats
       (Mdl_lumping.State_lumping.float_spec Ordinary r)
       ~initial:(Partition.trivial 4));
  Alcotest.(check bool) "float: passes counted" true (flt_stats.Refiner.splitter_passes > 0);
  Alcotest.(check int) "float: no counting sort" 0 flt_stats.Refiner.counting_sort_passes;
  Alcotest.(check int) "float: no key alphabet" 0 flt_stats.Refiner.intern_keys

let test_ranked_pipeline () =
  let edges = [ (0, 1); (1, 2); (3, 4); (4, 2) ] in
  let n = 5 in
  let initial = Partition.trivial n in
  let p_ref = Refiner_reference.comp_lumping (graph_spec edges n) ~initial in
  let stats = Refiner.create_stats () in
  let p_rnk = Refiner.comp_lumping_ranked ~stats (ranked_graph_spec edges n) ~initial in
  Alcotest.check partition_testable "ranked = reference" p_ref p_rnk;
  Alcotest.(check bool) "alphabet recorded" true (stats.Refiner.intern_keys > 0);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Refiner.comp_lumping_ranked: partition size mismatch") (fun () ->
      ignore
        (Refiner.comp_lumping_ranked (ranked_graph_spec edges n)
           ~initial:(Partition.trivial 3)))

let test_ranked_counting_sort () =
  (* Big passes over a tiny gid alphabet: the ranked pipeline must reach
     the counting sort and still agree with the reference engine. *)
  let n = 100 in
  let edges = counting_sort_edges n in
  let stats = Refiner.create_stats () in
  let p_rnk = refine_graph ~stats edges n ~initial:(Partition.trivial n) in
  let p_ref =
    Refiner_reference.comp_lumping (graph_spec edges n) ~initial:(Partition.trivial n)
  in
  Alcotest.check partition_testable "ranked counting sort = reference" p_ref p_rnk;
  Alcotest.(check bool) "counting sort fired" true (stats.Refiner.counting_sort_passes > 0)

(* ---- differential: both pipelines vs the preserved seed engine ---- *)

let test_differential_oracle_chains () =
  (* Oracle-generated flat chains through the real float-keyed spec. *)
  List.iter
    (fun (states, extra, planted, seed) ->
      let c = { Mdl_oracle.Spec.states; extra; planted; seed } in
      let r = Mdl_oracle.Gen_chain.rate_matrix (Mdl_util.Prng.of_seed seed) c in
      List.iter
        (fun mode ->
          let spec = Mdl_lumping.State_lumping.refiner_spec mode r in
          let initial =
            match mode with
            | Mdl_lumping.State_lumping.Ordinary -> Partition.trivial states
            | Mdl_lumping.State_lumping.Exact ->
                Partition.group_by states
                  (fun s -> Mdl_util.Floatx.quantize (Mdl_sparse.Csr.row_sum r s))
                  Float.compare
          in
          let p_ref = Refiner_reference.comp_lumping spec ~initial in
          let p_flt =
            Refiner.comp_lumping_float
              (Mdl_lumping.State_lumping.float_spec mode r)
              ~initial
          in
          Alcotest.check partition_testable
            (Printf.sprintf "chain n=%d seed=%d float pipeline agrees" states seed)
            p_ref p_flt;
          Alcotest.(check bool) "stable" true (Refiner.is_stable spec p_flt))
        [ Mdl_lumping.State_lumping.Ordinary; Mdl_lumping.State_lumping.Exact ])
    [ (20, 40, true, 3); (40, 120, true, 17); (60, 200, false, 23); (80, 0, true, 5) ]

let qcheck_differential =
  let open QCheck in
  let gen_graph =
    Gen.(
      let* n = int_range 2 14 in
      let+ edges =
        list_size (int_range 0 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      (n, edges))
  in
  let arb_graph =
    make
      ~print:(fun (n, e) ->
        Printf.sprintf "n=%d %s" n
          (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) e)))
      gen_graph
  in
  let gen_weighted =
    Gen.(
      let* n = int_range 2 14 in
      let+ triplets =
        list_size (int_range 0 40)
          (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
             (map (fun k -> float_of_int (k + 1) /. 2.0) (int_range 0 3)))
      in
      (n, triplets))
  in
  let arb_weighted =
    make
      ~print:(fun (n, t) ->
        Printf.sprintf "n=%d [%s]" n
          (String.concat ";"
             (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
      gen_weighted
  in
  [
    Test.make ~count:300 ~name:"in-place engine matches seed engine on random graphs"
      arb_graph (fun (n, edges) ->
        let spec = graph_spec edges n in
        let initial = Partition.group_by n (fun i -> i mod 3) compare in
        let p_ref = Refiner_reference.comp_lumping spec ~initial in
        let p_new = refine_graph edges n ~initial in
        Partition.equal p_ref p_new
        && Refiner.is_stable spec p_new
        && Partition.is_refinement_of p_new initial);
    (* The ranked pipeline ranks gids by first appearance within a pass,
       so neither its partition nor its split order nor any counter may
       depend on how the keys were numbered: a scrambled numbering (an
       odd-multiplier bijection mod 1024; graph keys are counts below
       31) must reproduce the run with first-appearance gids exactly,
       and both must match the generic engine, which compares the raw
       keys. *)
    Test.make ~count:300 ~name:"ranked pipeline matches generic on random graphs"
      (pair arb_graph (int_range 0 1023))
      (fun ((n, edges), salt) ->
        let initial = Partition.group_by n (fun i -> i mod 3) compare in
        let p_gen = Refiner_reference.comp_lumping (graph_spec edges n) ~initial in
        let counters st =
          Refiner.
            ( st.splitter_passes,
              st.key_evals,
              st.splits,
              st.blocks_created,
              st.largest_skips,
              st.counting_sort_passes,
              st.intern_keys )
        in
        let run ?gid_of () =
          let stats = Refiner.create_stats () in
          let p =
            Refiner.comp_lumping_ranked ~stats (ranked_graph_spec ?gid_of edges n)
              ~initial
          in
          (p, counters stats)
        in
        let p_rnk, c_rnk = run () in
        let p_scr, c_scr = run ~gid_of:(fun k -> ((k * 7919) + salt) land 1023) () in
        Partition.equal p_gen p_rnk
        && Partition.equal p_gen p_scr
        && Partition.to_class_assignment p_rnk = Partition.to_class_assignment p_scr
        && c_rnk = c_scr);
    Test.make ~count:300 ~name:"float pipeline matches seed engine on random flat specs"
      arb_weighted (fun (n, triplets) ->
        let r = Mdl_sparse.Csr.of_triplets ~rows:n ~cols:n triplets in
        let initial = Partition.group_by n (fun i -> i mod 3) compare in
        List.for_all
          (fun mode ->
            let spec = Mdl_lumping.State_lumping.refiner_spec mode r in
            let p_ref = Refiner_reference.comp_lumping spec ~initial in
            let p_flt = Mdl_lumping.State_lumping.coarsest mode r ~initial in
            Partition.equal p_ref p_flt && Refiner.is_stable spec p_flt)
          [ Mdl_lumping.State_lumping.Ordinary; Mdl_lumping.State_lumping.Exact ]);
  ]

let qcheck_tests =
  let open QCheck in
  let gen_assignment =
    Gen.(
      let* n = int_range 1 12 in
      let+ a = array_size (return n) (int_range 0 3) in
      a)
  in
  let arb_assignment =
    make
      ~print:(fun a ->
        String.concat "," (List.map string_of_int (Array.to_list a)))
      gen_assignment
  in
  let gen_graph =
    Gen.(
      let* n = int_range 2 10 in
      let+ edges =
        list_size (int_range 0 20) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      (n, edges))
  in
  let arb_graph =
    make
      ~print:(fun (n, e) ->
        Printf.sprintf "n=%d %s" n
          (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) e)))
      gen_graph
  in
  [
    Test.make ~count:300 ~name:"of_class_assignment roundtrip" arb_assignment (fun a ->
        let p = Partition.of_class_assignment a in
        Partition.equal p (Partition.of_class_assignment (Partition.to_class_assignment p)));
    Test.make ~count:300 ~name:"group_by classes have constant key" arb_assignment
      (fun a ->
        let n = Array.length a in
        let p = Partition.group_by n (fun i -> a.(i)) compare in
        Array.for_all
          (fun members ->
            Array.for_all (fun x -> a.(x) = a.(members.(0))) members)
          (Partition.classes p));
    Test.make ~count:200 ~name:"refiner output refines initial and is stable" arb_graph
      (fun (n, edges) ->
        let spec = graph_spec edges n in
        let initial = Partition.group_by n (fun i -> i mod 2) compare in
        let result = refine_graph edges n ~initial in
        Partition.is_refinement_of result initial && Refiner.is_stable spec result);
  ]

let tests =
  [
    Alcotest.test_case "trivial/discrete" `Quick test_trivial_discrete;
    Alcotest.test_case "of_class_assignment" `Quick test_of_class_assignment;
    Alcotest.test_case "group_by" `Quick test_group_by;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "split validation" `Quick test_split_validation;
    Alcotest.test_case "split no-op" `Quick test_split_noop;
    Alcotest.test_case "refine_class_by" `Quick test_refine_class_by;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "on_split trace" `Quick test_on_split_trace;
    Alcotest.test_case "refiner bisimulation-like" `Quick test_refiner_bisimulation_like;
    Alcotest.test_case "refiner respects initial" `Quick test_refiner_respects_initial;
    Alcotest.test_case "refiner size mismatch" `Quick test_refiner_size_mismatch;
    Alcotest.test_case "view/iter_class" `Quick test_view_iter_class;
    Alcotest.test_case "split_runs" `Quick test_split_runs;
    Alcotest.test_case "split_runs partial cover" `Quick test_split_runs_partial;
    Alcotest.test_case "stats: all-discrete initial" `Quick test_stats_all_discrete;
    Alcotest.test_case "stats: one giant class" `Quick test_stats_giant_class;
    Alcotest.test_case "stats: singletons + large class" `Quick test_stats_singleton_mixed;
    Alcotest.test_case "stats: add_stats" `Quick test_add_stats;
    Alcotest.test_case "counting-sort threshold" `Quick test_use_counting_sort_threshold;
    Alcotest.test_case "counting-sort pipeline" `Quick test_counting_sort_pipeline;
    Alcotest.test_case "per-pipeline counters" `Quick test_pipeline_counters;
    Alcotest.test_case "ranked pipeline" `Quick test_ranked_pipeline;
    Alcotest.test_case "ranked counting sort" `Quick test_ranked_counting_sort;
    Alcotest.test_case "differential: oracle chains" `Quick test_differential_oracle_chains;
  ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_tests @ qcheck_differential)
