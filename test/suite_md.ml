(* Tests for matrix diagrams: formal sums, hash-consing, flattening,
   state spaces, vector products, and the Kronecker substrate. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Formal_sum = Mdl_md.Formal_sum
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Kronecker = Mdl_kron.Kronecker
module Gen_md = Mdl_oracle.Gen_md
module Local_key = Mdl_core.Local_key

(* Column [c] of a node, read from the transposes a lumper's
   {!Local_key.context} keeps (the diagram keeps none). *)
let node_col md id c = Array.to_list (Local_key.node_cols (Local_key.make_context md) id).(c)

(* [x * R] over [ss], through a walk built for the one product. *)
let vec_mul md ss x =
  let y = Array.make (Statespace.size ss) 0.0 in
  Md_vector.vec_mul_into (Md_vector.create md ss) x y;
  y

let matrix_testable = Alcotest.testable Csr.pp (fun a b -> Csr.approx_equal a b)

(* --- formal sums --- *)

let test_fsum_canonical () =
  let s = Formal_sum.of_list [ (3, 1.0); (1, 2.0); (3, -1.0); (2, 0.0) ] in
  Alcotest.(check (list (pair int (float 0.0)))) "canonical" [ (1, 2.0) ] (Formal_sum.terms s);
  Alcotest.(check bool) "empty" true (Formal_sum.is_empty (Formal_sum.of_list [ (1, 0.0) ]))

let test_fsum_algebra () =
  let a = Formal_sum.of_list [ (1, 1.0); (2, 2.0) ] in
  let b = Formal_sum.of_list [ (2, 3.0); (3, 1.0) ] in
  let s = Formal_sum.add a b in
  Alcotest.(check (float 0.0)) "coeff 2" 5.0 (Formal_sum.coeff s 2);
  Alcotest.(check (float 0.0)) "coeff absent" 0.0 (Formal_sum.coeff s 9);
  let d = Formal_sum.scale 2.0 a in
  Alcotest.(check (float 0.0)) "scaled" 4.0 (Formal_sum.coeff d 2);
  Alcotest.(check bool) "scale 0 empties" true (Formal_sum.is_empty (Formal_sum.scale 0.0 a));
  Alcotest.(check (list int)) "children" [ 1; 2; 3 ] (Formal_sum.children s)

let test_fsum_map_children_merge () =
  let a = Formal_sum.of_list [ (1, 1.0); (2, 2.0); (3, 3.0) ] in
  let mapped = Formal_sum.map_children (fun n -> if n <= 2 then 10 else 20) a in
  Alcotest.(check (list (pair int (float 0.0)))) "merged" [ (10, 3.0); (20, 3.0) ]
    (Formal_sum.terms mapped)

let test_fsum_equality_hash () =
  let a = Formal_sum.of_list [ (1, 1.0); (2, 2.0) ] in
  let b = Formal_sum.of_list [ (2, 2.0); (1, 1.0) ] in
  Alcotest.(check bool) "order-independent equal" true (Formal_sum.equal a b);
  Alcotest.(check int) "hash agrees" (Formal_sum.hash a) (Formal_sum.hash b);
  let c = Formal_sum.of_list [ (1, 1.0); (2, 2.0000001) ] in
  Alcotest.(check bool) "bit-exact inequality" false (Formal_sum.equal a c);
  Alcotest.(check bool) "approx compare tolerant" true
    (Formal_sum.compare_approx ~eps:1e-3 a c = 0)

(* --- a hand-built 2-level MD ---

   Level 1 (size 2), level 2 (size 2):
     root = [ . e10 ; e01 . ] where e10 = 1.0*A, e01 = 2.0*B
     A = [ . 3 ; . . ]   B = [ 4 . ; . 5 ]  (values via terminal)
   Flat matrix over {0,1}x{0,1} (row-major: s = 2*s1 + s2):
     (0,s2) -> (1,s2') with A-block * 1.0 ; (1,s2) -> (0,s2') with B*2.0 *)
let hand_md () =
  let md = Md.create ~sizes:[| 2; 2 |] in
  let a =
    Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.0) ]
  in
  let b =
    Md.add_node md ~level:2
      [ (0, 0, Md.scalar_sum md 4.0); (1, 1, Md.scalar_sum md 5.0) ]
  in
  let root =
    Md.add_node md ~level:1
      [ (0, 1, Formal_sum.singleton a 1.0); (1, 0, Formal_sum.singleton b 2.0) ]
  in
  Md.set_root md root;
  md

let hand_md_expected () =
  Csr.of_dense
    [|
      [| 0.0; 0.0; 0.0; 3.0 |];
      [| 0.0; 0.0; 0.0; 0.0 |];
      [| 8.0; 0.0; 0.0; 0.0 |];
      [| 0.0; 10.0; 0.0; 0.0 |];
    |]

let test_md_flatten () =
  Alcotest.check matrix_testable "hand MD flattens" (hand_md_expected ())
    (Md.to_csr (hand_md ()))

let test_md_hash_consing () =
  let md = Md.create ~sizes:[| 2; 2 |] in
  let a1 = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.0) ] in
  let a2 = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.0) ] in
  Alcotest.(check int) "same node" a1 a2;
  let a3 = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.5) ] in
  Alcotest.(check bool) "different node" true (a1 <> a3);
  (* duplicate positions combine *)
  let a4 =
    Md.add_node md ~level:2
      [ (0, 1, Md.scalar_sum md 1.0); (0, 1, Md.scalar_sum md 2.0) ]
  in
  Alcotest.(check int) "entries combined -> same as 3.0 node" a1 a4

let test_md_validation () =
  let md = Md.create ~sizes:[| 2; 3 |] in
  Alcotest.check_raises "bad level"
    (Invalid_argument "Md.add_node: level out of range") (fun () ->
      ignore (Md.add_node md ~level:3 []));
  Alcotest.check_raises "bad entry"
    (Invalid_argument "Md.add_node: entry (0,2) out of range for level 1 (size 2)")
    (fun () -> ignore (Md.add_node md ~level:1 [ (0, 2, Md.scalar_sum md 1.0) ]));
  (* terminal is at level 3 here, so using it from level 1 must fail *)
  Alcotest.check_raises "wrong child level"
    (Invalid_argument "Md.add_node: child 0 has level 3, expected 2") (fun () ->
      ignore (Md.add_node md ~level:1 [ (0, 0, Md.scalar_sum md 1.0) ]));
  Alcotest.check_raises "root level" (Invalid_argument "Md.set_root: node is not at level 1")
    (fun () ->
      let n = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 1.0) ] in
      Md.set_root md n);
  Alcotest.check_raises "no root" (Invalid_argument "Md.root: no root set") (fun () ->
      ignore (Md.root md))

let test_md_live_nodes () =
  let md = hand_md () in
  (* one extra unreachable node *)
  let _garbage = Md.add_node md ~level:2 [ (1, 0, Md.scalar_sum md 9.0) ] in
  let live = Md.live_nodes md in
  Alcotest.(check int) "level1 count" 1 (List.length live.(0));
  Alcotest.(check int) "level2 count" 2 (List.length live.(1));
  Alcotest.(check int) "total" 3 (Md.num_live_nodes md);
  let counts, entries = Md.stats md in
  Alcotest.(check (array int)) "counts" [| 1; 2 |] counts;
  Alcotest.(check (array int)) "entries" [| 2; 3 |] entries;
  Alcotest.(check bool) "memory positive" true (Md.memory_bytes md > 0)

let test_md_row_col_access () =
  let md = hand_md () in
  let live = Md.live_nodes md in
  let b = List.nth live.(1) 1 in
  (* node_col of b: column 0 must contain row 0 entry 4.0 *)
  let col0 = node_col md b 0 in
  Alcotest.(check int) "col entries" 1 (List.length col0);
  (match col0 with
  | [ (r, s) ] ->
      Alcotest.(check int) "row" 0 r;
      Alcotest.(check (float 0.0)) "value" 4.0 (Formal_sum.coeff s (Md.terminal md))
  | _ -> Alcotest.fail "unexpected column structure");
  let row1 = Md.node_row md b 1 in
  Alcotest.(check int) "row entries" 1 (List.length row1)

let test_md_iter_entries_sums () =
  let md = hand_md () in
  let total = ref 0.0 in
  Md.iter_entries md (fun ~row:_ ~col:_ v -> total := !total +. v);
  Alcotest.(check (float 1e-12)) "total rate mass" 21.0 !total

(* --- state spaces --- *)

let test_statespace_basics () =
  let ss =
    Statespace.of_tuples ~levels:2 [ [| 0; 1 |]; [| 1; 0 |]; [| 0; 1 |]; [| 0; 0 |] ]
  in
  Alcotest.(check int) "dedup size" 3 (Statespace.size ss);
  Alcotest.(check (option int)) "index present" (Some 1) (Statespace.index ss [| 0; 1 |]);
  Alcotest.(check (option int)) "index absent" None (Statespace.index ss [| 1; 1 |]);
  Alcotest.(check (list int)) "projection level 2" [ 0; 1 ] (Statespace.local_states ss 2);
  let collapsed = Statespace.relabel ss (fun l v -> if l = 2 then 0 else v) in
  Alcotest.(check int) "relabel collapses" 2 (Statespace.size collapsed)

let test_statespace_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Statespace.of_tuples: empty state space")
    (fun () -> ignore (Statespace.of_tuples ~levels:2 []));
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Statespace.of_tuples: tuple of wrong length") (fun () ->
      ignore (Statespace.of_tuples ~levels:2 [ [| 1 |] ]));
  (* [0; 1] and [1; 0] reach different level-2 nodes, so sending both
     level-2 values to 0 is injective on each node; sending both level-1
     values to 0 is not, since both leave the root. *)
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 1 |]; [| 1; 0 |] ] in
  Alcotest.(check int) "relabel within nodes" 2
    (Statespace.size (Statespace.relabel ss (fun l v -> if l = 2 then 0 else v)));
  (* Both root arcs land on 0, so their children unite: the image is
     {(0,0), (0,1)}, on the two nodes [of_tuples] builds for it, not on
     the two level-2 nodes the union absorbed as well. *)
  let united = Statespace.relabel ss (fun l v -> if l = 1 then 0 else v) in
  let expected = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |] ] in
  Alcotest.(check int) "relabel collision unites" 2 (Statespace.size united);
  Alcotest.(check (list (array int))) "united states"
    [ [| 0; 0 |]; [| 0; 1 |] ]
    (List.init 2 (Statespace.tuple united));
  Alcotest.(check int) "united nodes" (Statespace.num_nodes expected)
    (Statespace.num_nodes united);
  Alcotest.(check (list int)) "united level 2" [ 0; 1 ] (Statespace.local_states united 2)

let full_space sizes =
  let rec go = function
    | [] -> [ [] ]
    | n :: rest ->
        let tails = go rest in
        List.concat_map (fun d -> List.map (fun t -> d :: t) tails)
          (List.init n Fun.id)
  in
  Statespace.of_tuples ~levels:(List.length sizes)
    (List.map Array.of_list (go sizes))

let test_md_vector_products () =
  let md = hand_md () in
  let ss = full_space [ 2; 2 ] in
  let flat = Md.to_csr md in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check bool) "vec_mul matches flat" true
    (Vec.approx_equal (vec_mul md ss x) (Csr.vec_mul x flat));
  Alcotest.(check bool) "row_sums match" true
    (Vec.approx_equal (Md_vector.(row_sums (create md ss))) (Csr.row_sums flat));
  Alcotest.check matrix_testable "to_csr over full space" flat (Md_vector.(to_csr (create md ss)))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_md_dot_export () =
  let dot = Mdl_md.Dot.to_dot (hand_md ()) in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 20 && String.sub dot 0 10 = "digraph md");
  Alcotest.(check bool) "mentions terminal" true (contains ~needle:"terminal" dot)

(* --- level restructuring --- *)

let test_merge_adjacent_preserves_matrix () =
  let md = hand_md () in
  let merged = Mdl_md.Restructure.merge_adjacent md 1 in
  Alcotest.(check int) "one level left" 1 (Md.levels merged);
  Alcotest.(check int) "merged size" 4 (Md.size merged 1);
  (* Adjacent row-major merging preserves the mixed-radix flattening
     exactly. *)
  Alcotest.check matrix_testable "same matrix" (Md.to_csr md) (Md.to_csr merged)

let test_statespace_merge_levels () =
  let ss = Statespace.of_tuples ~levels:3 [ [| 0; 1; 2 |]; [| 1; 1; 0 |]; [| 1; 2; 1 |] ] in
  let merged = Statespace.merge_levels ss 2 ~width:3 in
  Alcotest.(check int) "levels" 2 (Statespace.levels merged);
  Alcotest.(check (option int)) "row-major, same index" (Some 2)
    (Statespace.index merged [| 1; 7 |]);
  Alcotest.(check (array int)) "merge top" [| 4; 0 |]
    (Statespace.tuple (Statespace.merge_levels ss 1 ~width:3) 1);
  Alcotest.check_raises "bad level"
    (Invalid_argument "Statespace.merge_levels: level out of range") (fun () ->
      ignore (Statespace.merge_levels ss 3 ~width:3));
  Alcotest.check_raises "narrow width"
    (Invalid_argument "Statespace.merge_levels: substate outside 0 .. width-1") (fun () ->
      ignore (Statespace.merge_levels ss 2 ~width:2))

let test_merge_statespace_consistent () =
  let md = hand_md () in
  let ss = full_space [ 2; 2 ] in
  let merged = Mdl_md.Restructure.merge_adjacent md 1 in
  let merged_ss = Statespace.merge_levels ss 1 ~width:(Md.size md 2) in
  let x = [| 0.4; 0.3; 0.2; 0.1 |] in
  let mul md ss = vec_mul md ss x in
  Alcotest.(check bool) "vector products agree across merge" true
    (Vec.approx_equal (mul md ss) (mul merged merged_ss))

(* --- the offset-indexed MDD behind Statespace --- *)

let test_mdd_matches_statespace () =
  let ss =
    Statespace.of_tuples ~levels:3
      [
        [| 0; 1; 2 |]; [| 0; 1; 0 |]; [| 1; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 0; 0 |];
        [| 1; 1; 1 |];
      ]
  in
  Alcotest.(check int) "count" 6 (Statespace.size ss);
  Statespace.iter
    (fun i s ->
      Alcotest.(check (option int)) "index agrees" (Some i) (Statespace.index ss s);
      Alcotest.(check (array int)) "tuple agrees" s (Statespace.tuple ss i))
    ss;
  Alcotest.(check (option int)) "absent tuple" None (Statespace.index ss [| 1; 1; 0 |]);
  (* iteration visits members in index order, which is lexicographic *)
  let seen = ref [] in
  Statespace.iter (fun i s -> seen := (i, Array.copy s) :: !seen) ss;
  let seen = List.rev !seen in
  List.iteri
    (fun k (i, s) ->
      Alcotest.(check int) "iter index" k i;
      Alcotest.(check (option int)) "iter tuple" (Some k) (Statespace.index ss s))
    seen;
  Alcotest.(check bool) "lexicographic" true
    (List.map snd seen = List.sort compare (List.map snd seen))

let test_mdd_sharing () =
  (* All suffix sets equal -> maximal sharing: one node per level. *)
  let tuples = ref [] in
  for a = 0 to 2 do
    for b = 0 to 2 do
      tuples := [| a; b |] :: !tuples
    done
  done;
  let ss = Statespace.of_tuples ~levels:2 !tuples in
  Alcotest.(check int) "two shared nodes" 2 (Statespace.num_nodes ss)

(* --- Md_vector.to_csr against an independent flattening ---

   The reference flattens the whole potential space with [Md.to_csr]
   and keeps the rows and columns of [ss]: a path walk over the
   mixed-radix product space that shares nothing with the MDD co-walk
   behind [Md_vector.to_csr]. *)
let restricted_flat md ss =
  let sizes = Md.sizes md in
  let radix s =
    let r = ref 0 in
    Array.iteri (fun l v -> r := (!r * sizes.(l)) + v) s;
    !r
  in
  let full = Md.to_csr md in
  let pos = Array.make (Csr.rows full) (-1) in
  Statespace.iter (fun i s -> pos.(radix s) <- i) ss;
  let kept = ref [] in
  Csr.iter
    (fun r c v -> if pos.(r) >= 0 && pos.(c) >= 0 then kept := (pos.(r), pos.(c), v) :: !kept)
    full;
  let n = Statespace.size ss in
  Csr.of_triplets ~rows:n ~cols:n !kept

(* The co-walk products against the restricted full flattening. *)
let test_mdd_products_match_hash_indexing () =
  let b = Mdl_models.Workstations.build (Mdl_models.Workstations.default ~stations:3) in
  let md = b.Mdl_models.Workstations.md in
  let ss = b.Mdl_models.Workstations.exploration.Mdl_san.Model.statespace in
  let flat = restricted_flat md ss in
  let n = Statespace.size ss in
  let x = Array.init n (fun i -> float_of_int (i mod 7) +. 0.5) in
  Alcotest.(check bool) "vec_mul agrees" true
    (Vec.approx_equal (Csr.vec_mul x flat) (vec_mul md ss x));
  Alcotest.(check bool) "row_sums agree" true
    (Vec.approx_equal (Csr.row_sums flat) (Md_vector.(row_sums (create md ss))))

(* A random non-empty subset of the potential space: every branch of
   the product tree is kept with probability [p] (1/2, 4/5 or 1), so
   whole prefixes drop out at every level and most rows keep rates
   into states outside the subset. *)
let random_subspace rng sizes =
  let p = [| 0.5; 0.8; 1.0 |].(Mdl_util.Prng.int rng 3) in
  let nlevels = Array.length sizes in
  let buf = Array.make nlevels 0 in
  let kept = ref [] in
  let rec go l =
    if l = nlevels then kept := Array.copy buf :: !kept
    else
      for v = 0 to sizes.(l) - 1 do
        if Mdl_util.Prng.float rng 1.0 < p then begin
          buf.(l) <- v;
          go (l + 1)
        end
      done
  in
  go 0;
  let tuples =
    if !kept = [] then [ Array.map (fun n -> Mdl_util.Prng.int rng n) sizes ] else !kept
  in
  Statespace.of_tuples ~levels:nlevels tuples

let check_to_csr_flattening name md ss =
  let got = Md_vector.(to_csr (create md ss)) in
  Alcotest.(check bool) (name ^ ": has entries") true (Csr.nnz got > 0);
  Alcotest.(check bool) (name ^ ": equals the restricted flattening") true
    (Csr.equal got (restricted_flat md ss))

let test_to_csr_matches_flattening_on_models () =
  let open Mdl_models in
  let check name md ss ~rewards ~initial =
    check_to_csr_flattening (name ^ " flat") md ss;
    let r = Mdl_core.Compositional.lump Ordinary md ~rewards ~initial in
    check_to_csr_flattening (name ^ " lumped") r.Mdl_core.Compositional.lumped
      (Mdl_core.Compositional.lump_statespace r ss)
  in
  let ss (ex : Mdl_san.Model.exploration) = ex.Mdl_san.Model.statespace in
  let w = Workstations.build (Workstations.default ~stations:3) in
  check "workstations" w.Workstations.md (ss w.Workstations.exploration)
    ~rewards:[ w.Workstations.rewards_operational ] ~initial:w.Workstations.initial;
  let p = Polling.build (Polling.default ~customers:2) in
  check "polling" p.Polling.md (ss p.Polling.exploration)
    ~rewards:[ p.Polling.rewards_busy_servers ] ~initial:p.Polling.initial;
  let t =
    Tandem.build
      { (Tandem.default ~jobs:1) with Tandem.hyper_dim = 2; msmq_servers = 2; msmq_queues = 2 }
  in
  check "tandem" t.Tandem.md (ss t.Tandem.exploration)
    ~rewards:[ t.Tandem.rewards_availability ] ~initial:t.Tandem.initial;
  let m = Multitier.build (Multitier.default ~clients:2) in
  check "multitier" m.Multitier.md (ss m.Multitier.exploration)
    ~rewards:[ m.Multitier.rewards_thinking ] ~initial:m.Multitier.initial;
  let k = Kanban.build (Kanban.default ~cards:2) in
  check "kanban" k.Kanban.md (ss k.Kanban.exploration)
    ~rewards:[ k.Kanban.rewards_in_system ] ~initial:k.Kanban.initial

(* --- set MDDs --- *)

let test_dot_write_file () =
  let path = Filename.temp_file "mdlump" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mdl_md.Dot.write_file (hand_md ()) path;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "dot file written" true
        (String.length line >= 7 && String.sub line 0 7 = "digraph"))

let test_local_states_match_exploration () =
  let b = Mdl_models.Polling.build (Mdl_models.Polling.default ~customers:2) in
  let exp = b.Mdl_models.Polling.exploration in
  let ss = exp.Mdl_san.Model.statespace in
  (* every level index set is fully used by the canonical exploration *)
  Array.iteri
    (fun k space ->
      Alcotest.(check (list int))
        (Printf.sprintf "level %d local states" (k + 1))
        (List.init (Array.length space) Fun.id)
        (Statespace.local_states ss (k + 1)))
    exp.Mdl_san.Model.local_spaces

let test_printers_smoke () =
  (* The pretty-printers must render without raising. *)
  let md = hand_md () in
  let s = Format.asprintf "%a" Md.pp md in
  Alcotest.(check bool) "md pp" true (String.length s > 0);
  let ss = full_space [ 2; 2 ] in
  let s = Format.asprintf "%a" Statespace.pp ss in
  Alcotest.(check bool) "statespace pp" true (String.length s > 0);
  let s = Format.asprintf "%a" Formal_sum.pp Formal_sum.empty in
  Alcotest.(check string) "empty fsum pp" "0" s

let test_set_mdd_basics () =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:2 in
  let a = S.singleton m [| 0; 1 |] in
  let b = S.singleton m [| 1; 0 |] in
  let u = S.union m a b in
  Alcotest.(check int) "count" 2 (S.count m u);
  let ss = S.to_statespace m u in
  Alcotest.(check (option int)) "mem" (Some 0) (Statespace.index ss [| 0; 1 |]);
  Alcotest.(check (option int)) "not mem" None (Statespace.index ss [| 0; 0 |]);
  Alcotest.(check bool) "union idempotent" true (S.equal u (S.union m u a));
  Alcotest.(check bool) "union with empty" true (S.equal u (S.union m u (S.empty m)));
  Alcotest.(check bool) "empty is empty" true (S.is_empty (S.empty m));
  Alcotest.(check int) "statespace size" 2 (Statespace.size ss)

let test_set_mdd_validation () =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:2 in
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Set_mdd.singleton: tuple length mismatch") (fun () ->
      ignore (S.singleton m [| 1 |]));
  Alcotest.check_raises "empty statespace"
    (Invalid_argument "Set_mdd.to_statespace: empty set") (fun () ->
      ignore (S.to_statespace m (S.empty m)))

(* --- saturation --- *)

(* A random event system over small local spaces.  Event [e] touches the
   levels [tops.(e)..bots.(e)]; [table.(e).(l - 1).(v)] is the level-[l]
   successor row of local state [v] (identity, empty, self-loop and
   multi-target rows all occur), and a no-op event is identity on its
   one level. *)
type system = {
  sizes : int array;
  tops : int array;
  bots : int array;
  table : int array array array array;
  init : int array;
}

let gen_system =
  QCheck.Gen.(
    let* nlevels = int_range 2 5 in
    let* sizes = array_size (return nlevels) (int_range 1 6) in
    let* nevents = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    return (sizes, nevents, seed))

let build_system (sizes, nevents, seed) =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let n = Array.length sizes in
  let tops = Array.init nevents (fun _ -> 1 + int n) in
  let bots = Array.map (fun top -> top + int (n - top + 1)) tops in
  let table =
    Array.init nevents (fun e ->
        let noop = int 6 = 0 in
        Array.init n (fun k ->
            let size = sizes.(k) and l = k + 1 in
            let identity = noop || l < tops.(e) || l > bots.(e) || int 5 = 0 in
            Array.init size (fun v ->
                if identity then [| v |]
                else
                  match int 8 with
                  | 0 -> [||]
                  | 1 -> [| v |]
                  | 2 | 3 | 4 -> [| int size |]
                  | _ -> Array.of_list (List.sort_uniq compare (List.init (1 + int 3) (fun _ -> int size))))))
  in
  { sizes; tops; bots; table; init = Array.map (fun size -> int size) sizes }

let system_rels sys = Array.map (fun rows l v -> rows.(l - 1).(v)) sys.table

(* The reachable tuples by breadth-first search over explicit tuples:
   an event fires from a tuple into the product of its level rows. *)
let explicit_reachable sys =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      Queue.add t queue
    end
  in
  visit sys.init;
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    Array.iter
      (fun rows ->
        let rec expand k acc =
          if k = Array.length t then visit (Array.of_list (List.rev acc))
          else Array.iter (fun v' -> expand (k + 1) (v' :: acc)) rows.(k).(t.(k))
        in
        expand 0 [])
      sys.table
  done;
  List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) seen [])

(* The tuples of [saturation] from the initial tuple, and their count. *)
let saturated_tuples sys ~rels ~tops ~bots =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:(Array.length sys.sizes) in
  let r = S.saturation m ~rels ~tops ~bots (S.singleton m sys.init) in
  let ss = S.to_statespace m r in
  (S.count m r, List.init (Statespace.size ss) (Statespace.tuple ss))

let saturation_properties =
  [
    QCheck.Test.make ~count:200
      ~name:"saturation = explicit BFS, with true and with unknown tops and bottoms"
      (QCheck.make
         ~print:(fun (sizes, nevents, seed) ->
           Printf.sprintf "sizes=[%s] events=%d seed=%d"
             (String.concat ";" (List.map string_of_int (Array.to_list sizes)))
             nevents seed)
         gen_system)
      (fun spec ->
        let sys = build_system spec in
        let expected = explicit_reachable sys in
        let n = Array.length sys.sizes and rels = system_rels sys in
        let agrees (count, tuples) = count = List.length expected && tuples = expected in
        agrees (saturated_tuples sys ~rels ~tops:sys.tops ~bots:sys.bots)
        && agrees
             (saturated_tuples sys ~rels
                ~tops:(Array.map (fun _ -> 1) sys.tops)
                ~bots:(Array.map (fun _ -> n) sys.bots)));
  ]

(* A fixed three-level system: a tandem of three queues of capacity 3
   (arrive at level 1, move 1->2, move 2->3, serve at 3), a level-2
   shuffle with a self-loop and a no-op event.  Saturation consults a
   relation only within its event's levels, and no more often than
   pinned. *)
let test_saturation_consultations () =
  let module S = Mdl_md.Set_mdd in
  let id v = [| v |] in
  let up v = if v < 3 then [| v + 1 |] else [||] in
  let down v = if v > 0 then [| v - 1 |] else [||] in
  let events =
    [|
      (1, 1, [| up; id; id |]);
      (1, 2, [| down; up; id |]);
      (2, 3, [| id; down; up |]);
      (3, 3, [| id; id; down |]);
      (2, 2, [| id; (fun v -> [| v; (v + 2) mod 4 |]); id |]);
      (3, 3, [| id; id; id |]);
    |]
  in
  let tops = Array.map (fun (t, _, _) -> t) events in
  let bots = Array.map (fun (_, b, _) -> b) events in
  let calls = ref 0 and below_bottom = ref [] in
  let rels =
    Array.mapi
      (fun e (_, bot, f) l v ->
        incr calls;
        if l > bot then below_bottom := (e, l, v) :: !below_bottom;
        f.(l - 1) v)
      events
  in
  let m = S.manager ~levels:3 in
  let r = S.saturation m ~rels ~tops ~bots (S.singleton m [| 0; 0; 0 |]) in
  Alcotest.(check int) "reachable tuples" 64 (S.count m r);
  Alcotest.(check (list (triple int int int))) "no consultation below an event's bottom" []
    !below_bottom;
  (* Before saturation stopped events at their bottom level and fired
     only new arcs, the same run consulted the relations 154 times, 22
     of them below the event's bottom level. *)
  Alcotest.(check bool) (Printf.sprintf "%d consultations, at most 70" !calls) true
    (!calls <= 70)

let test_saturation_validation () =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:3 in
  let s = S.singleton m [| 0; 0; 0 |] in
  let rels = [| (fun _ v -> [| v |]); (fun _ v -> [| v |]) |] in
  let raises msg tops bots =
    Alcotest.check_raises msg (Invalid_argument ("Set_mdd.saturation: " ^ msg)) (fun () ->
        ignore (S.saturation m ~rels ~tops ~bots s))
  in
  raises "rels/bots length mismatch" [| 1; 2 |] [| 3 |];
  raises "bottom level out of range" [| 1; 2 |] [| 3; 1 |];
  raises "bottom level out of range" [| 1; 2 |] [| 4; 3 |]

(* --- Kronecker --- *)

let simple_kron () =
  (* Two levels of size 2; event a acts on level 1 only, event b on both. *)
  let w_a1 = Csr.of_dense [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let w_b1 = Csr.of_dense [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let w_b2 = Csr.of_dense [| [| 0.0; 2.0 |]; [| 1.0; 0.0 |] |] in
  Kronecker.make ~sizes:[| 2; 2 |]
    [
      { Kronecker.label = "a"; rate = 3.0; locals = [| w_a1; Kronecker.identity_local 2 |] };
      { Kronecker.label = "b"; rate = 0.5; locals = [| w_b1; w_b2 |] };
    ]

let test_kron_to_csr () =
  let k = simple_kron () in
  let m = Kronecker.to_csr k in
  (* event a: (s1,s2) -> (1-s1,s2) at rate 3; event b: (0,s2)->(1,s2') *)
  Alcotest.(check (float 1e-12)) "a entry" 3.0 (Csr.get m 0 2);
  Alcotest.(check (float 1e-12)) "b entry (0,0)->(1,1)" 1.0 (Csr.get m 0 3);
  Alcotest.(check (float 1e-12)) "b entry (0,1)->(1,0)" 0.5 (Csr.get m 1 2)

let test_kron_md_equivalence () =
  let k = simple_kron () in
  Alcotest.check matrix_testable "kron = md" (Kronecker.to_csr k)
    (Md.to_csr (Kronecker.to_md k))

let test_kron_vec_mul () =
  let k = simple_kron () in
  let flat = Kronecker.to_csr k in
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "shuffle product" true
    (Vec.approx_equal (Kronecker.vec_mul k x) (Csr.vec_mul x flat))

let test_kron_misc () =
  let k = simple_kron () in
  Alcotest.(check int) "num_events" 2 (Kronecker.num_events k);
  Alcotest.(check int) "potential size" 4 (Kronecker.potential_size k);
  Alcotest.(check int) "events list" 2 (List.length (Kronecker.events k));
  Alcotest.check_raises "vec_mul dim"
    (Invalid_argument "Kronecker.vec_mul: vector size mismatch") (fun () ->
      ignore (Kronecker.vec_mul k [| 1.0 |]))

let test_kron_validation () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Kronecker.make: event e has non-positive rate") (fun () ->
      ignore
        (Kronecker.make ~sizes:[| 2 |]
           [ { Kronecker.label = "e"; rate = 0.0; locals = [| Csr.identity 2 |] } ]));
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Kronecker.make: event e level 1 matrix has wrong size") (fun () ->
      ignore
        (Kronecker.make ~sizes:[| 2 |]
           [ { Kronecker.label = "e"; rate = 1.0; locals = [| Csr.identity 3 |] } ]))

(* --- random Kronecker descriptors: MD/Kron/flat agreement --- *)

let gen_local n rng_state =
  (* A sparse local matrix with small-integer rates. *)
  let open QCheck.Gen in
  let entry = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 3) in
  let l = generate1 ~rand:rng_state (list_size (int_range 0 (n * 2)) entry) in
  Csr.of_triplets ~rows:n ~cols:n (List.map (fun (i, j, v) -> (i, j, float_of_int v)) l)

let gen_descriptor =
  QCheck.Gen.(
    let* nlevels = int_range 1 3 in
    let* sizes = array_size (return nlevels) (int_range 1 3) in
    let* nevents = int_range 1 4 in
    let* seed = int_range 0 1_000_000 in
    return (sizes, nevents, seed))

let build_descriptor (sizes, nevents, seed) =
  let rng_state = Random.State.make [| seed |] in
  let events =
    List.init nevents (fun i ->
        {
          Kronecker.label = Printf.sprintf "e%d" i;
          rate = float_of_int (1 + (i mod 3));
          locals = Array.map (fun n -> gen_local n rng_state) sizes;
        })
  in
  Kronecker.make ~sizes events

let arb_descriptor =
  QCheck.make
    ~print:(fun (sizes, nevents, seed) ->
      Printf.sprintf "sizes=[%s] events=%d seed=%d"
        (String.concat ";" (List.map string_of_int (Array.to_list sizes)))
        nevents seed)
    gen_descriptor

let oracle_descriptor (spec : Mdl_oracle.Spec.kron) =
  Gen_md.kronecker (Mdl_util.Prng.of_seed spec.seed) spec

let test_normalize_merges_proportional_nodes () =
  (* The two events' level-2 suffixes [2] and [1] are proportional; the
     canonical build gives them one node and pushes the factors up into
     the root's coefficients. *)
  let point r = Csr.of_triplets ~rows:2 ~cols:2 [ (r, r, 1.0) ] in
  let scalar v = Csr.of_triplets ~rows:1 ~cols:1 [ (0, 0, v) ] in
  let k =
    Kronecker.make ~sizes:[| 2; 1 |]
      [
        { Kronecker.label = "a"; rate = 1.0; locals = [| point 0; scalar 2.0 |] };
        { Kronecker.label = "b"; rate = 2.0; locals = [| point 1; scalar 1.0 |] };
      ]
  in
  let chains = Gen_md.event_chains k and normalized = Kronecker.to_md k in
  Alcotest.(check int) "chains keep both" 2 (List.length (Md.live_nodes chains).(1));
  Alcotest.check matrix_testable "matrix preserved" (Md.to_csr chains) (Md.to_csr normalized);
  let live = Md.live_nodes normalized in
  Alcotest.(check int) "proportional nodes merged" 1 (List.length live.(1))

(* --- structural diagram equality, raw constructors ---

   These pin the contracts the incremental lumped rebuild relies on:
   [Md.equal] must identify isomorphic rooted diagrams regardless of
   store-local node ids, and [add_node_sorted_rows] must hash-cons to
   the node [add_node] would have built. *)

let diag_of_entries ?(prewarm = 0) entries =
  (* A 2-level diagram; [prewarm] junk nodes shift the store's ids. *)
  let md = Md.create ~sizes:[| 2; 2 |] in
  for i = 1 to prewarm do
    ignore (Md.add_node md ~level:2 [ (1, 1, Md.scalar_sum md (9.0 +. float_of_int i)) ])
  done;
  let a = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.0) ] in
  let b = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 4.0) ] in
  let root = Md.add_node md ~level:1 (entries a b) in
  Md.set_root md root;
  md

let test_md_equal () =
  let entries a b =
    [ (0, 1, Formal_sum.singleton a 1.0); (1, 0, Formal_sum.singleton b 2.0) ]
  in
  let m1 = diag_of_entries entries in
  (* Same diagram built into a pre-warmed store: the shared children get
     different node ids, and the extra node is unreachable garbage. *)
  let m2 = diag_of_entries ~prewarm:2 entries in
  Alcotest.(check bool) "isomorphic stores equal" true (Md.equal m1 m2);
  Alcotest.(check bool) "equality is symmetric" true (Md.equal m2 m1);
  (* coefficient difference at a leaf *)
  let m3 =
    diag_of_entries (fun a b ->
        ignore b;
        [ (0, 1, Formal_sum.singleton a 1.0); (1, 0, Formal_sum.singleton a 2.0) ])
  in
  Alcotest.(check bool) "different child structure" false (Md.equal m1 m3);
  let m4 =
    diag_of_entries (fun a b ->
        [ (0, 1, Formal_sum.singleton a 1.0); (1, 0, Formal_sum.singleton b 2.5) ])
  in
  Alcotest.(check bool) "different coefficient" false (Md.equal m1 m4);
  (* level-size mismatch *)
  let m5 = Md.create ~sizes:[| 2; 3 |] in
  Alcotest.(check bool) "different sizes" false (Md.equal m1 m5)

let test_add_node_sorted_rows () =
  let md = Md.create ~sizes:[| 3; 2 |] in
  let a = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 3.0) ] in
  let via_add =
    Md.add_node md ~level:1
      [
        (0, 0, Formal_sum.singleton a 1.0);
        (0, 1, Formal_sum.singleton a 2.0);
        (2, 1, Formal_sum.singleton a 4.0);
      ]
  in
  let rows =
    [|
      [| (0, Formal_sum.singleton a 1.0); (1, Formal_sum.singleton a 2.0) |];
      [||];
      [| (1, Formal_sum.singleton a 4.0) |];
    |]
  in
  let via_raw = Md.add_node_sorted_rows md ~level:1 rows in
  Alcotest.(check int) "hash-conses to the add_node node" via_add via_raw;
  Alcotest.check_raises "bad level"
    (Invalid_argument "Md.add_node_sorted_rows: level out of range") (fun () ->
      ignore (Md.add_node_sorted_rows md ~level:0 [||]));
  Alcotest.check_raises "bad row count"
    (Invalid_argument "Md.add_node_sorted_rows: row count does not match the level size")
    (fun () -> ignore (Md.add_node_sorted_rows md ~level:1 [| [||] |]))

(* [Md.live_nodes] as it was before nodes recorded their children: a
   depth-first walk over every (row, entry, term), a visited table, and
   each level's nodes in visit order. *)
let live_nodes_by_entries md =
  let per_level = Array.make (Md.levels md) [] in
  let seen = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let level = Md.node_level md id in
      if level <= Md.levels md then begin
        per_level.(level - 1) <- id :: per_level.(level - 1);
        Array.iter
          (fun row ->
            Array.iter (fun (_, s) -> List.iter visit (Formal_sum.children s)) row)
          (Md.node_rows md id)
      end
    end
  in
  visit (Md.root md);
  Array.map List.rev per_level

let qcheck_tests =
  let open QCheck in
  [
    QCheck.Test.make ~count:200
      ~name:"live_nodes equals the walk over every entry, list for list"
      (Mdl_oracle.Qcheck_gen.model ()) (fun spec ->
        let md = Gen_md.of_spec spec in
        Md.live_nodes md = live_nodes_by_entries md);
    QCheck.Test.make ~count:150 ~name:"node_col is the transpose of node_row" arb_descriptor
    (fun spec ->
      let k = build_descriptor spec in
      let md = Gen_md.event_chains k in
      let ctx = Local_key.make_context md in
      let live = Md.live_nodes md in
      Array.for_all
        (fun ids ->
          List.for_all
            (fun id ->
              let level = Md.node_level md id in
              let n = Md.size md level in
              let cols = Local_key.node_cols ctx id in
              (* Every entry appears once: as many column entries as the
                 node has, each found in its row. *)
              let ok =
                ref (Array.fold_left (fun a col -> a + Array.length col) 0 cols
                     = Md.node_nnz md id)
              in
              for c = 0 to n - 1 do
                List.iter
                  (fun (r, sum) ->
                    let found =
                      List.exists
                        (fun (c', sum') -> c' = c && Formal_sum.equal sum sum')
                        (Md.node_row md id r)
                    in
                    if not found then ok := false)
                  (Array.to_list cols.(c))
              done;
              !ok)
            ids)
        live);
    Test.make ~count:200 ~name:"normalize preserves the represented matrix"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        Csr.approx_equal (Md.to_csr (Gen_md.event_chains k)) (Md.to_csr (Kronecker.to_md k)));
    Test.make ~count:200 ~name:"canonical md flattens to the descriptor's matrix"
      Mdl_oracle.Qcheck_gen.kron (fun spec ->
        let k = oracle_descriptor spec in
        Csr.approx_equal (Md.to_csr (Kronecker.to_md k)) (Kronecker.to_csr k));
    Test.make ~count:200 ~name:"canonical md has one-term sums above the bottom level"
      Mdl_oracle.Qcheck_gen.kron (fun spec ->
        let md = Kronecker.to_md (oracle_descriptor spec) in
        let live = Md.live_nodes md in
        let one_term id =
          let ok = ref true in
          Md.iter_node_entries md id (fun _ _ s ->
              if Formal_sum.num_terms s <> 1 then ok := false);
          !ok
        in
        Array.for_all (List.for_all one_term) (Array.sub live 0 (Md.levels md - 1)));
    (* Scale is canonical: moving a factor 2 from every rate into one
       level's local matrices (exact in binary) leaves the diagram bit
       for bit unchanged, although the event chains then differ.  This
       holds for events with an all-zero local matrix too, which add
       nothing: the fixed case is one such event, whose entries on the
       empty level-2 node used to move from 0.25/1.25 to 0.125/0.625. *)
    Test.make ~count:200 ~name:"canonical md ignores where a scale factor sits"
      (pair Mdl_oracle.Qcheck_gen.kron small_nat) (fun (spec, l) ->
        let moved_equal (spec : Mdl_oracle.Spec.kron) l =
          let k = oracle_descriptor spec in
          let sizes = Kronecker.sizes k in
          let l = l mod Array.length sizes in
          let moved =
            List.map
              (fun (e : Kronecker.event) ->
                let locals = Array.copy e.locals in
                locals.(l) <- Csr.scale 2.0 locals.(l);
                { e with rate = e.rate /. 2.0; locals })
              (Kronecker.events k)
          in
          Md.equal (Kronecker.to_md k) (Kronecker.to_md (Kronecker.make ~sizes moved))
        in
        moved_equal
          {
            Mdl_oracle.Spec.sizes = [| 4; 2 |];
            events = 1;
            symmetric = true;
            ring = true;
            merged = false;
            seed = 53137;
          }
          1
        && moved_equal spec l);
    Test.make ~count:150 ~name:"merge_adjacent preserves matrix (random)"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Gen_md.event_chains k in
        Md.levels md < 2
        ||
        let merged = Mdl_md.Restructure.merge_adjacent md 1 in
        Csr.approx_equal (Md.to_csr md) (Md.to_csr merged));
    Test.make ~count:150 ~name:"merging all levels down to one preserves matrix"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Gen_md.event_chains k in
        let rec collapse m =
          if Md.levels m = 1 then m else collapse (Mdl_md.Restructure.merge_adjacent m 1)
        in
        Csr.approx_equal (Md.to_csr md) (Md.to_csr (collapse md)));
    Test.make ~count:200 ~name:"md of kron flattens to kron matrix" arb_descriptor
      (fun spec ->
        let k = build_descriptor spec in
        let md = Gen_md.event_chains k in
        Csr.approx_equal (Kronecker.to_csr k) (Md.to_csr md));
    Test.make ~count:150 ~name:"restructure round-trips on free-form diagrams"
      (Mdl_oracle.Qcheck_gen.md_model ()) (fun spec ->
        let md = Mdl_oracle.Gen_md.of_spec spec in
        Md.levels md < 2
        ||
        let flat = Md.to_csr md in
        let level = 1 + (Array.length (Md.sizes md) mod (Md.levels md - 1)) in
        let merged = Mdl_md.Restructure.merge_adjacent md level in
        Csr.approx_equal flat (Md.to_csr merged)
        && Mdl_oracle.Invariants.md merged = []);
    Test.make ~count:200 ~name:"shuffle vec_mul matches flat" arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let n = Kronecker.potential_size k in
        let x = Array.init n (fun i -> float_of_int ((i mod 5) + 1)) in
        Vec.approx_equal (Kronecker.vec_mul k x) (Csr.vec_mul x (Kronecker.to_csr k)));
    Test.make ~count:100 ~name:"md vector products match flat over full space"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Gen_md.event_chains k in
        let sizes = Kronecker.sizes k in
        let ss = full_space (Array.to_list sizes) in
        let flat = Md.to_csr md in
        let n = Kronecker.potential_size k in
        let x = Array.init n (fun i -> float_of_int (i + 1)) in
        Vec.approx_equal (vec_mul md ss x) (Csr.vec_mul x flat)
        && Vec.approx_equal (Md_vector.(row_sums (create md ss))) (Csr.row_sums flat));
    Test.make ~count:300 ~name:"to_csr equals the restricted full flattening"
      (pair (Mdl_oracle.Qcheck_gen.md_model ~max_levels:4 ()) (int_bound 1_000_000))
      (fun (spec, seed) ->
        let md = Mdl_oracle.Gen_md.of_spec spec in
        let ss = random_subspace (Mdl_util.Prng.of_seed seed) (Md.sizes md) in
        Csr.equal (Md_vector.(to_csr (create md ss))) (restricted_flat md ss));
    Test.make ~count:300 ~name:"statespace agrees with a sorted-list model"
      (pair (int_range 1 3)
         (list_of_size Gen.(int_range 1 30) (triple (int_bound 3) (int_bound 3) (int_bound 3))))
      (fun (levels, triples) ->
        let inputs = List.map (fun (a, b, c) -> Array.sub [| a; b; c |] 0 levels) triples in
        let model = List.sort_uniq compare (List.map Array.copy inputs) in
        let ss = Statespace.of_tuples ~levels inputs in
        let listed t =
          let acc = ref [] in
          Statespace.iter (fun _ s -> acc := Array.copy s :: !acc) t;
          List.rev !acc
        in
        let rec product range l =
          if l = 0 then [ [||] ]
          else
            List.concat_map (fun t -> List.init range (fun v -> Array.append t [| v |]))
              (product range (l - 1))
        in
        (* [t] enumerates, indexes and returns tuples like the sorted
           list [model], whose entries lie below [range - 1], and is
           built on the nodes [of_tuples] builds for it. *)
        let agrees ?(range = 5) model t =
          let levels = Statespace.levels t in
          let position s =
            let rec go i = function
              | [] -> None
              | x :: rest -> if x = s then Some i else go (i + 1) rest
            in
            go 0 model
          in
          listed t = model
          && Statespace.size t = List.length model
          && List.for_all (fun s -> Statespace.index t s = position s) (product range levels)
          && Statespace.index t (Array.make (levels + 1) 0) = None
          && Statespace.index t (Array.make (levels - 1) 0) = None
          && List.for_all Fun.id (List.mapi (fun i s -> Statespace.tuple t i = s) model)
          && List.for_all
               (fun l ->
                 Statespace.local_states t l
                 = List.sort_uniq compare (List.map (fun s -> s.(l - 1)) (listed t)))
               (List.init levels (fun i -> i + 1))
          && Statespace.num_nodes t
             = Statespace.num_nodes (Statespace.of_tuples ~levels (List.map Array.copy model))
        in
        (* The same set built from singletons by set-MDD union. *)
        let from_set =
          let module S = Mdl_md.Set_mdd in
          let m = S.manager ~levels in
          S.to_statespace m
            (List.fold_left (fun acc s -> S.union m acc (S.singleton m s)) (S.empty m) inputs)
        in
        (* A random permutation of each level's local states, as an arc
           relabel and as a map of the tuples. *)
        let rng = Mdl_util.Prng.of_seed (Hashtbl.hash (levels, triples)) in
        let perms =
          Array.init levels (fun _ ->
              let p = Array.init 4 Fun.id in
              for i = 3 downto 1 do
                let j = Mdl_util.Prng.int rng (i + 1) in
                let tmp = p.(i) in
                p.(i) <- p.(j);
                p.(j) <- tmp
              done;
              p)
        in
        let permute s = Array.mapi (fun l v -> perms.(l).(v)) s in
        let relabelled = Statespace.relabel ss (fun l v -> perms.(l - 1).(v)) in
        let permuted_model = List.sort_uniq compare (List.map permute model) in
        let image f = List.sort_uniq compare (List.map f model) in
        let ok_relabel =
          agrees permuted_model relabelled
          && listed (Statespace.of_tuples ~levels (List.map permute inputs))
             = listed relabelled
        in
        (* Many-to-one relabels, whose colliding arcs unite their
           children: halving, and a random map of each level into 0..2. *)
        let coarse = Array.init levels (fun _ -> Array.init 4 (fun _ -> Mdl_util.Prng.int rng 3)) in
        let ok_union =
          agrees (image (Array.map (fun v -> v / 2))) (Statespace.relabel ss (fun _ v -> v / 2))
          && agrees
               (image (Array.mapi (fun l v -> coarse.(l).(v))))
               (Statespace.relabel ss (fun l v -> coarse.(l - 1).(v)))
        in
        (* Merging levels [l] and [l+1] row-major (substates are below
           4), at every [l]. *)
        let merged l s =
          Array.init (levels - 1) (fun i ->
              if i < l - 1 then s.(i) else if i = l - 1 then (s.(i) * 4) + s.(i + 1) else s.(i + 1))
        in
        let ok_merge =
          List.for_all
            (fun l -> agrees ~range:17 (image (merged l)) (Statespace.merge_levels ss l ~width:4))
            (List.init (levels - 1) (fun i -> i + 1))
        in
        let ok =
          agrees model ss && agrees model from_set && ok_relabel && ok_union && ok_merge
        in
        List.iter (fun s -> Array.fill s 0 levels 9) inputs;
        ok && listed ss = model);
    Test.make ~count:200 ~name:"formal sum scale distributes over add"
      (pair (small_list (pair (int_bound 5) (int_bound 4))) (int_bound 6))
      (fun (l, k) ->
        let alpha = float_of_int k /. 2.0 in
        let terms = List.map (fun (n, c) -> (n, float_of_int c)) l in
        let a = Formal_sum.of_list terms in
        let b = Formal_sum.of_list (List.map (fun (n, c) -> (n + 1, c)) terms) in
        Formal_sum.compare_approx
          (Formal_sum.scale alpha (Formal_sum.add a b))
          (Formal_sum.add (Formal_sum.scale alpha a) (Formal_sum.scale alpha b))
        = 0);
    Test.make ~count:200 ~name:"formal sum coeff of sum adds" 
      (small_list (pair (int_bound 5) (int_bound 4)))
      (fun l ->
        let terms = List.map (fun (n, c) -> (n, float_of_int c)) l in
        let a = Formal_sum.of_list terms in
        let b = Formal_sum.of_list (List.rev terms) in
        List.for_all
          (fun n ->
            Mdl_util.Floatx.approx_eq
              (Formal_sum.coeff (Formal_sum.add a b) n)
              (Formal_sum.coeff a n +. Formal_sum.coeff b n))
          (List.init 7 Fun.id));
    Test.make ~count:200 ~name:"formal sum add associative-commutative"
      (small_list (pair (int_bound 5) (int_bound 4)))
      (fun l ->
        let terms = List.map (fun (n, c) -> (n, float_of_int c)) l in
        let a = Formal_sum.of_list terms in
        let b = Formal_sum.of_list (List.rev terms) in
        Formal_sum.equal a b);
  ]

let tests =
  [
    Alcotest.test_case "fsum canonical" `Quick test_fsum_canonical;
    Alcotest.test_case "fsum algebra" `Quick test_fsum_algebra;
    Alcotest.test_case "fsum map_children merge" `Quick test_fsum_map_children_merge;
    Alcotest.test_case "fsum equality/hash" `Quick test_fsum_equality_hash;
    Alcotest.test_case "md flatten" `Quick test_md_flatten;
    Alcotest.test_case "md hash-consing" `Quick test_md_hash_consing;
    Alcotest.test_case "md validation" `Quick test_md_validation;
    Alcotest.test_case "md live nodes" `Quick test_md_live_nodes;
    Alcotest.test_case "md row/col access" `Quick test_md_row_col_access;
    Alcotest.test_case "md iter entries" `Quick test_md_iter_entries_sums;
    Alcotest.test_case "md structural equality" `Quick test_md_equal;
    Alcotest.test_case "md add_node_sorted_rows" `Quick test_add_node_sorted_rows;
    Alcotest.test_case "statespace basics" `Quick test_statespace_basics;
    Alcotest.test_case "statespace validation" `Quick test_statespace_validation;
    Alcotest.test_case "md vector products" `Quick test_md_vector_products;
    Alcotest.test_case "md dot export" `Quick test_md_dot_export;
    Alcotest.test_case "normalize merges proportional nodes" `Quick
      test_normalize_merges_proportional_nodes;
    Alcotest.test_case "merge_adjacent preserves matrix" `Quick
      test_merge_adjacent_preserves_matrix;
    Alcotest.test_case "statespace merge_levels" `Quick test_statespace_merge_levels;
    Alcotest.test_case "merge statespace consistent" `Quick
      test_merge_statespace_consistent;
    Alcotest.test_case "mdd matches statespace" `Quick test_mdd_matches_statespace;
    Alcotest.test_case "mdd sharing" `Quick test_mdd_sharing;
    Alcotest.test_case "mdd products match hash indexing" `Quick
      test_mdd_products_match_hash_indexing;
    Alcotest.test_case "to_csr matches flattening on every model family" `Quick
      test_to_csr_matches_flattening_on_models;
    Alcotest.test_case "printers smoke" `Quick test_printers_smoke;
    Alcotest.test_case "dot write_file" `Quick test_dot_write_file;
    Alcotest.test_case "local_states match exploration" `Quick
      test_local_states_match_exploration;
    Alcotest.test_case "set mdd basics" `Quick test_set_mdd_basics;
    Alcotest.test_case "set mdd validation" `Quick test_set_mdd_validation;
    Alcotest.test_case "saturation consults relations within each event's levels" `Quick
      test_saturation_consultations;
    Alcotest.test_case "saturation validation" `Quick test_saturation_validation;
    Alcotest.test_case "kron to_csr" `Quick test_kron_to_csr;
    Alcotest.test_case "kron/md equivalence" `Quick test_kron_md_equivalence;
    Alcotest.test_case "kron vec_mul" `Quick test_kron_vec_mul;
    Alcotest.test_case "kron misc" `Quick test_kron_misc;
    Alcotest.test_case "kron validation" `Quick test_kron_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_tests @ saturation_properties)
