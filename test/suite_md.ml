(* Tests for matrix diagrams: formal sums, hash-consing, flattening,
   state spaces, vector products, and the Kronecker substrate. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Formal_sum = Mdl_md.Formal_sum
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Kronecker = Mdl_kron.Kronecker

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
  let col0 = Md.node_col md b 0 in
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
  let mapped = Statespace.map ss (fun s -> [| s.(0); 0 |]) in
  Alcotest.(check int) "map collapses" 2 (Statespace.size mapped)

let test_statespace_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Statespace.of_tuples: empty state space")
    (fun () -> ignore (Statespace.of_tuples ~levels:2 []));
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Statespace.of_tuples: tuple of wrong length") (fun () ->
      ignore (Statespace.of_tuples ~levels:2 [ [| 1 |] ]))

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
  let mdd = Mdl_md.Mdd.of_statespace ss in
  let flat = Md.to_csr md in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check bool) "vec_mul matches flat" true
    (Vec.approx_equal (Md_vector.vec_mul_mdd md mdd x) (Csr.vec_mul x flat));
  Alcotest.(check bool) "mul_vec matches flat" true
    (Vec.approx_equal (Md_vector.mul_vec_mdd md mdd x) (Csr.mul_vec flat x));
  Alcotest.(check bool) "row_sums match" true
    (Vec.approx_equal (Md_vector.row_sums_mdd md mdd) (Csr.row_sums flat));
  Alcotest.check matrix_testable "to_csr over full space" flat (Md_vector.to_csr md ss)

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

let test_merge_tuple () =
  let md = hand_md () in
  Alcotest.(check (array int)) "merge tuple" [| 3 |]
    (Mdl_md.Restructure.merge_tuple md 1 [| 1; 1 |]);
  Alcotest.check_raises "bad level"
    (Invalid_argument "Restructure.merge_tuple: bad level") (fun () ->
      ignore (Mdl_md.Restructure.merge_tuple md 2 [| 0; 0 |]))

let test_merge_statespace_consistent () =
  let md = hand_md () in
  let ss = full_space [ 2; 2 ] in
  let merged = Mdl_md.Restructure.merge_adjacent md 1 in
  let merged_ss = Statespace.map ss (Mdl_md.Restructure.merge_tuple md 1) in
  let x = [| 0.4; 0.3; 0.2; 0.1 |] in
  let mul md ss = Md_vector.vec_mul_mdd md (Mdl_md.Mdd.of_statespace ss) x in
  Alcotest.(check bool) "vector products agree across merge" true
    (Vec.approx_equal (mul md ss) (mul merged merged_ss))

(* --- MDDs --- *)

let test_mdd_matches_statespace () =
  let ss =
    Statespace.of_tuples ~levels:3
      [
        [| 0; 1; 2 |]; [| 0; 1; 0 |]; [| 1; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 0; 0 |];
        [| 1; 1; 1 |];
      ]
  in
  let mdd = Mdl_md.Mdd.of_statespace ss in
  Alcotest.(check int) "count" (Statespace.size ss) (Mdl_md.Mdd.count mdd);
  Statespace.iter
    (fun i s ->
      Alcotest.(check (option int)) "index agrees" (Some i) (Mdl_md.Mdd.index mdd s))
    ss;
  Alcotest.(check (option int)) "absent tuple" None (Mdl_md.Mdd.index mdd [| 1; 1; 0 |]);
  (* iteration visits members in index order *)
  let seen = ref [] in
  Mdl_md.Mdd.iter mdd (fun i s -> seen := (i, Array.copy s) :: !seen);
  let seen = List.rev !seen in
  List.iteri
    (fun k (i, s) ->
      Alcotest.(check int) "iter index" k i;
      Alcotest.(check (option int)) "iter tuple" (Some k) (Statespace.index ss s))
    seen

let test_mdd_sharing () =
  (* All suffix sets equal -> maximal sharing: one node per level. *)
  let tuples = ref [] in
  for a = 0 to 2 do
    for b = 0 to 2 do
      tuples := [| a; b |] :: !tuples
    done
  done;
  let ss = Statespace.of_tuples ~levels:2 !tuples in
  let mdd = Mdl_md.Mdd.of_statespace ss in
  Alcotest.(check int) "two shared nodes" 2 (Mdl_md.Mdd.num_nodes mdd)

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

(* The MDD co-walk products against the restricted full flattening. *)
let test_mdd_products_match_hash_indexing () =
  let b = Mdl_models.Workstations.build (Mdl_models.Workstations.default ~stations:3) in
  let md = b.Mdl_models.Workstations.md in
  let ss = b.Mdl_models.Workstations.exploration.Mdl_san.Model.statespace in
  let mdd = Mdl_md.Mdd.of_statespace ss in
  let flat = restricted_flat md ss in
  let n = Statespace.size ss in
  let x = Array.init n (fun i -> float_of_int (i mod 7) +. 0.5) in
  Alcotest.(check bool) "vec_mul agrees" true
    (Vec.approx_equal (Csr.vec_mul x flat) (Md_vector.vec_mul_mdd md mdd x));
  Alcotest.(check bool) "mul_vec agrees" true
    (Vec.approx_equal (Csr.mul_vec flat x) (Md_vector.mul_vec_mdd md mdd x));
  Alcotest.(check bool) "row_sums agree" true
    (Vec.approx_equal (Csr.row_sums flat) (Md_vector.row_sums_mdd md mdd))

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
  let got = Md_vector.to_csr md ss in
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
  Alcotest.(check bool) "mem" true (S.mem m u [| 0; 1 |]);
  Alcotest.(check bool) "not mem" false (S.mem m u [| 0; 0 |]);
  Alcotest.(check bool) "union idempotent" true (S.equal u (S.union m u a));
  Alcotest.(check bool) "union with empty" true (S.equal u (S.union m u (S.empty m)));
  Alcotest.(check bool) "empty is empty" true (S.is_empty (S.empty m));
  let ss = S.to_statespace m u in
  Alcotest.(check int) "statespace size" 2 (Statespace.size ss)

let test_set_mdd_image () =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:2 in
  let s = S.singleton m [| 0; 0 |] in
  (* relation: level 1 increments (mod 2), level 2 identity *)
  let rel level u = if level = 1 then [ (u + 1) mod 2 ] else [ u ] in
  let img = S.image m rel s in
  Alcotest.(check bool) "image" true (S.mem m img [| 1; 0 |]);
  Alcotest.(check int) "image count" 1 (S.count m img);
  (* a level-disabled relation empties the image *)
  let rel_blocked level u = if level = 2 then [] else [ u ] in
  Alcotest.(check bool) "blocked image empty" true
    (S.is_empty (S.image m rel_blocked s));
  (* cached image agrees *)
  Alcotest.(check bool) "cached image agrees" true
    (S.equal img (S.image_cached m ~key:42 rel s))

let test_set_mdd_validation () =
  let module S = Mdl_md.Set_mdd in
  let m = S.manager ~levels:2 in
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Set_mdd.singleton: tuple length mismatch") (fun () ->
      ignore (S.singleton m [| 1 |]));
  Alcotest.check_raises "empty statespace"
    (Invalid_argument "Set_mdd.to_statespace: empty set") (fun () ->
      ignore (S.to_statespace m (S.empty m)))

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

let test_normalize_merges_proportional_nodes () =
  (* Nodes [2] and [1] are proportional; normalisation makes them the
     same node and pushes the factors up into the root's coefficients. *)
  let md = Md.create ~sizes:[| 2; 1 |] in
  let a = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 2.0) ] in
  let b = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 1.0) ] in
  let root =
    Md.add_node md ~level:1
      [ (0, 0, Formal_sum.singleton a 1.0); (1, 1, Formal_sum.singleton b 2.0) ]
  in
  Md.set_root md root;
  let normalized = Mdl_md.Compact.normalize md in
  Alcotest.check matrix_testable "matrix preserved" (Md.to_csr md) (Md.to_csr normalized);
  let live = Md.live_nodes normalized in
  Alcotest.(check int) "proportional nodes merged" 1 (List.length live.(1))

let test_normalize_stable () =
  let md = hand_md () in
  let n1 = Mdl_md.Compact.normalize md in
  let n2 = Mdl_md.Compact.normalize n1 in
  Alcotest.(check int) "node count stable" (Md.num_live_nodes n1) (Md.num_live_nodes n2);
  Alcotest.check matrix_testable "matrix stable" (Md.to_csr n1) (Md.to_csr n2)

(* --- structural diagram equality, raw constructors, reverse iteration ---

   These pin the contracts the incremental lumped rebuild relies on:
   [Md.equal] must identify isomorphic rooted diagrams regardless of
   store-local node ids, [add_node_sorted_rows] must hash-cons to the
   node [add_node] would have built, and the [rev_iter_*] walks must
   visit entries in exactly the reverse of the ascending storage
   order. *)

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

let test_md_rev_iter () =
  let md = Md.create ~sizes:[| 3; 3 |] in
  let a = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 1.0) ] in
  let node =
    Md.add_node md ~level:1
      [
        (0, 0, Formal_sum.singleton a 1.0);
        (0, 2, Formal_sum.singleton a 2.0);
        (2, 1, Formal_sum.singleton a 3.0);
      ]
  in
  let row_cols = ref [] in
  Md.rev_iter_node_row md node 0 (fun c _ -> row_cols := c :: !row_cols);
  (* descending visit, so consing restores the ascending storage order *)
  Alcotest.(check (list int)) "row walked descending" [ 0; 2 ] !row_cols;
  let empty = ref [] in
  Md.rev_iter_node_row md node 1 (fun c _ -> empty := c :: !empty);
  Alcotest.(check (list int)) "empty row" [] !empty;
  let entries = ref [] in
  Md.rev_iter_node_entries md node (fun r c _ -> entries := (r, c) :: !entries);
  Alcotest.(check (list (pair int int))) "entries walked rows/cols descending"
    [ (0, 0); (0, 2); (2, 1) ]
    !entries;
  (* agreement with the forward walk: consing during the descending
     visit yields exactly the forward visit order *)
  let fwd = ref [] in
  Md.iter_node_entries md node (fun r c _ -> fwd := (r, c) :: !fwd);
  Alcotest.(check (list (pair int int))) "reverse of iter_node_entries" (List.rev !fwd)
    !entries;
  Alcotest.check_raises "bad row"
    (Invalid_argument "Md.rev_iter_node_row: row out of range") (fun () ->
      Md.rev_iter_node_row md node 3 (fun _ _ -> ()))

let qcheck_tests =
  let open QCheck in
  [
    QCheck.Test.make ~count:150 ~name:"node_col is the transpose of node_row" arb_descriptor
    (fun spec ->
      let k = build_descriptor spec in
      let md = Kronecker.to_md k in
      let live = Md.live_nodes md in
      Array.for_all
        (fun ids ->
          List.for_all
            (fun id ->
              let level = Md.node_level md id in
              let n = Md.size md level in
              let ok = ref true in
              for c = 0 to n - 1 do
                List.iter
                  (fun (r, sum) ->
                    let found =
                      List.exists
                        (fun (c', sum') -> c' = c && Formal_sum.equal sum sum')
                        (Md.node_row md id r)
                    in
                    if not found then ok := false)
                  (Md.node_col md id c)
              done;
              !ok)
            ids)
        live);
    Test.make ~count:200 ~name:"normalize preserves the represented matrix"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Kronecker.to_md k in
        Csr.approx_equal (Md.to_csr md) (Md.to_csr (Mdl_md.Compact.normalize md)));
    Test.make ~count:200 ~name:"merge_terms idempotent on node counts" arb_descriptor
      (fun spec ->
        let k = build_descriptor spec in
        let once = Mdl_md.Compact.merge_terms (Kronecker.to_md k) in
        let twice = Mdl_md.Compact.merge_terms once in
        Md.num_live_nodes once = Md.num_live_nodes twice
        && Csr.approx_equal (Md.to_csr once) (Md.to_csr twice));
    Test.make ~count:200 ~name:"normalize never increases node count" arb_descriptor
      (fun spec ->
        let k = build_descriptor spec in
        let md = Kronecker.to_md k in
        Md.num_live_nodes (Mdl_md.Compact.normalize md) <= Md.num_live_nodes md);
    Test.make ~count:150 ~name:"merge_adjacent preserves matrix (random)"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Kronecker.to_md k in
        Md.levels md < 2
        ||
        let merged = Mdl_md.Restructure.merge_adjacent md 1 in
        Csr.approx_equal (Md.to_csr md) (Md.to_csr merged));
    Test.make ~count:150 ~name:"merging all levels down to one preserves matrix"
      arb_descriptor (fun spec ->
        let k = build_descriptor spec in
        let md = Kronecker.to_md k in
        let rec collapse m =
          if Md.levels m = 1 then m else collapse (Mdl_md.Restructure.merge_adjacent m 1)
        in
        Csr.approx_equal (Md.to_csr md) (Md.to_csr (collapse md)));
    Test.make ~count:200 ~name:"md of kron flattens to kron matrix" arb_descriptor
      (fun spec ->
        let k = build_descriptor spec in
        let md = Kronecker.to_md k in
        Csr.approx_equal (Kronecker.to_csr k) (Md.to_csr md));
    (* The same transformation round-trips, but over the oracle's
       free-form diagrams (shared nodes, multi-term sums) rather than
       only Kronecker compilations. *)
    Test.make ~count:150 ~name:"compact round-trips on free-form diagrams"
      (Mdl_oracle.Qcheck_gen.md_model ()) (fun spec ->
        let md = Mdl_oracle.Gen_md.of_spec spec in
        let flat = Md.to_csr md in
        Csr.approx_equal flat (Md.to_csr (Mdl_md.Compact.merge_terms md))
        && Csr.approx_equal flat (Md.to_csr (Mdl_md.Compact.normalize md)));
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
        let md = Kronecker.to_md k in
        let sizes = Kronecker.sizes k in
        let ss = full_space (Array.to_list sizes) in
        let flat = Md.to_csr md in
        let n = Kronecker.potential_size k in
        let x = Array.init n (fun i -> float_of_int (i + 1)) in
        let mdd = Mdl_md.Mdd.of_statespace ss in
        Vec.approx_equal (Md_vector.vec_mul_mdd md mdd x) (Csr.vec_mul x flat)
        && Vec.approx_equal (Md_vector.row_sums_mdd md mdd) (Csr.row_sums flat));
    Test.make ~count:300 ~name:"to_csr equals the restricted full flattening"
      (pair (Mdl_oracle.Qcheck_gen.md_model ~max_levels:4 ()) (int_bound 1_000_000))
      (fun (spec, seed) ->
        let md = Mdl_oracle.Gen_md.of_spec spec in
        let ss = random_subspace (Mdl_util.Prng.of_seed seed) (Md.sizes md) in
        Csr.equal (Md_vector.to_csr md ss) (restricted_flat md ss));
    Test.make ~count:300 ~name:"statespace agrees with a sorted-list model"
      (pair (int_range 1 3)
         (list_of_size Gen.(int_range 1 30) (triple (int_bound 3) (int_bound 3) (int_bound 3))))
      (fun (levels, triples) ->
        let inputs = List.map (fun (a, b, c) -> Array.sub [| a; b; c |] 0 levels) triples in
        let model = List.sort_uniq compare (List.map Array.copy inputs) in
        let ss = Statespace.of_tuples ~levels inputs in
        let mdd = Mdl_md.Mdd.of_statespace ss in
        let listed t =
          let acc = ref [] in
          Statespace.iter (fun _ s -> acc := Array.copy s :: !acc) t;
          List.rev !acc
        in
        let rec product l =
          if l = 0 then [ [||] ]
          else
            List.concat_map (fun t -> List.init 5 (fun v -> Array.append t [| v |]))
              (product (l - 1))
        in
        let position s =
          let rec go i = function
            | [] -> None
            | x :: rest -> if x = s then Some i else go (i + 1) rest
          in
          go 0 model
        in
        let image f = List.sort_uniq compare (List.map f model) in
        let halve s = Array.map (fun v -> v / 2) s in
        let total s = [| Array.fold_left ( + ) 0 s |] in
        let ok_enum = listed ss = model in
        let ok_index =
          List.for_all
            (fun s -> Statespace.index ss s = position s && Mdl_md.Mdd.index mdd s = position s)
            (product levels)
          && Statespace.index ss (Array.make (levels + 1) 0) = None
          && Statespace.index ss (Array.make (levels - 1) 0) = None
        in
        let ok_map =
          listed (Statespace.map ss halve) = image halve
          && listed (Statespace.map ss total) = image total
        in
        List.iter (fun s -> Array.fill s 0 levels 9) inputs;
        ok_enum && ok_index && ok_map && listed ss = model);
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
    Alcotest.test_case "md reverse iteration" `Quick test_md_rev_iter;
    Alcotest.test_case "statespace basics" `Quick test_statespace_basics;
    Alcotest.test_case "statespace validation" `Quick test_statespace_validation;
    Alcotest.test_case "md vector products" `Quick test_md_vector_products;
    Alcotest.test_case "md dot export" `Quick test_md_dot_export;
    Alcotest.test_case "normalize merges proportional nodes" `Quick
      test_normalize_merges_proportional_nodes;
    Alcotest.test_case "normalize stable" `Quick test_normalize_stable;
    Alcotest.test_case "merge_adjacent preserves matrix" `Quick
      test_merge_adjacent_preserves_matrix;
    Alcotest.test_case "merge_tuple" `Quick test_merge_tuple;
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
    Alcotest.test_case "set mdd image" `Quick test_set_mdd_image;
    Alcotest.test_case "set mdd validation" `Quick test_set_mdd_validation;
    Alcotest.test_case "kron to_csr" `Quick test_kron_to_csr;
    Alcotest.test_case "kron/md equivalence" `Quick test_kron_md_equivalence;
    Alcotest.test_case "kron vec_mul" `Quick test_kron_vec_mul;
    Alcotest.test_case "kron misc" `Quick test_kron_misc;
    Alcotest.test_case "kron validation" `Quick test_kron_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
