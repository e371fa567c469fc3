(* Tests for state-level lumping: the partition-refinement algorithm [9],
   direct condition checkers, and Theorem 2 quotient construction. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Ctmc = Mdl_ctmc.Ctmc
module Mrp = Mdl_ctmc.Mrp
module Solver = Mdl_ctmc.Solver
module Check = Mdl_lumping.Check
module State_lumping = Mdl_lumping.State_lumping
module Quotient = Mdl_lumping.Quotient

let partition_testable = Alcotest.testable Partition.pp Partition.equal

(* Enumerate all partitions of {0..n-1} as class assignments in
   restricted-growth-string form. *)
let all_partitions n =
  let results = ref [] in
  let a = Array.make n 0 in
  let rec go i max_label =
    if i = n then results := Partition.of_class_assignment (Array.copy a) :: !results
    else
      for label = 0 to max_label do
        a.(i) <- label;
        go (i + 1) (max max_label (label + 1))
      done
  in
  if n > 0 then go 0 0;
  !results

(* Brute-force coarsest lumpable partition: among all partitions refining
   [initial] and satisfying the checker, the one with fewest classes.
   Unique coarsest exists for both ordinary and exact lumping. *)
let brute_force_coarsest check initial n =
  let candidates =
    List.filter
      (fun p -> Partition.is_refinement_of p initial && check p)
      (all_partitions n)
  in
  List.fold_left
    (fun best p ->
      match best with
      | None -> Some p
      | Some b -> if Partition.num_classes p < Partition.num_classes b then Some p else best)
    None candidates

(* A chain with an obvious symmetry: states 1 and 2 are interchangeable
   (same rates in and out). *)
let symmetric_three_state () =
  Csr.of_triplets ~rows:3 ~cols:3
    [ (0, 1, 1.0); (0, 2, 1.0); (1, 0, 2.0); (2, 0, 2.0) ]

let test_ordinary_symmetric () =
  let r = symmetric_three_state () in
  (* With a trivial initial partition the whole chain collapses: every
     state has the same total exit rate, so the one-class partition is
     itself ordinarily lumpable. *)
  let p0 = State_lumping.coarsest Ordinary r ~initial:(Partition.trivial 3) in
  Alcotest.(check int) "uniform exit rates collapse" 1 (Partition.num_classes p0);
  (* Distinguishing state 0 (e.g. by reward) leaves the 1/2 symmetry. *)
  let initial = Partition.of_class_assignment [| 0; 1; 1 |] in
  let p = State_lumping.coarsest Ordinary r ~initial in
  Alcotest.check partition_testable "{0}{1,2}" initial p;
  Alcotest.(check bool) "checker agrees" true (Check.ordinary r p)

let test_exact_symmetric () =
  let r = symmetric_three_state () in
  let initial =
    Partition.group_by 3
      (fun s -> Csr.row_sum r s)
      (fun a b -> Mdl_util.Floatx.compare_approx a b)
  in
  let p = State_lumping.coarsest Exact r ~initial in
  Alcotest.check partition_testable "{0}{1,2}"
    (Partition.of_class_assignment [| 0; 1; 1 |])
    p;
  Alcotest.(check bool) "checker agrees" true (Check.exact r p)

let test_asymmetric_not_lumpable () =
  (* Distinct exit rates everywhere: no non-trivial ordinary lump
     survives. *)
  let r =
    Csr.of_triplets ~rows:3 ~cols:3
      [ (0, 1, 1.0); (0, 2, 1.5); (1, 0, 2.0); (2, 0, 3.0) ]
  in
  let p = State_lumping.coarsest Ordinary r ~initial:(Partition.trivial 3) in
  Alcotest.(check int) "all singletons" 3 (Partition.num_classes p)

let test_checker_rejects_bad_partition () =
  let r = symmetric_three_state () in
  (* {0,1}{2}: R(0, {2}) = 1 but R(1, {2}) = 0 — not ordinarily
     lumpable. *)
  let bad_ord = Partition.of_class_assignment [| 0; 0; 1 |] in
  Alcotest.(check bool) "ordinary rejects" false (Check.ordinary r bad_ord);
  (* Asymmetric incoming rates break exact lumpability of {1,2}. *)
  let r' =
    Csr.of_triplets ~rows:3 ~cols:3
      [ (0, 1, 1.0); (0, 2, 1.5); (1, 0, 2.0); (2, 0, 1.5) ]
  in
  let bad_exact = Partition.of_class_assignment [| 0; 1; 1 |] in
  Alcotest.(check bool) "exact rejects" false (Check.exact r' bad_exact)

let test_rewards_split_initial_partition () =
  let r = symmetric_three_state () in
  let ctmc = Ctmc.of_rates r in
  (* Different rewards on states 1 and 2 must prevent their lumping. *)
  let m = Mrp.make ~ctmc ~rewards:[| 0.0; 1.0; 2.0 |] ~initial:(Mrp.point_initial 3 0) in
  let p = State_lumping.coarsest_mrp Ordinary m in
  Alcotest.(check int) "no lumping" 3 (Partition.num_classes p);
  let m' = Mrp.make ~ctmc ~rewards:[| 0.0; 1.0; 1.0 |] ~initial:(Mrp.point_initial 3 0) in
  let p' = State_lumping.coarsest_mrp Ordinary m' in
  Alcotest.(check int) "lumps with equal rewards" 2 (Partition.num_classes p')

(* Random CTMC with small integer rates to create lumpable structure. *)
let gen_chain =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* triplets =
      list_size (int_range 1 14)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
           (map (fun k -> float_of_int (k + 1)) (int_range 0 1)))
    in
    return (n, triplets))

let arb_chain =
  QCheck.make
    ~print:(fun (n, t) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat ";"
           (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
    gen_chain

let chain_of (n, triplets) = Csr.of_triplets ~rows:n ~cols:n triplets

let test_brute_force_ordinary =
  QCheck.Test.make ~count:150 ~name:"refinement computes coarsest ordinary lumping"
    arb_chain (fun (n, t) ->
      let r = chain_of (n, t) in
      let initial = Partition.trivial n in
      let computed = State_lumping.coarsest Ordinary r ~initial in
      match brute_force_coarsest (fun p -> Check.ordinary r p) initial n with
      | None -> false
      | Some best ->
          Check.ordinary r computed
          && Partition.num_classes computed = Partition.num_classes best
          && Partition.equal computed best)

let test_brute_force_exact =
  QCheck.Test.make ~count:150 ~name:"refinement computes coarsest exact lumping"
    arb_chain (fun (n, t) ->
      let r = chain_of (n, t) in
      let initial =
        Partition.group_by n
          (fun s -> Csr.row_sum r s)
          (fun a b -> Mdl_util.Floatx.compare_approx a b)
      in
      let computed = State_lumping.coarsest Exact r ~initial in
      match brute_force_coarsest (fun p -> Check.exact r p) (Partition.trivial n) n with
      | None -> false
      | Some best ->
          Check.exact r computed
          && Partition.num_classes computed = Partition.num_classes best)

let test_every_lumpable_refines_computed =
  QCheck.Test.make ~count:80 ~name:"every ordinarily lumpable partition refines coarsest"
    arb_chain (fun (n, t) ->
      let r = chain_of (n, t) in
      let computed = State_lumping.coarsest Ordinary r ~initial:(Partition.trivial n) in
      List.for_all
        (fun p -> (not (Check.ordinary r p)) || Partition.is_refinement_of p computed)
        (all_partitions n))

let test_float_pipeline_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"coarsest: monomorphic float pipeline matches reference engine" arb_chain
    (fun (n, t) ->
      let r = chain_of (n, t) in
      List.for_all
        (fun mode ->
          let initial = Partition.group_by n (fun i -> i mod 2) compare in
          let p_float, c =
            Counters.of_run [ "refiner.counting_sort_passes" ] (fun () ->
                State_lumping.coarsest mode r ~initial)
          in
          let p_ref =
            Mdl_oracle.Refiner_reference.comp_lumping
              (State_lumping.refiner_spec mode r)
              ~initial
          in
          Partition.equal p_float p_ref
          (* The float pipeline never counting-sorts. *)
          && c "refiner.counting_sort_passes" = 0)
        [ State_lumping.Ordinary; State_lumping.Exact ])

(* Theorem 2 validation: measures computed on the lumped chain equal
   measures on the original. *)
let cyclic_symmetric_chain () =
  (* Three identical machines in a failure/repair model, modelled
     individually: state = bitmask of up machines.  Massive symmetry. *)
  let n = 8 in
  let fail = 1.0 and repair = 4.0 in
  let triplets = ref [] in
  for s = 0 to n - 1 do
    for m = 0 to 2 do
      let bit = 1 lsl m in
      if s land bit <> 0 then triplets := (s, s lxor bit, fail) :: !triplets
      else triplets := (s, s lxor bit, repair) :: !triplets
    done
  done;
  Ctmc.of_triplets n !triplets

let popcount s =
  let rec go s acc = if s = 0 then acc else go (s lsr 1) (acc + (s land 1)) in
  go s 0

let test_quotient_preserves_steady_state_reward () =
  let ctmc = cyclic_symmetric_chain () in
  (* Reward = number of machines up. *)
  let rewards = Array.init 8 (fun s -> float_of_int (popcount s)) in
  let m = Mrp.make ~ctmc ~rewards ~initial:(Mrp.point_initial 8 7) in
  let p = State_lumping.coarsest_mrp Ordinary m in
  Alcotest.(check int) "4 classes (0..3 machines up)" 4 (Partition.num_classes p);
  let lumped = Quotient.mrp Ordinary m p in
  let original_reward = Mdl_ctmc.Measures.steady_state_reward ~tol:1e-14 m in
  let lumped_reward = Mdl_ctmc.Measures.steady_state_reward ~tol:1e-14 lumped in
  Alcotest.(check (float 1e-8)) "steady-state reward preserved" original_reward
    lumped_reward

let test_quotient_preserves_transient_reward () =
  let ctmc = cyclic_symmetric_chain () in
  let rewards = Array.init 8 (fun s -> if popcount s >= 2 then 1.0 else 0.0) in
  let m = Mrp.make ~ctmc ~rewards ~initial:(Mrp.point_initial 8 7) in
  let p = State_lumping.coarsest_mrp Ordinary m in
  let lumped = Quotient.mrp Ordinary m p in
  List.iter
    (fun t ->
      let a = Mdl_ctmc.Measures.transient_reward ~t m in
      let b = Mdl_ctmc.Measures.transient_reward ~t lumped in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "transient t=%g" t) a b)
    [ 0.1; 0.5; 1.0; 5.0 ]

let test_ordinary_aggregation_commutes () =
  (* aggregate(pi(t)) = pi~(t): lumping commutes with transient analysis. *)
  let ctmc = cyclic_symmetric_chain () in
  let rewards = Array.init 8 (fun s -> float_of_int (popcount s)) in
  let m = Mrp.make ~ctmc ~rewards ~initial:(Mrp.point_initial 8 0) in
  let p = State_lumping.coarsest_mrp Ordinary m in
  let lumped = Quotient.mrp Ordinary m p in
  let t = 0.8 in
  let pi_t = Solver.transient ~t ctmc (Mrp.initial m) in
  let pi_lumped_t = Solver.transient ~t (Mrp.ctmc lumped) (Mrp.initial lumped) in
  Alcotest.(check bool) "aggregation commutes" true
    (Vec.diff_inf (Quotient.aggregate pi_t p) pi_lumped_t < 1e-9)

let test_exact_stationary_class_uniform () =
  (* For an exactly lumpable irreducible chain the stationary distribution
     is class-uniform; lifting the lumped stationary recovers it. *)
  let ctmc = cyclic_symmetric_chain () in
  let r = Ctmc.rates ctmc in
  let initial =
    Partition.group_by 8
      (fun s -> Csr.row_sum r s)
      (fun a b -> Mdl_util.Floatx.compare_approx a b)
  in
  let p = State_lumping.coarsest Exact r ~initial in
  Alcotest.(check bool) "non-trivial exact lump" true (Partition.num_classes p < 8);
  Alcotest.(check bool) "is exactly lumpable" true (Check.exact r p);
  let pi, _ = Solver.steady_state ~tol:1e-14 ctmc in
  let lumped_rates = Quotient.rates Exact r p in
  let pi_lumped, _ = Solver.steady_state ~tol:1e-14 (Ctmc.of_rates lumped_rates) in
  Alcotest.(check bool) "lumped stationary = aggregated stationary" true
    (Vec.diff_inf (Quotient.aggregate pi p) pi_lumped < 1e-8);
  Alcotest.(check bool) "lift recovers stationary" true
    (Vec.diff_inf (Quotient.lift pi_lumped p) pi < 1e-8)

let test_exact_quotient_preserves_measures () =
  let ctmc = cyclic_symmetric_chain () in
  let r = Ctmc.rates ctmc in
  let rewards = Array.init 8 (fun s -> float_of_int (popcount s)) in
  (* Initial distribution concentrated on the all-up state, which forms a
     singleton class — hence class-uniform, as exact lumping requires. *)
  let m = Mrp.make ~ctmc ~rewards ~initial:(Mrp.point_initial 8 7) in
  let p = State_lumping.coarsest_mrp Exact m in
  Alcotest.(check bool) "non-trivial" true (Partition.num_classes p < 8);
  Alcotest.(check bool) "exactly lumpable" true
    (Check.exact ~initial:(Mrp.initial m) r p);
  let lumped = Quotient.mrp Exact m p in
  List.iter
    (fun t ->
      let a = Mdl_ctmc.Measures.transient_reward ~t m in
      let b = Mdl_ctmc.Measures.transient_reward ~t lumped in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "exact transient t=%g" t) a b)
    [ 0.1; 0.5; 2.0 ];
  let a = Mdl_ctmc.Measures.steady_state_reward ~tol:1e-14 m in
  let b = Mdl_ctmc.Measures.steady_state_reward ~tol:1e-14 lumped in
  Alcotest.(check (float 1e-8)) "exact steady state" a b

let test_quotient_rates_ordinary_shape () =
  let r = symmetric_three_state () in
  let p = Partition.of_class_assignment [| 0; 1; 1 |] in
  let rq = Quotient.rates Ordinary r p in
  Alcotest.(check int) "2x2" 2 (Csr.rows rq);
  Alcotest.(check (float 1e-12)) "R~(0,1) = R(0, {1,2})" 2.0 (Csr.get rq 0 1);
  Alcotest.(check (float 1e-12)) "R~(1,0) = R(1, {0})" 2.0 (Csr.get rq 1 0)

let test_lift_aggregate_roundtrip () =
  let p = Partition.of_class_assignment [| 0; 0; 1; 2; 2; 2 |] in
  let v = [| 0.3; 0.3; 0.1; 0.1; 0.1; 0.1 |] in
  let agg = Quotient.aggregate v p in
  Alcotest.(check bool) "aggregate" true (Vec.approx_equal agg [| 0.6; 0.1; 0.3 |]);
  Alcotest.(check bool) "lift of aggregate (uniform v)" true
    (Vec.approx_equal (Quotient.lift agg p) v)

let test_dtmc_lumping () =
  (* The flat lumping machinery applies to stochastic matrices verbatim:
     lump the uniformised DTMC of the symmetric-machines chain and check
     the quotient is stochastic with the aggregated stationary. *)
  let ctmc = cyclic_symmetric_chain () in
  let dtmc, _ = Mdl_ctmc.Dtmc.uniformized_of_ctmc ctmc in
  let p_matrix = Mdl_ctmc.Dtmc.matrix dtmc in
  (* Stochastic matrices always admit the one-class lump (all row sums
     are 1), so protect a reward first: the number of machines up. *)
  let initial = Partition.group_by 8 popcount compare in
  let partition = State_lumping.coarsest Ordinary p_matrix ~initial in
  Alcotest.(check int) "popcount classes stable" 4 (Partition.num_classes partition);
  let lumped = Mdl_ctmc.Dtmc.of_matrix (Quotient.rates Ordinary p_matrix partition) in
  let pi, _ = Mdl_ctmc.Dtmc.stationary ~tol:1e-14 dtmc in
  let pi_l, _ = Mdl_ctmc.Dtmc.stationary ~tol:1e-14 lumped in
  Alcotest.(check bool) "aggregated stationary" true
    (Vec.diff_inf (Quotient.aggregate pi partition) pi_l < 1e-9)

let qcheck_tests =
  [
    test_brute_force_ordinary;
    test_brute_force_exact;
    test_every_lumpable_refines_computed;
    test_float_pipeline_matches_reference;
  ]

let tests =
  [
    Alcotest.test_case "ordinary symmetric" `Quick test_ordinary_symmetric;
    Alcotest.test_case "exact symmetric" `Quick test_exact_symmetric;
    Alcotest.test_case "asymmetric not lumpable" `Quick test_asymmetric_not_lumpable;
    Alcotest.test_case "checker rejects bad partition" `Quick test_checker_rejects_bad_partition;
    Alcotest.test_case "rewards split P_ini" `Quick test_rewards_split_initial_partition;
    Alcotest.test_case "quotient preserves steady-state reward" `Quick
      test_quotient_preserves_steady_state_reward;
    Alcotest.test_case "quotient preserves transient reward" `Quick
      test_quotient_preserves_transient_reward;
    Alcotest.test_case "ordinary aggregation commutes" `Quick test_ordinary_aggregation_commutes;
    Alcotest.test_case "exact stationary class-uniform" `Quick
      test_exact_stationary_class_uniform;
    Alcotest.test_case "exact quotient preserves measures" `Quick
      test_exact_quotient_preserves_measures;
    Alcotest.test_case "quotient rates shape" `Quick test_quotient_rates_ordinary_shape;
    Alcotest.test_case "lift/aggregate roundtrip" `Quick test_lift_aggregate_roundtrip;
    Alcotest.test_case "dtmc lumping" `Quick test_dtmc_lumping;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
