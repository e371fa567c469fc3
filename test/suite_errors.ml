(* Failure-injection tests: every documented error path raises the
   documented exception and nothing else. *)

module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Formal_sum = Mdl_md.Formal_sum
module Partition = Mdl_partition.Partition
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Level_lumping = Mdl_core.Level_lumping
module Md_solve = Mdl_core.Md_solve
module Md_vector = Mdl_md.Md_vector
module Solver = Mdl_ctmc.Solver
module Ctmc = Mdl_ctmc.Ctmc
module Kronecker = Mdl_kron.Kronecker

let tiny_md () =
  let md = Md.create ~sizes:[| 2; 2 |] in
  let a = Md.add_node md ~level:2 [ (0, 1, Md.scalar_sum md 1.0) ] in
  let root = Md.add_node md ~level:1 [ (0, 1, Formal_sum.singleton a 1.0) ] in
  Md.set_root md root;
  md

let tiny_result () =
  let md = tiny_md () in
  let sizes = Md.sizes md in
  Compositional.lump Ordinary md
    ~rewards:[ Decomposed.constant ~sizes 1.0 ]
    ~initial:(Decomposed.constant ~sizes 1.0)

let test_compositional_errors () =
  let md = tiny_md () in
  Alcotest.check_raises "partition count"
    (Invalid_argument "Compositional.lump_with_partitions: level count mismatch")
    (fun () ->
      ignore (Compositional.lump_with_partitions Ordinary md [| Partition.trivial 2 |]));
  Alcotest.check_raises "partition size"
    (Invalid_argument "Compositional.lump_with_partitions: partition size mismatch")
    (fun () ->
      ignore
        (Compositional.lump_with_partitions Ordinary md
           [| Partition.trivial 3; Partition.trivial 2 |]));
  let r = tiny_result () in
  Alcotest.check_raises "class_tuple length"
    (Invalid_argument "Compositional.class_tuple: tuple length mismatch") (fun () ->
      ignore (Compositional.class_tuple r [| 0 |]));
  Alcotest.check_raises "class_volume length"
    (Invalid_argument "Compositional.class_volume: tuple length mismatch") (fun () ->
      ignore (Compositional.class_volume r [| 0 |]));
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |] ] in
  let lumped_ss = Compositional.lump_statespace r ss in
  Alcotest.check_raises "aggregate size"
    (Invalid_argument "Compositional.aggregate_vector: vector size mismatch") (fun () ->
      ignore (Compositional.aggregate_vector r ss lumped_ss [| 1.0 |]))

let test_compositional_lumped_validation () =
  (* Regression: check_sizes used to ignore the lumped side entirely, so
     a statespace from a different model silently produced garbage. *)
  let md = tiny_md () in
  let r =
    Compositional.lump_with_partitions Ordinary md
      [| Partition.discrete 2; Partition.discrete 2 |]
  in
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |] ] in
  let v = [| 0.25; 0.75 |] in
  let bad_levels = Statespace.of_tuples ~levels:3 [ [| 0; 0; 0 |] ] in
  Alcotest.check_raises "lumped level count"
    (Invalid_argument "Compositional.aggregate_vector: lumped statespace level count mismatch")
    (fun () -> ignore (Compositional.aggregate_vector r ss bad_levels v));
  Alcotest.check_raises "is_closed level count"
    (Invalid_argument "Compositional.is_closed: level count mismatch") (fun () ->
      ignore (Compositional.is_closed r ss bad_levels));
  let bad_class = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 5 |] ] in
  Alcotest.check_raises "lumped class id range"
    (Invalid_argument "Compositional.aggregate_vector: lumped statespace class id out of range")
    (fun () -> ignore (Compositional.aggregate_vector r ss bad_class v))

let test_average_vector_empty_class () =
  (* Regression: a lumped state receiving no flat state used to yield
     [0.0 /. 0 = nan] and poison every downstream measure silently. *)
  let md = tiny_md () in
  let r =
    Compositional.lump_with_partitions Ordinary md
      [| Partition.discrete 2; Partition.discrete 2 |]
  in
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |] ] in
  let v = [| 1.0; 3.0 |] in
  (* the honest image: averages are just the values back *)
  let ok = Compositional.average_vector r ss (Compositional.lump_statespace r ss) v in
  Alcotest.(check (array (float 1e-12))) "identity partitions average" [| 1.0; 3.0 |] ok;
  (* (1,0) is a valid class tuple but no state of [ss] maps to it *)
  let holey = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |] ] in
  Alcotest.check_raises "empty lumped state"
    (Invalid_argument
       "Compositional.average_vector: lumped state receives no flat states (is \
        lumped_ss the image of ss?)")
    (fun () -> ignore (Compositional.average_vector r ss holey v))

let test_level_lumping_errors () =
  let md = tiny_md () in
  Alcotest.check_raises "bad level"
    (Invalid_argument "Level_lumping.comp_lumping_level: level out of range") (fun () ->
      ignore
        (Level_lumping.comp_lumping_level Ordinary md ~level:3
           ~initial:(Partition.trivial 2)));
  Alcotest.check_raises "partition mismatch"
    (Invalid_argument "Level_lumping.comp_lumping_level: partition size mismatch")
    (fun () ->
      ignore
        (Level_lumping.comp_lumping_level Ordinary md ~level:1
           ~initial:(Partition.trivial 5)))

let test_md_solve_errors () =
  let md = tiny_md () in
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 1; 1 |] ] in
  Alcotest.check_raises "lambda too small"
    (Invalid_argument "Md_solve.uniformized_operator: lambda below max exit rate")
    (fun () -> ignore (Md_solve.uniformized_operator ~lambda:1e-9 md ss))

let test_md_vector_level_checks () =
  (* Regression: a state space over the wrong number of levels used to be
     accepted — [to_csr] returned an empty matrix, and the co-walk
     products read offsets from the wrong level and returned numbers. *)
  let b = Mdl_models.Workstations.build (Mdl_models.Workstations.default ~stations:3) in
  let md = b.Mdl_models.Workstations.md in
  let ss = b.Mdl_models.Workstations.exploration.Mdl_san.Model.statespace in
  let split = ref [] in
  Statespace.iter (fun _ s -> split := [| s.(0); s.(1) / 9; s.(1) mod 9 |] :: !split) ss;
  let ss3 = Statespace.of_tuples ~levels:3 !split in
  Alcotest.(check int) "same states over three levels" (Statespace.size ss)
    (Statespace.size ss3);
  Alcotest.check_raises "create"
    (Invalid_argument "Md_vector.create: level count mismatch") (fun () ->
      ignore (Md_vector.create md ss3));
  Alcotest.check_raises "steady_state"
    (Invalid_argument "Md_solve.uniformized_operator: level count mismatch") (fun () ->
      ignore (Md_solve.steady_state md ss3));
  let past_level_2 = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; Md.size md 2 |] ] in
  Alcotest.check_raises "substate range"
    (Invalid_argument "Md_vector.create: substate out of range") (fun () ->
      ignore (Md_vector.create md past_level_2));
  let w = Md_vector.create md ss in
  let x = Array.make (Statespace.size ss) 1.0 in
  Alcotest.check_raises "vector size"
    (Invalid_argument "Md_vector.vec_mul_into: vector size mismatch") (fun () ->
      Md_vector.vec_mul_into w x [| 0.0 |]);
  Alcotest.check_raises "aliased vectors"
    (Invalid_argument "Md_vector.vec_mul_into: x and y are the same vector") (fun () ->
      Md_vector.vec_mul_into w x x)

let test_decomposed_errors () =
  let sizes = [| 2; 2 |] in
  Alcotest.check_raises "of_level range"
    (Invalid_argument "Decomposed.of_level: level out of range") (fun () ->
      ignore (Decomposed.of_level ~sizes ~level:3 (fun _ -> 0.0)));
  let d = Decomposed.constant ~sizes 1.0 in
  Alcotest.check_raises "factor level"
    (Invalid_argument "Decomposed.factor: level out of range") (fun () ->
      ignore (Decomposed.factor d 0 0));
  Alcotest.check_raises "factor substate"
    (Invalid_argument "Decomposed.factor: substate out of range") (fun () ->
      ignore (Decomposed.factor d 1 7));
  Alcotest.check_raises "eval length"
    (Invalid_argument "Decomposed.eval: tuple length mismatch") (fun () ->
      ignore (Decomposed.eval d [| 0 |]));
  Alcotest.check_raises "point mismatch"
    (Invalid_argument "Decomposed.point: tuple length mismatch") (fun () ->
      ignore (Decomposed.point ~sizes [| 0 |]));
  Alcotest.check_raises "relabel mismatch"
    (Invalid_argument "Decomposed.relabel: level count mismatch") (fun () ->
      ignore (Decomposed.relabel d ~new_sizes:[| 2 |] ~pick:(fun _ c -> c)))

let test_solver_errors () =
  let c = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Solver.transient: negative time") (fun () ->
      ignore (Solver.transient ~t:(-1.0) c [| 1.0; 0.0 |]));
  Alcotest.check_raises "transient size"
    (Invalid_argument "Solver.transient: initial size mismatch") (fun () ->
      ignore (Solver.transient ~t:1.0 c [| 1.0 |]));
  let op = Solver.operator_of_csr (Mdl_sparse.Csr.identity 2) in
  Alcotest.check_raises "operator transient size"
    (Invalid_argument "Solver.transient_operator: initial size mismatch") (fun () ->
      ignore (Solver.transient_operator ~t:1.0 ~lambda:1.0 op [| 1.0 |]));
  Alcotest.check_raises "power initial size"
    (Invalid_argument "Solver.power: initial size mismatch") (fun () ->
      ignore (Solver.power ~initial:[| 1.0 |] op));
  Alcotest.check_raises "not square"
    (Invalid_argument "Solver.operator_of_csr: not square") (fun () ->
      ignore (Solver.operator_of_csr (Mdl_sparse.Csr.of_triplets ~rows:1 ~cols:2 [])))

let test_measures_errors () =
  let c = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  let m =
    Mdl_ctmc.Mrp.make ~ctmc:c ~rewards:[| 1.0; 0.0 |]
      ~initial:(Mdl_ctmc.Mrp.point_initial 2 0)
  in
  Alcotest.check_raises "bad steps"
    (Invalid_argument "Measures.accumulated_reward: steps must be positive") (fun () ->
      ignore (Mdl_ctmc.Measures.accumulated_reward ~t:1.0 ~steps:0 m));
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Measures.accumulated_reward: negative horizon") (fun () ->
      ignore (Mdl_ctmc.Measures.accumulated_reward ~t:(-1.0) m))

let test_restructure_errors () =
  let md = tiny_md () in
  Alcotest.check_raises "merge bad level"
    (Invalid_argument "Restructure.merge_adjacent: bad level") (fun () ->
      ignore (Mdl_md.Restructure.merge_adjacent md 2))

let test_matrix_market_errors () =
  Alcotest.check_raises "unsupported header"
    (Failure
       "Matrix_market: unsupported header \"%%MatrixMarket matrix coordinate complex general\"")
    (fun () ->
      ignore
        (Mdl_sparse.Matrix_market.of_string
           "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"));
  Alcotest.check_raises "empty input" (Failure "Matrix_market: empty input") (fun () ->
      ignore (Mdl_sparse.Matrix_market.of_string ""))

let test_kron_guard () =
  (* potential space above the flattening guard *)
  let n = 2049 in
  let k =
    Kronecker.make ~sizes:[| n; n |]
      [
        {
          Kronecker.label = "e";
          rate = 1.0;
          locals = [| Kronecker.identity_local n; Kronecker.identity_local n |];
        };
      ]
  in
  Alcotest.check_raises "to_csr guard"
    (Invalid_argument "Kronecker.to_csr: potential space too large") (fun () ->
      ignore (Kronecker.to_csr k))

(* NaN and infinities pass a [<= 0.] test; each model-boundary check
   rejects them by name, and keeps its message for the values it
   rejected before ([-infinity] among them). *)
let test_kron_non_finite () =
  let kron ~rate v =
    ignore
      (Kronecker.make ~sizes:[| 1 |]
         [
           {
             Kronecker.label = "e";
             rate;
             locals = [| Mdl_sparse.Csr.of_triplets ~rows:1 ~cols:1 [ (0, 0, v) ] |];
           };
         ])
  in
  List.iter
    (fun (what, rate, v, msg) ->
      Alcotest.check_raises what (Invalid_argument ("Kronecker.make: event e has " ^ msg))
        (fun () -> kron ~rate v))
    [
      ("nan rate", Float.nan, 1.0, "non-finite rate");
      ("infinite rate", Float.infinity, 1.0, "non-finite rate");
      ("nan entry", 1.0, Float.nan, "a non-finite entry");
      ("infinite entry", 1.0, Float.infinity, "a non-finite entry");
      ("-infinity rate", Float.neg_infinity, 1.0, "non-positive rate");
      ("-infinity entry", 1.0, Float.neg_infinity, "a negative entry");
    ]

module Model = Mdl_san.Model

let one_event_model ~rate w =
  Model.make
    ~components:[| { Model.name = "c"; initial = [| 0 |] } |]
    ~events:[ { Model.label = "e"; rate; effects = [| (fun s -> [ (s, w) ]) |] } ]

let test_model_non_finite_rate () =
  List.iter
    (fun (what, rate, msg) ->
      Alcotest.check_raises what (Invalid_argument ("Model.make: event e has " ^ msg))
        (fun () -> ignore (one_event_model ~rate 1.0)))
    [
      ("nan rate", Float.nan, "non-finite rate");
      ("infinite rate", Float.infinity, "non-finite rate");
      ("-infinity rate", Float.neg_infinity, "non-positive rate");
    ]

let test_non_finite_weight () =
  List.iter
    (fun (engine, explore) ->
      List.iter
        (fun (w, msg) ->
          Alcotest.check_raises
            (Printf.sprintf "%s weight %g" engine w)
            (Invalid_argument (Printf.sprintf "%s: event e has %s" engine msg))
            (fun () -> ignore (explore (one_event_model ~rate:1.0 w))))
        [
          (Float.nan, "non-finite weight");
          (Float.infinity, "non-finite weight");
          (Float.neg_infinity, "non-positive weight");
        ])
    [
      ("Model.explore", fun m -> Model.explore m);
      ("Model.explore_symbolic", fun m -> Model.explore_symbolic m);
    ]

let tests =
  [
    Alcotest.test_case "compositional errors" `Quick test_compositional_errors;
    Alcotest.test_case "compositional lumped-side validation" `Quick
      test_compositional_lumped_validation;
    Alcotest.test_case "average_vector empty class" `Quick test_average_vector_empty_class;
    Alcotest.test_case "level lumping errors" `Quick test_level_lumping_errors;
    Alcotest.test_case "md_solve errors" `Quick test_md_solve_errors;
    Alcotest.test_case "md_vector level checks" `Quick test_md_vector_level_checks;
    Alcotest.test_case "decomposed errors" `Quick test_decomposed_errors;
    Alcotest.test_case "solver errors" `Quick test_solver_errors;
    Alcotest.test_case "measures errors" `Quick test_measures_errors;
    Alcotest.test_case "restructure errors" `Quick test_restructure_errors;
    Alcotest.test_case "matrix market errors" `Quick test_matrix_market_errors;
    Alcotest.test_case "kronecker flatten guard" `Quick test_kron_guard;
    Alcotest.test_case "kronecker non-finite rate or entry" `Quick test_kron_non_finite;
    Alcotest.test_case "model non-finite rate" `Quick test_model_non_finite_rate;
    Alcotest.test_case "non-finite weight (both engines)" `Quick test_non_finite_weight;
  ]
