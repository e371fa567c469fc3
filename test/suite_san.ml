(* Tests for the compositional modelling layer (mdl_san): exploration,
   descriptor generation, and agreement between the flat chain and the
   MD-represented chain. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Kronecker = Mdl_kron.Kronecker

let id = Model.identity_effect

(* A tiny two-component model: a token moves between a 2-state switch
   and modulates a 3-state counter. *)
let tiny_model () =
  let switch = { Model.name = "switch"; initial = [| 0 |] } in
  let counter = { Model.name = "counter"; initial = [| 0 |] } in
  let flip =
    {
      Model.label = "flip";
      rate = 2.0;
      effects = [| (fun s -> [ ([| 1 - s.(0) |], 1.0) ]); id |];
    }
  in
  let count =
    {
      Model.label = "count";
      rate = 1.0;
      effects =
        [|
          (fun s -> if s.(0) = 1 then [ (s, 1.0) ] else []);
          (fun s -> [ ([| (s.(0) + 1) mod 3 |], 1.0) ]);
        |];
    }
  in
  Model.make ~components:[| switch; counter |] ~events:[ flip; count ]

let test_explore_tiny () =
  let exp = Model.explore (tiny_model ()) in
  Alcotest.(check int) "6 states" 6 (Statespace.size exp.Model.statespace);
  Alcotest.(check int) "switch space" 2 (Array.length exp.Model.local_spaces.(0));
  Alcotest.(check int) "counter space" 3 (Array.length exp.Model.local_spaces.(1));
  Alcotest.(check (option int)) "local index" (Some 0)
    (Model.local_index exp 1 [| 0 |])

let test_explore_guards_restrict () =
  (* A model where the second component never moves because the guard on
     component 1 never holds. *)
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let b = { Model.name = "b"; initial = [| 0 |] } in
  let blocked =
    {
      Model.label = "blocked";
      rate = 1.0;
      effects =
        [|
          (fun s -> if s.(0) = 5 then [ (s, 1.0) ] else []);
          (fun s -> [ ([| s.(0) + 1 |], 1.0) ]);
        |];
    }
  in
  let spin =
    { Model.label = "spin"; rate = 1.0; effects = [| (fun s -> [ (s, 1.0) ]); id |] }
  in
  let exp = Model.explore (Model.make ~components:[| a; b |] ~events:[ blocked; spin ]) in
  Alcotest.(check int) "single state" 1 (Statespace.size exp.Model.statespace)

let test_explore_max_states () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let grow =
    {
      Model.label = "grow";
      rate = 1.0;
      effects = [| (fun s -> [ ([| s.(0) + 1 |], 1.0) ]) |];
    }
  in
  let m = Model.make ~components:[| a |] ~events:[ grow ] in
  Alcotest.check_raises "state explosion guard"
    (Failure "Model.explore: more than 10 states") (fun () ->
      ignore (Model.explore ~max_states:10 m))

let test_model_validation () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  Alcotest.check_raises "no components" (Invalid_argument "Model.make: no components")
    (fun () -> ignore (Model.make ~components:[||] ~events:[]));
  Alcotest.check_raises "wrong effects"
    (Invalid_argument "Model.make: event e has 2 effects for 1 components") (fun () ->
      ignore
        (Model.make ~components:[| a |]
           ~events:[ { Model.label = "e"; rate = 1.0; effects = [| id; id |] } ]));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Model.make: event e has non-positive rate") (fun () ->
      ignore
        (Model.make ~components:[| a |]
           ~events:[ { Model.label = "e"; rate = -1.0; effects = [| id |] } ]))

(* The MD and the explicit BFS must describe the same chain on the
   reachable states: compare the MD-flattened matrix over the state
   space with a direct enumeration of transitions. *)
let flat_rates_by_enumeration exp =
  let m = exp.Model.model in
  let ss = exp.Model.statespace in
  let n = Statespace.size ss in
  let ncomp = Array.length (Model.components m) in
  let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
  Statespace.iter
    (fun i tuple ->
      let locals =
        Array.mapi (fun k idx -> exp.Model.local_spaces.(k).(idx)) tuple
      in
      List.iter
        (fun e ->
          let succs = Array.mapi (fun k eff -> eff locals.(k)) e.Model.effects in
          if Array.for_all (fun l -> l <> []) succs then begin
            let rec expand k acc w =
              if k = ncomp then begin
                let target = Array.of_list (List.rev acc) in
                match Statespace.index ss target with
                | Some jdx -> Mdl_sparse.Coo.add coo i jdx (e.Model.rate *. w)
                | None -> Alcotest.fail "successor not reachable"
              end
              else
                List.iter
                  (fun (s', ww) ->
                    match Model.local_index exp (k + 1) s' with
                    | Some li -> expand (k + 1) (li :: acc) (w *. ww)
                    | None -> Alcotest.fail "local successor not discovered")
                  succs.(k)
            in
            expand 0 [] 1.0
          end)
        (Model.events m))
    ss;
  Csr.of_coo coo

let test_md_matches_semantics () =
  let exp = Model.explore (tiny_model ()) in
  let md = Model.md_of exp in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.to_csr md exp.Model.statespace in
  Alcotest.(check bool) "MD = direct semantics" true (Csr.approx_equal direct via_md)

let test_workstations_md_matches_semantics () =
  let b = Mdl_models.Workstations.build (Mdl_models.Workstations.default ~stations:3) in
  let exp = b.Mdl_models.Workstations.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.to_csr b.Mdl_models.Workstations.md exp.Model.statespace in
  Alcotest.(check bool) "workstations MD = semantics" true (Csr.approx_equal direct via_md)

let test_polling_md_matches_semantics () =
  let b = Mdl_models.Polling.build (Mdl_models.Polling.default ~customers:2) in
  let exp = b.Mdl_models.Polling.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.to_csr b.Mdl_models.Polling.md exp.Model.statespace in
  Alcotest.(check bool) "polling MD = semantics" true (Csr.approx_equal direct via_md)

let test_tandem_small_md_matches_semantics () =
  let p =
    {
      (Mdl_models.Tandem.default ~jobs:1) with
      Mdl_models.Tandem.hyper_dim = 2;
      msmq_servers = 2;
      msmq_queues = 2;
    }
  in
  let b = Mdl_models.Tandem.build p in
  let exp = b.Mdl_models.Tandem.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.to_csr b.Mdl_models.Tandem.md exp.Model.statespace in
  Alcotest.(check bool) "tandem MD = semantics" true (Csr.approx_equal direct via_md)

let test_multitier_md_matches_semantics () =
  let b = Mdl_models.Multitier.build (Mdl_models.Multitier.default ~clients:2) in
  let exp = b.Mdl_models.Multitier.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.to_csr b.Mdl_models.Multitier.md exp.Model.statespace in
  Alcotest.(check bool) "multitier MD = semantics" true (Csr.approx_equal direct via_md)

let explorations_identical e1 e2 =
  let open Mdl_san in
  Statespace.size e1.Model.statespace = Statespace.size e2.Model.statespace
  && e1.Model.initial_tuple = e2.Model.initial_tuple
  && Array.for_all2 ( = ) e1.Model.local_spaces e2.Model.local_spaces
  &&
  let same = ref true in
  Statespace.iter
    (fun i s -> if Statespace.index e2.Model.statespace s <> Some i then same := false)
    e1.Model.statespace;
  !same

let test_symbolic_matches_explicit () =
  List.iter
    (fun (name, m) ->
      let e1 = Model.explore m in
      let e2 = Model.explore_symbolic m in
      Alcotest.(check bool) (name ^ ": identical explorations") true
        (explorations_identical e1 e2);
      (* the canonical descriptors also agree *)
      Alcotest.(check bool) (name ^ ": same matrix") true
        (Csr.approx_equal
           (Md_vector.to_csr (Model.md_of e1) e1.Model.statespace)
           (Md_vector.to_csr (Model.md_of e2) e2.Model.statespace)))
    [
      ("tiny", tiny_model ());
      ("workstations", Mdl_models.Workstations.model (Mdl_models.Workstations.default ~stations:3));
      ("polling", Mdl_models.Polling.model (Mdl_models.Polling.default ~customers:2));
      ("multitier", Mdl_models.Multitier.model (Mdl_models.Multitier.default ~clients:2));
      ( "tandem",
        Mdl_models.Tandem.model
          {
            (Mdl_models.Tandem.default ~jobs:1) with
            Mdl_models.Tandem.hyper_dim = 2;
            msmq_servers = 2;
            msmq_queues = 2;
          } );
    ]

let test_symbolic_max_states () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let grow =
    {
      Model.label = "grow";
      rate = 1.0;
      effects = [| (fun s -> [ ([| s.(0) + 1 |], 1.0) ]) |];
    }
  in
  let m = Model.make ~components:[| a |] ~events:[ grow ] in
  match Model.explore_symbolic ~max_states:10 m with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

let test_compact_preserves_matrix () =
  let exp = Model.explore (tiny_model ()) in
  let raw = Kronecker.to_md exp.Model.descriptor in
  let compacted = Mdl_md.Compact.merge_terms raw in
  Alcotest.(check bool) "merge_terms preserves the matrix" true
    (Csr.approx_equal (Md.to_csr raw) (Md.to_csr compacted));
  (* In slice form every formal sum above the bottom level is a single
     term. *)
  let ok = ref true in
  Array.iteri
    (fun l ids ->
      if l < Md.levels compacted - 1 then
        List.iter
          (fun id ->
            Md.iter_node_entries compacted id (fun _ _ s ->
                if Mdl_md.Formal_sum.num_terms s > 1 then ok := false))
          ids)
    (Md.live_nodes compacted);
  Alcotest.(check bool) "single-term sums" true !ok

(* ----- whole-pipeline fuzzing over random compositional models ----- *)

(* A deterministic random model from a seed: 1-3 bounded-counter
   components, 1-5 events picked from a small effect repertoire. *)
let random_model seed =
  let rng = Mdl_util.Prng.create (Int64.of_int seed) in
  let ncomp = 1 + Mdl_util.Prng.int rng 3 in
  let caps = Array.init ncomp (fun _ -> 1 + Mdl_util.Prng.int rng 3) in
  let components =
    Array.init ncomp (fun k ->
        { Model.name = Printf.sprintf "c%d" k; initial = [| 0 |] })
  in
  let effect_of_kind cap kind =
    match kind with
    | 0 -> id
    | 1 -> fun s -> if s.(0) < cap then [ ([| s.(0) + 1 |], 1.0) ] else []
    | 2 -> fun s -> if s.(0) > 0 then [ ([| s.(0) - 1 |], 1.0) ] else []
    | 3 -> fun s -> if s.(0) > 0 then [ ([| 0 |], 1.0) ] else []
    | 4 ->
        (* probabilistic branch: up or reset *)
        fun s ->
          if s.(0) > 0 && s.(0) < cap then
            [ ([| s.(0) + 1 |], 0.5); ([| 0 |], 0.5) ]
          else []
    | _ -> fun s -> if s.(0) <= 1 then [ ([| 1 - s.(0) |], 1.0) ] else []
  in
  let nevents = 1 + Mdl_util.Prng.int rng 5 in
  let events =
    List.init nevents (fun e ->
        {
          Model.label = Printf.sprintf "e%d" e;
          rate = float_of_int (1 + Mdl_util.Prng.int rng 3);
          effects =
            Array.init ncomp (fun k ->
                effect_of_kind caps.(k) (Mdl_util.Prng.int rng 6));
        })
  in
  Model.make ~components ~events

let arb_seed = QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))

let fuzz_pipeline =
  QCheck.Test.make ~count:60 ~name:"pipeline fuzz: explore/symbolic/MD/lump/measures"
    arb_seed (fun seed ->
      let m = random_model seed in
      let e1 = Model.explore ~max_states:100_000 m in
      let e2 = Model.explore_symbolic ~max_states:100_000 m in
      (* 1. both exploration engines agree *)
      if not (explorations_identical e1 e2) then false
      else begin
        let md = Model.md_of e1 in
        let ss = e1.Model.statespace in
        (* 2. the MD agrees with the direct semantics *)
        let direct = flat_rates_by_enumeration e1 in
        let via_md = Md_vector.to_csr md ss in
        if not (Csr.approx_equal direct via_md) then false
        else begin
          (* 3. lump with a protected level-1 reward *)
          let sizes = Array.map Array.length e1.Model.local_spaces in
          let reward =
            Mdl_core.Decomposed.of_level ~sizes ~level:1 (fun i ->
                float_of_int e1.Model.local_spaces.(0).(i).(0))
          in
          let initial = Mdl_core.Decomposed.point ~sizes e1.Model.initial_tuple in
          let result = Mdl_core.Compositional.lump Ordinary md ~rewards:[ reward ] ~initial in
          if not (Mdl_core.Compositional.is_closed result ss) then
            (* closure can fail for asymmetric random models: the lumped
               chain is then not used; nothing more to check *)
            true
          else begin
            let lumped_ss = Mdl_core.Compositional.lump_statespace result ss in
            (* 4. stationary aggregation commutes and the protected
               measure is preserved *)
            let pi, st1 = Mdl_core.Md_solve.steady_state ~tol:1e-12 ~max_iter:50_000 md ss in
            let pi_l, st2 =
              Mdl_core.Md_solve.steady_state ~tol:1e-12 ~max_iter:50_000
                result.Mdl_core.Compositional.lumped lumped_ss
            in
            if not (st1.Mdl_ctmc.Solver.converged && st2.Mdl_ctmc.Solver.converged) then
              QCheck.assume_fail () (* skip pathological convergence cases *)
            else begin
              let agg = Mdl_core.Compositional.aggregate_vector result ss lumped_ss pi in
              let r_flat =
                Mdl_ctmc.Solver.expected_reward pi
                  (Mdl_core.Decomposed.to_vector reward ss)
              in
              let r_lumped =
                Mdl_ctmc.Solver.expected_reward pi_l
                  (Mdl_core.Decomposed.to_vector
                     (Mdl_core.Compositional.lumped_rewards result reward)
                     lumped_ss)
              in
              Vec.diff_inf agg pi_l < 1e-7 && Float.abs (r_flat -. r_lumped) < 1e-7
            end
          end
        end
      end)

let fuzz_merge =
  QCheck.Test.make ~count:60 ~name:"pipeline fuzz: merge_adjacent preserves semantics"
    arb_seed (fun seed ->
      let m = random_model seed in
      let e = Model.explore_symbolic ~max_states:100_000 m in
      let md = Model.md_of e in
      if Mdl_md.Md.levels md < 2 then true
      else begin
        let ss = e.Model.statespace in
        let merged = Mdl_md.Restructure.merge_adjacent md 1 in
        let merged_ss = Statespace.map ss (Mdl_md.Restructure.merge_tuple md 1) in
        let n = Statespace.size ss in
        let x = Array.init n (fun i -> float_of_int ((i mod 5) + 1)) in
        let mul md ss = Md_vector.vec_mul_mdd md (Mdl_md.Mdd.of_statespace ss) x in
        Vec.approx_equal (mul md ss) (mul merged merged_ss)
      end)

let qcheck_tests = [ fuzz_pipeline; fuzz_merge ]

let tests =
  [
    Alcotest.test_case "explore tiny model" `Quick test_explore_tiny;
    Alcotest.test_case "guards restrict exploration" `Quick test_explore_guards_restrict;
    Alcotest.test_case "max_states guard" `Quick test_explore_max_states;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "MD matches semantics (tiny)" `Quick test_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (workstations)" `Quick
      test_workstations_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (polling)" `Quick
      test_polling_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (tandem J=1)" `Slow
      test_tandem_small_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (multitier)" `Quick
      test_multitier_md_matches_semantics;
    Alcotest.test_case "symbolic = explicit exploration" `Quick
      test_symbolic_matches_explicit;
    Alcotest.test_case "symbolic max_states guard" `Quick test_symbolic_max_states;
    Alcotest.test_case "compact preserves matrix" `Quick test_compact_preserves_matrix;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
