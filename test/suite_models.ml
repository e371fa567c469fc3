(* Integration tests over the example models: compositional lumping
   preserves measures, is optimal for the symmetric models (checked with
   the flat state-level algorithm as in Section 5), and the tandem
   system reproduces the qualitative Table-1 behaviour. *)

module Vec = Mdl_sparse.Vec
module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Ctmc = Mdl_ctmc.Ctmc
module Solver = Mdl_ctmc.Solver
module State_lumping = Mdl_lumping.State_lumping
module Check = Mdl_lumping.Check
module Quotient = Mdl_lumping.Quotient
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Workstations = Mdl_models.Workstations
module Multitier = Mdl_models.Multitier
module Kanban = Mdl_models.Kanban
module Polling = Mdl_models.Polling
module Tandem = Mdl_models.Tandem
module Family = Mdl_models.Family
module P = Mdl_serve.Protocol

(* Steady-state reward computed (a) flat on the original chain and
   (b) on the compositionally lumped MD; they must agree. *)
let check_reward_preservation ~name md ss rewards initial result =
  ignore initial;
  let lumped_ss = Compositional.lump_statespace result ss in
  Alcotest.(check bool) (name ^ ": closed") true (Compositional.is_closed result ss);
  let pi, st = Md_solve.steady_state ~tol:1e-13 ~max_iter:200_000 md ss in
  Alcotest.(check bool) (name ^ ": original converged") true st.Solver.converged;
  let pi_l, st_l =
    Md_solve.steady_state ~tol:1e-13 ~max_iter:200_000 result.Compositional.lumped
      lumped_ss
  in
  Alcotest.(check bool) (name ^ ": lumped converged") true st_l.Solver.converged;
  let r_flat = Solver.expected_reward pi (Decomposed.to_vector rewards ss) in
  let r_lumped =
    Solver.expected_reward pi_l
      (Decomposed.to_vector (Compositional.lumped_rewards result rewards) lumped_ss)
  in
  Alcotest.(check (float 1e-7)) (name ^ ": steady-state reward preserved") r_flat r_lumped;
  (* distribution aggregation must also match *)
  Alcotest.(check bool) (name ^ ": aggregation matches") true
    (Vec.diff_inf (Compositional.aggregate_vector result ss lumped_ss pi) pi_l < 1e-7)

let test_workstations_lump_and_measures () =
  let b = Workstations.build (Workstations.default ~stations:4) in
  let ss = b.Workstations.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Workstations.md ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  (* 4 interchangeable 3-state stations: 81 local states -> at most the
     C(6,2)=15 multisets; the reward (number Up) is class-constant. *)
  let p2 = result.Compositional.partitions.(1) in
  Alcotest.(check int) "stations level lumps to multisets" 15 (Partition.num_classes p2);
  check_reward_preservation ~name:"workstations" b.Workstations.md ss
    b.Workstations.rewards_operational b.Workstations.initial result

let test_workstations_optimality () =
  (* Section 5's check: feed the compositionally lumped chain to the
     flat state-level algorithm; no further lumping should be possible
     (for this fully symmetric model). *)
  let b = Workstations.build (Workstations.default ~stations:3) in
  let ss = b.Workstations.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Workstations.md ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  let lumped_flat = Mdl_md.Md_vector.to_csr result.Compositional.lumped lumped_ss in
  let rewards_vec =
    Decomposed.to_vector (Compositional.lumped_rewards result b.Workstations.rewards_operational)
      lumped_ss
  in
  let initial_p =
    Partition.group_by (Statespace.size lumped_ss)
      (fun s -> rewards_vec.(s))
      (fun a b -> Mdl_util.Floatx.compare_approx a b)
  in
  let further = State_lumping.coarsest Ordinary lumped_flat ~initial:initial_p in
  Alcotest.(check int) "no further state-level lumping"
    (Statespace.size lumped_ss)
    (Partition.num_classes further)

let test_workstations_exact_mode () =
  let b = Workstations.build (Workstations.default ~stations:3) in
  let ss = b.Workstations.exploration.Model.statespace in
  let result =
    Compositional.lump Exact b.Workstations.md ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  Alcotest.(check bool) "exact lump non-trivial" true
    (Statespace.size (Compositional.lump_statespace result ss) < Statespace.size ss);
  Alcotest.(check bool) "closed" true (Compositional.is_closed result ss);
  (* Global exact lumpability of the flat chain w.r.t. the induced
     partition on reachable states. *)
  let flat = Mdl_md.Md_vector.to_csr b.Workstations.md ss in
  let lumped_ss = Compositional.lump_statespace result ss in
  let assignment =
    Array.init (Statespace.size ss) (fun i ->
        match
          Statespace.index lumped_ss (Compositional.class_tuple result (Statespace.tuple ss i))
        with
        | Some c -> c
        | None -> Alcotest.fail "missing class")
  in
  let gp = Partition.of_class_assignment assignment in
  Alcotest.(check bool) "globally exactly lumpable" true (Check.exact flat gp)

let test_polling_lump_and_measures () =
  let b = Polling.build (Polling.default ~customers:2) in
  let ss = b.Polling.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Polling.md ~rewards:[ b.Polling.rewards_busy_servers ]
      ~initial:b.Polling.initial
  in
  Alcotest.(check bool) "polling lumps" true
    (Statespace.size (Compositional.lump_statespace result ss) < Statespace.size ss);
  check_reward_preservation ~name:"polling" b.Polling.md ss b.Polling.rewards_busy_servers
    b.Polling.initial result

(* A reduced-topology tandem instance (4 hypercube servers, 2 MSMQ
   servers over 2 queues) keeps the flat reference solutions cheap while
   exercising every event type. *)
let small_tandem jobs =
  { (Tandem.default ~jobs) with Tandem.hyper_dim = 2; msmq_servers = 2; msmq_queues = 2 }

let test_tandem_lump_and_measures () =
  let b = Tandem.build (small_tandem 1) in
  let ss = b.Tandem.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Tandem.md ~rewards:[ b.Tandem.rewards_availability ]
      ~initial:b.Tandem.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  let reduction =
    float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss)
  in
  Alcotest.(check bool) "tandem reduction > 2x" true (reduction > 2.0);
  Alcotest.(check bool) "closed" true (Compositional.is_closed result ss);
  check_reward_preservation ~name:"tandem" b.Tandem.md ss b.Tandem.rewards_availability
    b.Tandem.initial result

let test_tandem_msmq_jobs_measure () =
  (* A different (non-constant) reward: expected jobs in the MSMQ
     queues; the initial partition must respect it and the measure must
     be preserved. *)
  let b = Tandem.build (small_tandem 2) in
  let ss = b.Tandem.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Tandem.md ~rewards:[ b.Tandem.rewards_msmq_jobs ]
      ~initial:b.Tandem.initial
  in
  check_reward_preservation ~name:"tandem msmq-jobs" b.Tandem.md ss
    b.Tandem.rewards_msmq_jobs b.Tandem.initial result

(* The three steady-state kernels must agree on the lumped quotients of
   the example models — the in-tree version of the bench solver race,
   gated at the same 1e-9 on the reported measure. *)
let check_solver_race ~name ss rewards result =
  let lumped = result.Compositional.lumped in
  let lumped_ss = Compositional.lump_statespace result ss in
  let r =
    Decomposed.to_vector (Compositional.lumped_rewards result rewards) lumped_ss
  in
  let reward which (pi, st) =
    Alcotest.(check bool) (name ^ ": " ^ which ^ " converged") true st.Solver.converged;
    Solver.expected_reward pi r
  in
  let via_power =
    reward "power" (Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000 lumped lumped_ss)
  in
  let via_gs =
    reward "gauss-seidel"
      (Solver.steady_state_gauss_seidel ~tol:1e-13 ~max_iter:100_000
         ~ordering:Solver.Rcm ~relax:0.9
         (Md_solve.ctmc_of lumped lumped_ss))
  in
  let via_krylov =
    reward "krylov"
      (Md_solve.steady_state_krylov ~tol:1e-13 ~max_iter:100_000 lumped lumped_ss)
  in
  Alcotest.(check bool) (name ^ ": gauss-seidel within 1e-9") true
    (Float.abs (via_gs -. via_power) < 1e-9);
  Alcotest.(check bool) (name ^ ": krylov within 1e-9") true
    (Float.abs (via_krylov -. via_power) < 1e-9)

let test_tandem_solver_race () =
  let b = Tandem.build (small_tandem 1) in
  let ss = b.Tandem.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Tandem.md ~rewards:[ b.Tandem.rewards_availability ]
      ~initial:b.Tandem.initial
  in
  check_solver_race ~name:"tandem" ss b.Tandem.rewards_availability result

let test_kanban_solver_race () =
  let b = Kanban.build (Kanban.default ~cards:2) in
  let ss = b.Kanban.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Kanban.md ~rewards:[ b.Kanban.rewards_in_system ]
      ~initial:b.Kanban.initial
  in
  check_solver_race ~name:"kanban" ss b.Kanban.rewards_in_system result

let test_md_transient_matches_flat () =
  let b = Workstations.build (Workstations.default ~stations:3) in
  let ss = b.Workstations.exploration.Model.statespace in
  let pi0 = Decomposed.to_vector b.Workstations.initial ss in
  let via_md = Md_solve.transient ~t:0.6 b.Workstations.md ss pi0 in
  let via_flat = Solver.transient ~t:0.6 (Md_solve.ctmc_of b.Workstations.md ss) pi0 in
  Alcotest.(check bool) "MD-driven transient = flat transient" true
    (Vec.diff_inf via_md via_flat < 1e-9)

let test_transient_aggregation_commutes_on_lumped_md () =
  (* Ordinary lumping: aggregating the transient distribution of the
     original MD equals the transient of the lumped MD from the
     aggregated initial. *)
  let b = Polling.build (Polling.default ~customers:2) in
  let ss = b.Polling.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Polling.md ~rewards:[ b.Polling.rewards_busy_servers ]
      ~initial:b.Polling.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  let pi0 = Decomposed.to_vector b.Polling.initial ss in
  let pi0_l = Compositional.aggregate_vector result ss lumped_ss pi0 in
  let t = 0.9 in
  let pi_t = Md_solve.transient ~t b.Polling.md ss pi0 in
  let pi_t_l = Md_solve.transient ~t result.Compositional.lumped lumped_ss pi0_l in
  Alcotest.(check bool) "transient aggregation commutes" true
    (Vec.diff_inf (Compositional.aggregate_vector result ss lumped_ss pi_t) pi_t_l < 1e-9)

let test_multitier_four_levels () =
  let b = Multitier.build (Multitier.default ~clients:3) in
  let ss = b.Multitier.exploration.Model.statespace in
  Alcotest.(check int) "four levels" 4 (Md.levels b.Multitier.md);
  let result =
    Compositional.lump Ordinary b.Multitier.md
      ~rewards:[ b.Multitier.rewards_thinking; b.Multitier.rewards_db_fast ]
      ~initial:b.Multitier.initial
  in
  (* Both replicated tiers lump to queue-length multisets. *)
  let p2 = result.Compositional.partitions.(1) in
  let p3 = result.Compositional.partitions.(2) in
  Alcotest.(check bool) "front tier lumps" true
    (Partition.num_classes p2 < Partition.size p2);
  Alcotest.(check bool) "app tier lumps" true
    (Partition.num_classes p3 < Partition.size p3);
  check_reward_preservation ~name:"multitier thinking" b.Multitier.md ss
    b.Multitier.rewards_thinking b.Multitier.initial result;
  check_reward_preservation ~name:"multitier db-fast" b.Multitier.md ss
    b.Multitier.rewards_db_fast b.Multitier.initial result

let test_multitier_md_matches_semantics () =
  (* Cross-check the 4-level MD against direct enumeration, as done for
     the other models in suite_san (inlined here to reuse the builder). *)
  let b = Multitier.build (Multitier.default ~clients:2) in
  let exp = b.Multitier.exploration in
  let via_md = Mdl_md.Md_vector.to_csr b.Multitier.md exp.Model.statespace in
  (* row sums of R must equal the summed exit rates of the direct
     semantics; spot-check through the CTMC wrapper *)
  let ctmc = Md_solve.ctmc_of b.Multitier.md exp.Model.statespace in
  Alcotest.(check bool) "irreducible" true (Ctmc.is_irreducible ctmc);
  Alcotest.(check int) "square" (Statespace.size exp.Model.statespace)
    (Mdl_sparse.Csr.rows via_md)

let test_kanban_build_and_measures () =
  let b = Kanban.build (Kanban.default ~cards:2) in
  let ss = b.Kanban.exploration.Model.statespace in
  Alcotest.(check int) "four levels" 4 (Md.levels b.Kanban.md);
  let result =
    Compositional.lump Ordinary b.Kanban.md ~rewards:[ b.Kanban.rewards_in_system ]
      ~initial:b.Kanban.initial
  in
  check_reward_preservation ~name:"kanban" b.Kanban.md ss b.Kanban.rewards_in_system
    b.Kanban.initial result

let test_kanban_merge_unlocks_cell_symmetry () =
  (* Cells 2 and 3 are identical but occupy different levels: per-level
     lumping sees nothing there; merging levels 2 and 3 exposes the swap
     symmetry.  This is the model-level-complementarity experiment (P6
     in EXPERIMENTS.md). *)
  let b = Kanban.build (Kanban.default ~cards:2) in
  let ss = b.Kanban.exploration.Model.statespace in
  let md = b.Kanban.md in
  let sizes = Md.sizes md in
  let per_level_result =
    Compositional.lump Ordinary md
      ~rewards:[ Decomposed.constant ~sizes 1.0 ]
      ~initial:(Decomposed.constant ~sizes 1.0)
  in
  let per_level_lumped =
    Statespace.size
      (Compositional.lump_statespace per_level_result ss)
  in
  (* now merge cells 2 and 3 into one level and lump again *)
  let merged = Mdl_md.Restructure.merge_adjacent md 2 in
  let merged_ss = Statespace.map ss (Mdl_md.Restructure.merge_tuple md 2) in
  let msizes = Md.sizes merged in
  let merged_result =
    Compositional.lump Ordinary merged
      ~rewards:[ Decomposed.constant ~sizes:msizes 1.0 ]
      ~initial:(Decomposed.constant ~sizes:msizes 1.0)
  in
  let merged_lumped =
    Statespace.size (Compositional.lump_statespace merged_result merged_ss)
  in
  Alcotest.(check bool) "merging unlocks more lumping" true
    (merged_lumped < per_level_lumped);
  Alcotest.(check bool) "merged closed" true
    (Compositional.is_closed merged_result merged_ss);
  (* and the lumped merged chain has the same stationary measure *)
  let pi, _ = Md_solve.steady_state ~tol:1e-12 md ss in
  let r_orig =
    Solver.expected_reward pi (Decomposed.to_vector b.Kanban.rewards_in_system ss)
  in
  let lumped_ss2 = Compositional.lump_statespace merged_result merged_ss in
  let pi_l, _ =
    Md_solve.steady_state ~tol:1e-12 merged_result.Compositional.lumped lumped_ss2
  in
  (* The reward was not protected by the (constant) initial partition,
     so the lumped classes mix reward values; class-averaging is valid
     here because the classes are orbits of a chain automorphism (the
     cell-2/3 swap), under which the stationary distribution is uniform
     within each class. *)
  let reward_merged_ss =
    let v = Decomposed.to_vector b.Kanban.rewards_in_system ss in
    let out = Array.make (Statespace.size merged_ss) 0.0 in
    Statespace.iter
      (fun i s ->
        match Statespace.index merged_ss (Mdl_md.Restructure.merge_tuple md 2 s) with
        | Some j -> out.(j) <- v.(i)
        | None -> assert false)
      ss;
    out
  in
  let r_lumped =
    Solver.expected_reward pi_l
      (Compositional.average_vector merged_result merged_ss lumped_ss2 reward_merged_ss)
  in
  Alcotest.(check (float 1e-6)) "measure preserved across merge+lump" r_orig r_lumped

let test_mttf_preserved_by_lumping () =
  (* Hitting times of a class-closed (here: structural, exit-rate-zero)
     target are class-constant under ordinary lumping: MTTF computed on
     the lumped chain equals MTTF on the full chain. *)
  let p = { (Workstations.default ~stations:4) with Workstations.restock = 0.0 } in
  let b = Workstations.build p in
  let ss = b.Workstations.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Workstations.md
      ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  let mttf md space =
    let ctmc = Md_solve.ctmc_of md space in
    fst
      (Mdl_ctmc.Absorption.mean_time_to_absorption ~tol:1e-12 ctmc
         ~absorbing:(fun i -> Ctmc.exit_rate ctmc i = 0.0))
  in
  let t_full = mttf b.Workstations.md ss in
  let t_lumped = mttf result.Compositional.lumped lumped_ss in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (Compositional.class_tuple result s) with
      | Some c ->
          Alcotest.(check (float 1e-7))
            (Printf.sprintf "hitting time state %d" i)
            t_lumped.(c) t_full.(i)
      | None -> Alcotest.fail "missing class")
    ss

let test_tandem_table1_shape () =
  (* The qualitative content of Table 1 at J=1: few nodes per level, a
     large overall reduction, and node counts unchanged by lumping. *)
  let b = Tandem.build (Tandem.default ~jobs:1) in
  let ss = b.Tandem.exploration.Model.statespace in
  let counts, _ = Md.stats b.Tandem.md in
  Alcotest.(check int) "one root" 1 counts.(0);
  Alcotest.(check bool) "few level-2 nodes" true (counts.(1) <= 10);
  Alcotest.(check bool) "few level-3 nodes" true (counts.(2) <= 10);
  let result =
    Compositional.lump Ordinary b.Tandem.md ~rewards:[ b.Tandem.rewards_availability ]
      ~initial:b.Tandem.initial
  in
  let lcounts, _ = Md.stats result.Compositional.lumped in
  Alcotest.(check (array int)) "node counts preserved by lumping" counts lcounts;
  let lumped_ss = Compositional.lump_statespace result ss in
  let reduction =
    float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss)
  in
  Alcotest.(check bool) "reduction in the tens" true (reduction > 20.0 && reduction < 100.0);
  Alcotest.(check bool) "lumped MD uses less memory" true
    (Md.memory_bytes result.Compositional.lumped < Md.memory_bytes b.Tandem.md)

(* ---- the family catalogue ---- *)

(* Listed by hand.  Adding a wire family breaks the exhaustive match
   below, which points here. *)
let wire_families = [ P.Tandem; P.Polling; P.Workstations; P.Multitier; P.Kanban ]

let _listed : P.family -> unit = function
  | P.Tandem | P.Polling | P.Workstations | P.Multitier | P.Kanban -> ()

let test_catalogue_matches_wire_families () =
  List.iter
    (fun f ->
      let name = P.family_string f in
      Alcotest.(check bool) (name ^ " has an entry") true (Family.find name <> None))
    wire_families;
  List.iter
    (fun (f : Family.t) ->
      Alcotest.(check bool) (f.name ^ " has a wire name") true
        (List.exists (fun w -> P.family_string w = f.name) wire_families))
    Family.all;
  Alcotest.(check int) "one entry per wire family" (List.length wire_families)
    (List.length Family.all)

(* Each entry's default build against its module's own default build:
   states, level sizes, and the measures' names, order and values. *)
let test_catalogue_default_builds () =
  let module_build name =
    match name with
    | "tandem" ->
        let b = Tandem.build (Tandem.default ~jobs:1) in
        ( b.Tandem.md,
          b.Tandem.exploration.Model.statespace,
          [
            ("availability", b.Tandem.rewards_availability);
            ("msmq jobs", b.Tandem.rewards_msmq_jobs);
          ] )
    | "polling" ->
        let b = Polling.build (Polling.default ~customers:4) in
        ( b.Polling.md,
          b.Polling.exploration.Model.statespace,
          [
            ("busy servers", b.Polling.rewards_busy_servers);
            ("queued jobs", b.Polling.rewards_queued_jobs);
          ] )
    | "workstations" ->
        let b = Workstations.build (Workstations.default ~stations:4) in
        ( b.Workstations.md,
          b.Workstations.exploration.Model.statespace,
          [ ("operational", b.Workstations.rewards_operational) ] )
    | "multitier" ->
        let b = Multitier.build (Multitier.default ~clients:3) in
        ( b.Multitier.md,
          b.Multitier.exploration.Model.statespace,
          [
            ("thinking clients", b.Multitier.rewards_thinking);
            ("db fast", b.Multitier.rewards_db_fast);
          ] )
    | "kanban" ->
        let b = Kanban.build (Kanban.default ~cards:2) in
        ( b.Kanban.md,
          b.Kanban.exploration.Model.statespace,
          [ ("parts in system", b.Kanban.rewards_in_system) ] )
    | other -> Alcotest.failf "no module for family %s" other
  in
  List.iter
    (fun (f : Family.t) ->
      let resolved =
        match Family.resolve f ~size:None [] with
        | Ok r -> r
        | Error msg -> Alcotest.failf "%s: %s" f.name msg
      in
      let b = f.build resolved in
      let md, ss, rewards = module_build f.name in
      Alcotest.(check int) (f.name ^ ": states") (Statespace.size ss)
        (Statespace.size b.Family.statespace);
      Alcotest.(check (array int)) (f.name ^ ": level sizes") (Md.sizes md)
        (Md.sizes b.Family.md);
      Alcotest.(check (list string)) (f.name ^ ": measure names") (List.map fst rewards)
        (List.map fst b.Family.rewards);
      List.iter2
        (fun (name, d) (_, d') ->
          Alcotest.(check bool) (f.name ^ ": " ^ name) true
            (Decomposed.to_vector d ss = Decomposed.to_vector d' b.Family.statespace))
        rewards b.Family.rewards)
    Family.all

(* Five variants on the largest level, cycled; the third is the
   complement of the second. *)
let test_sweep_study_shape () =
  let b = Kanban.build (Kanban.default ~cards:2) in
  let study = Family.sweep_study b.Kanban.md ~points:7 in
  Alcotest.(check int) "points" 7 (List.length study);
  Alcotest.(check bool) "cycles after five" true
    (List.nth study 5 = List.nth study 0 && List.nth study 6 = List.nth study 1);
  Alcotest.(check bool) "base point has no extra rewards" true (List.hd study = []);
  (match (List.nth study 1, List.nth study 2) with
  | [ up ], [ down ] ->
      Alcotest.(check bool) "complement" true
        (up.Family.ge && (not down.Family.ge) && up.Family.level = down.Family.level
        && up.Family.k = down.Family.k)
  | _ -> Alcotest.fail "expected one threshold per point");
  Alcotest.(check int) "no points" 0 (List.length (Family.sweep_study b.Kanban.md ~points:0))

let tests =
  [
    Alcotest.test_case "workstations lump+measures" `Quick test_workstations_lump_and_measures;
    Alcotest.test_case "workstations optimality" `Quick test_workstations_optimality;
    Alcotest.test_case "workstations exact mode" `Quick test_workstations_exact_mode;
    Alcotest.test_case "polling lump+measures" `Quick test_polling_lump_and_measures;
    Alcotest.test_case "tandem lump+measures (J=1)" `Slow test_tandem_lump_and_measures;
    Alcotest.test_case "tandem msmq-jobs measure (J=1)" `Slow test_tandem_msmq_jobs_measure;
    Alcotest.test_case "MD transient matches flat" `Quick test_md_transient_matches_flat;
    Alcotest.test_case "transient aggregation commutes (lumped MD)" `Quick
      test_transient_aggregation_commutes_on_lumped_md;
    Alcotest.test_case "multitier four levels" `Quick test_multitier_four_levels;
    Alcotest.test_case "multitier MD sanity" `Quick test_multitier_md_matches_semantics;
    Alcotest.test_case "kanban build+measures" `Quick test_kanban_build_and_measures;
    Alcotest.test_case "MTTF preserved by lumping" `Quick test_mttf_preserved_by_lumping;
    Alcotest.test_case "kanban merge unlocks cell symmetry" `Quick
      test_kanban_merge_unlocks_cell_symmetry;
    Alcotest.test_case "tandem Table-1 shape (J=1)" `Slow test_tandem_table1_shape;
    Alcotest.test_case "tandem solver race (J=1)" `Slow test_tandem_solver_race;
    Alcotest.test_case "kanban solver race" `Quick test_kanban_solver_race;
    Alcotest.test_case "catalogue: one entry per wire family" `Quick
      test_catalogue_matches_wire_families;
    Alcotest.test_case "catalogue: default builds match the family modules" `Slow
      test_catalogue_default_builds;
    Alcotest.test_case "catalogue: sweep study shape" `Quick test_sweep_study_shape;
  ]
