(* Benchmark harness: regenerates the paper's evaluation artifacts and
   measures the kernels behind them.

   Sections (ids from DESIGN.md's experiment index):
     T1a/T1b/T1c - Table 1: sizes, node counts, reductions, times,
                   MD memory, for the tandem system (report + kernels).
     P1          - solution cost, lumped vs unlumped (vector size and
                   per-iteration time).
     P2          - optimality: state-level lumping of the lumped chain.
     P3          - ablation: formal-sum keys vs expanded-matrix keys.
     P4          - exact lumping on the replicated-workstation model.
     P5          - representation baseline: Kronecker shuffle product vs
                   MD path product vs flat sparse matrix.

   Environment: BENCH_JOBS="1 2"   J values for the Table 1 report
                (default "1 2"; add 3 for the full paper range - the
                explicit state-space exploration then takes minutes). *)

open Bechamel
open Toolkit
module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Partition = Mdl_partition.Partition
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Level_lumping = Mdl_core.Level_lumping
module Local_key = Mdl_core.Local_key
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module State_lumping = Mdl_lumping.State_lumping
module Kronecker = Mdl_kron.Kronecker
module Tandem = Mdl_models.Tandem
module Workstations = Mdl_models.Workstations

(* ------------------------------------------------------------------ *)
(* bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let run_group group_name tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:group_name tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "\n== bench group: %s ==\n%!" group_name;
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%8.3f  s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
            else Printf.sprintf "%8.1f ns" est
          in
          Printf.printf "  %-48s %s/run\n" name pretty
      | Some [] | None -> Printf.printf "  %-48s (no estimate)\n" name)
    rows

(* ------------------------------------------------------------------ *)
(* shared model instances                                              *)
(* ------------------------------------------------------------------ *)

let jobs_list () =
  match Sys.getenv_opt "BENCH_JOBS" with
  | None -> [ 1; 2 ]
  | Some s ->
      let l = String.split_on_char ' ' s |> List.filter_map int_of_string_opt in
      if l = [] then [ 1; 2 ] else l

(* Small tandem instance for kernel benchmarks (full topology is used
   for the Table 1 report). *)
let small_tandem_params =
  { (Tandem.default ~jobs:1) with Tandem.hyper_dim = 2; msmq_servers = 2; msmq_queues = 2 }

(* ------------------------------------------------------------------ *)
(* T1: Table 1 report                                                  *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  jobs : int;
  states : int;
  level_sizes : int array;
  nodes : int array;
  lumped_states : int;
  lumped_sizes : int array;
  gen_s : float;
  lump_s : float;
  md_kb : float;
  lumped_md_kb : float;
  built : Tandem.built;
  result : Compositional.result;
}

let t1_run jobs =
  let b, gen_s = Mdl_util.Timer.time (fun () -> Tandem.build (Tandem.default ~jobs)) in
  let ss = b.Tandem.exploration.Model.statespace in
  let nodes, _ = Md.stats b.Tandem.md in
  let result, lump_s =
    Mdl_util.Timer.time (fun () ->
        Compositional.lump Ordinary b.Tandem.md
          ~rewards:[ b.Tandem.rewards_availability ]
          ~initial:b.Tandem.initial)
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  assert (Compositional.is_closed result ss);
  {
    jobs;
    states = Statespace.size ss;
    level_sizes = Md.sizes b.Tandem.md;
    nodes;
    lumped_states = Statespace.size lumped_ss;
    lumped_sizes = Array.map Partition.num_classes result.Compositional.partitions;
    gen_s;
    lump_s;
    md_kb = float_of_int (Md.memory_bytes b.Tandem.md) /. 1024.0;
    lumped_md_kb = float_of_int (Md.memory_bytes result.Compositional.lumped) /. 1024.0;
    built = b;
    result;
  }

let t1_report rows =
  print_endline "== T1a: unlumped state-space sizes and MD node counts ==";
  print_endline "  J  overall      S1     S2     S3        N1  N2  N3";
  List.iter
    (fun r ->
      Printf.printf "  %d  %-10d %-6d %-6d %-6d    %3d %3d %3d\n" r.jobs r.states
        r.level_sizes.(0) r.level_sizes.(1) r.level_sizes.(2) r.nodes.(0) r.nodes.(1)
        r.nodes.(2))
    rows;
  print_endline "";
  print_endline "== T1b: lumped state-space sizes and reductions ==";
  print_endline "  J  overall     S1     S2     S3        overall    l2    l3";
  List.iter
    (fun r ->
      let red a b = float_of_int a /. float_of_int b in
      Printf.printf "  %d  %-10d %-6d %-6d %-6d   %7.1f %5.1f %5.1f\n" r.jobs
        r.lumped_states r.lumped_sizes.(0) r.lumped_sizes.(1) r.lumped_sizes.(2)
        (red r.states r.lumped_states)
        (red r.level_sizes.(1) r.lumped_sizes.(1))
        (red r.level_sizes.(2) r.lumped_sizes.(2)))
    rows;
  print_endline "";
  print_endline "== T1c: generation / lumping times and MD memory ==";
  print_endline "  J  gen time    MD space     lump time   lumped MD";
  List.iter
    (fun r ->
      Printf.printf "  %d  %7.2f s  %8.1f KB  %8.3f s  %8.1f KB\n" r.jobs r.gen_s
        r.md_kb r.lump_s r.lumped_md_kb)
    rows;
  print_endline ""

(* ------------------------------------------------------------------ *)
(* P1: solution cost, lumped vs unlumped                               *)
(* ------------------------------------------------------------------ *)

let p1_report (r : t1_row) =
  Printf.printf "== P1: solution cost at J=%d (vector size and per-iteration time) ==\n"
    r.jobs;
  let b = r.built in
  let ss = b.Tandem.exploration.Model.statespace in
  let lumped_ss = Compositional.lump_statespace r.result ss in
  let time_iterations md space n =
    let op, _ = Md_solve.uniformized_operator md space in
    let x = ref (Array.make op.Solver.dim (1.0 /. float_of_int op.Solver.dim)) in
    let _, elapsed =
      Mdl_util.Timer.time (fun () ->
          for _ = 1 to n do
            x := op.Solver.apply !x
          done)
    in
    elapsed /. float_of_int n
  in
  let unlumped_iter = time_iterations b.Tandem.md ss 5 in
  let lumped_iter = time_iterations r.result.Compositional.lumped lumped_ss 5 in
  Printf.printf "  unlumped: vector size %-8d  %.4f s/iteration\n" (Statespace.size ss)
    unlumped_iter;
  Printf.printf "  lumped:   vector size %-8d  %.4f s/iteration (%.1fx faster)\n"
    (Statespace.size lumped_ss) lumped_iter (unlumped_iter /. lumped_iter);
  let (_, stats), solve_s =
    Mdl_util.Timer.time (fun () ->
        Md_solve.steady_state ~tol:1e-10 ~max_iter:200_000 r.result.Compositional.lumped
          lumped_ss)
  in
  Printf.printf "  lumped steady state: %d iterations in %.2f s (converged %b)\n\n"
    stats.Solver.iterations solve_s stats.Solver.converged

(* ------------------------------------------------------------------ *)
(* P2: optimality check                                                *)
(* ------------------------------------------------------------------ *)

let p2_report (r : t1_row) =
  Printf.printf "== P2: optimality of the compositional result (J=%d) ==\n" r.jobs;
  let b = r.built in
  let ss = b.Tandem.exploration.Model.statespace in
  let lumped_ss = Compositional.lump_statespace r.result ss in
  let n = Statespace.size lumped_ss in
  match
    Mdl_util.Timer.time (fun () ->
        Md_solve.check_optimal Ordinary r.result lumped_ss
          ~rewards:[ b.Tandem.rewards_availability ])
  with
  | None, _ -> Printf.printf "  skipped (%d states)\n\n" n
  | Some classes, t ->
      Printf.printf
        "  state-level lumping [9] of the lumped chain: %d -> %d classes in %.3f s%s\n\n" n
        classes t
        (if classes = n then "  (optimal)" else "")

(* ------------------------------------------------------------------ *)
(* P3: key-choice ablation                                             *)
(* ------------------------------------------------------------------ *)

let p3_report () =
  print_endline "== P3: local key ablation (formal sums vs expanded matrices) ==";
  let b = Tandem.build small_tandem_params in
  let run key =
    let partitions, t =
      Mdl_util.Timer.time (fun () ->
          Array.init (Md.levels b.Tandem.md) (fun i ->
              let level = i + 1 in
              let p_ini =
                Level_lumping.initial_partition Ordinary b.Tandem.md ~level
                  ~rewards:[ b.Tandem.rewards_availability ]
                  ~initial:b.Tandem.initial
              in
              Level_lumping.comp_lumping_level ~key Ordinary b.Tandem.md ~level
                ~initial:p_ini))
    in
    (Array.map Partition.num_classes partitions, t)
  in
  let formal_classes, formal_t = run Local_key.Formal_sums in
  let expanded_classes, expanded_t = run Local_key.Expanded_matrices in
  let show a = String.concat "/" (Array.to_list (Array.map string_of_int a)) in
  Printf.printf "  formal sums:       classes %-12s %.4f s\n" (show formal_classes)
    formal_t;
  Printf.printf "  expanded matrices: classes %-12s %.4f s (%.0fx slower)\n\n"
    (show expanded_classes) expanded_t (expanded_t /. formal_t)

(* ------------------------------------------------------------------ *)
(* P4: exact lumping                                                   *)
(* ------------------------------------------------------------------ *)

let p4_report () =
  print_endline "== P4: exact lumping (replicated workstations) ==";
  List.iter
    (fun stations ->
      let b = Workstations.build (Workstations.default ~stations) in
      let ss = b.Workstations.exploration.Model.statespace in
      let result, t =
        Mdl_util.Timer.time (fun () ->
            Compositional.lump Exact b.Workstations.md
              ~rewards:[ b.Workstations.rewards_operational ]
              ~initial:b.Workstations.initial)
      in
      let lumped_ss = Compositional.lump_statespace result ss in
      Printf.printf "  %d stations: %6d -> %5d states (%.1fx) in %.4f s, closed %b\n"
        stations (Statespace.size ss) (Statespace.size lumped_ss)
        (float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss))
        t
        (Compositional.is_closed result ss))
    [ 3; 5; 7 ];
  print_endline ""

(* ------------------------------------------------------------------ *)
(* sweep: how the reduction scales with the degree of replication      *)
(* ------------------------------------------------------------------ *)

let sweep_report () =
  print_endline "== sweep: reduction factor vs degree of replication ==";
  print_endline "  (workstations: n identical 3-state machines in one level)";
  List.iter
    (fun stations ->
      let b = Workstations.build (Workstations.default ~stations) in
      let ss = b.Workstations.exploration.Model.statespace in
      let result =
        Compositional.lump Ordinary b.Workstations.md
          ~rewards:[ b.Workstations.rewards_operational ]
          ~initial:b.Workstations.initial
      in
      let lumped = Statespace.size (Compositional.lump_statespace result ss) in
      Printf.printf "  n=%d: %7d -> %5d states (%.1fx; level-2 %d -> %d)
" stations
        (Statespace.size ss) lumped
        (float_of_int (Statespace.size ss) /. float_of_int lumped)
        (Partition.size result.Compositional.partitions.(1))
        (Partition.num_classes result.Compositional.partitions.(1)))
    [ 2; 3; 4; 5; 6; 7 ];
  print_endline "  (tandem, small topology: m MSMQ servers over 2 queues)";
  List.iter
    (fun m ->
      let p = { small_tandem_params with Tandem.msmq_servers = m } in
      let b = Tandem.build p in
      let ss = b.Tandem.exploration.Model.statespace in
      let result =
        Compositional.lump Ordinary b.Tandem.md
          ~rewards:[ b.Tandem.rewards_availability ]
          ~initial:b.Tandem.initial
      in
      let lumped = Statespace.size (Compositional.lump_statespace result ss) in
      Printf.printf "  m=%d: %7d -> %5d states (%.1fx)
" m (Statespace.size ss) lumped
        (float_of_int (Statespace.size ss) /. float_of_int lumped))
    [ 1; 2; 3; 4 ];
  print_endline ""

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmark groups                                     *)
(* ------------------------------------------------------------------ *)

let kernel_tests () =
  let b = Tandem.build small_tandem_params in
  let ss = b.Tandem.exploration.Model.statespace in
  let raw_md = Kronecker.to_md b.Tandem.exploration.Model.descriptor in
  let result =
    Compositional.lump Ordinary b.Tandem.md
      ~rewards:[ b.Tandem.rewards_availability ]
      ~initial:b.Tandem.initial
  in
  [
    Test.make ~name:"T1a explore+compile tandem (small)"
      (Staged.stage (fun () -> ignore (Tandem.build small_tandem_params)));
    Test.make ~name:"T1a kronecker->md"
      (Staged.stage (fun () ->
           ignore (Kronecker.to_md b.Tandem.exploration.Model.descriptor)));
    Test.make ~name:"T1a merge_terms compaction"
      (Staged.stage (fun () -> ignore (Mdl_md.Compact.merge_terms raw_md)));
    Test.make ~name:"T1c compositional lump (small tandem)"
      (Staged.stage (fun () ->
           ignore
             (Compositional.lump Ordinary b.Tandem.md
                ~rewards:[ b.Tandem.rewards_availability ]
                ~initial:b.Tandem.initial)));
    Test.make ~name:"T1b lumped statespace projection"
      (Staged.stage (fun () -> ignore (Compositional.lump_statespace result ss)));
  ]

let p5_tests () =
  (* Workstations n=4: the reachable space is the full product space, so
     the Kronecker shuffle product, the MD co-walk product and the flat
     CSR product all compute the same vector. *)
  let b = Workstations.build (Workstations.default ~stations:4) in
  let exp = b.Workstations.exploration in
  let ss = exp.Model.statespace in
  let k = exp.Model.descriptor in
  let n = Statespace.size ss in
  assert (n = Kronecker.potential_size k);
  let flat = Md_vector.to_csr b.Workstations.md ss in
  let mdd = Mdl_md.Mdd.of_statespace ss in
  let x = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  [
    Test.make ~name:"P5 x*R kronecker shuffle"
      (Staged.stage (fun () -> ignore (Kronecker.vec_mul k x)));
    Test.make ~name:"P5 x*R md walk, mdd offsets"
      (Staged.stage (fun () -> ignore (Md_vector.vec_mul_mdd b.Workstations.md mdd x)));
    Test.make ~name:"P5 x*R flat csr"
      (Staged.stage (fun () -> ignore (Mdl_sparse.Csr.vec_mul x flat)));
  ]

let ssg_tests () =
  (* explicit BFS vs symbolic saturation reachability, same model *)
  let m = Tandem.model small_tandem_params in
  [
    Test.make ~name:"SSG explicit BFS (small tandem)"
      (Staged.stage (fun () -> ignore (Model.explore m)));
    Test.make ~name:"SSG symbolic saturation (small tandem)"
      (Staged.stage (fun () -> ignore (Model.explore_symbolic m)));
  ]

let baseline_tests () =
  (* State-level lumping [9] on the flat matrix vs compositional lumping
     on the MD, same model. *)
  let b = Workstations.build (Workstations.default ~stations:5) in
  let ss = b.Workstations.exploration.Model.statespace in
  let flat = Md_vector.to_csr b.Workstations.md ss in
  let rewards_vec = Decomposed.to_vector b.Workstations.rewards_operational ss in
  [
    Test.make ~name:"baseline state-level lumping [9] (flat)"
      (Staged.stage (fun () ->
           let initial =
             Partition.group_by (Statespace.size ss)
               (fun s -> Mdl_util.Floatx.quantize rewards_vec.(s))
               Float.compare
           in
           ignore (State_lumping.coarsest Ordinary flat ~initial)));
    Test.make ~name:"baseline compositional lumping (MD)"
      (Staged.stage (fun () ->
           ignore
             (Compositional.lump Ordinary b.Workstations.md
                ~rewards:[ b.Workstations.rewards_operational ]
                ~initial:b.Workstations.initial)));
  ]

(* ------------------------------------------------------------------ *)

let () =
  print_endline "matrix-diagram lumping benchmark harness";
  print_endline "(experiment ids refer to DESIGN.md section 5)";
  print_endline "";
  let rows = List.map t1_run (jobs_list ()) in
  t1_report rows;
  p1_report (List.hd rows);
  List.iter p2_report rows;
  p3_report ();
  p4_report ();
  sweep_report ();
  run_group "kernels" (kernel_tests ());
  run_group "P5-representations" (p5_tests ());
  run_group "SSG-generation" (ssg_tests ());
  run_group "baseline-lumping" (baseline_tests ());
  print_endline "\nbench done."
