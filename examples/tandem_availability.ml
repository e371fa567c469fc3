(* Dependability analysis of the paper's tandem multi-processor system
   (Section 5): steady-state availability of the hypercube subsystem
   ("unavailable when two or more servers are down"), computed on the
   compositionally lumped matrix diagram.

   Run with: dune exec examples/tandem_availability.exe [-- J]
   (default J = 1; J = 2 takes ~30 s because of exploration). *)

module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module Tandem = Mdl_models.Tandem

let () =
  let jobs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  Printf.printf "tandem system, J = %d jobs\n%!" jobs;

  let b, gen_time = Mdl_util.Timer.time (fun () -> Tandem.build (Tandem.default ~jobs)) in
  let ss = b.Tandem.exploration.Model.statespace in
  let counts, _ = Md.stats b.Tandem.md in
  Printf.printf "state space: %d states; MD nodes per level: %s; generation %.2f s\n%!"
    (Statespace.size ss)
    (String.concat " " (Array.to_list (Array.map string_of_int counts)))
    gen_time;

  (* Both measures are protected: every reward listed here stays
     computable on the lumped chain. *)
  let result, lump_time =
    Mdl_util.Timer.time (fun () ->
        Compositional.lump Ordinary b.Tandem.md
          ~rewards:[ b.Tandem.rewards_availability; b.Tandem.rewards_msmq_jobs ]
          ~initial:b.Tandem.initial)
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  Printf.printf "lumped: %d states (%.1fx reduction); lump time %.3f s\n%!"
    (Statespace.size lumped_ss)
    (float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss))
    lump_time;
  if not (Compositional.is_closed result ss lumped_ss) then begin
    prerr_endline "reachable set not closed under the equivalence - refusing to solve";
    exit 1
  end;

  let (pi, stats), solve_time =
    Mdl_util.Timer.time (fun () ->
        Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000 result.Compositional.lumped
          lumped_ss)
  in
  Printf.printf "lumped solve: %d iterations, %.2f s (converged: %b)\n%!"
    stats.Solver.iterations solve_time stats.Solver.converged;

  let availability =
    Solver.expected_reward pi
      (Decomposed.to_vector
         (Compositional.lumped_rewards result b.Tandem.rewards_availability)
         lumped_ss)
  in
  Printf.printf "steady-state availability (fewer than 2 hypercube servers down): %.8f\n"
    availability;

  let msmq_jobs =
    Solver.expected_reward pi
      (Decomposed.to_vector
         (Compositional.lumped_rewards result b.Tandem.rewards_msmq_jobs)
         lumped_ss)
  in
  Printf.printf "expected jobs in MSMQ queues: %.6f\n" msmq_jobs
