(* Throughput analysis of the MSMQ polling station (the paper's
   reference [14], the first half of the tandem system), demonstrating
   that ordinary compositional lumping preserves performance measures
   while shrinking the chain the solver sees.

   Run with: dune exec examples/polling_throughput.exe [-- customers] *)

module Model = Mdl_san.Model
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module Polling = Mdl_models.Polling

let () =
  let customers = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let p = Polling.default ~customers in
  Printf.printf "MSMQ polling station: %d customers, %d servers, %d queues\n%!" customers
    p.Polling.servers p.Polling.queues;
  let b = Polling.build p in
  let ss = b.Polling.exploration.Model.statespace in

  let result =
    Compositional.lump Ordinary b.Polling.md
      ~rewards:[ b.Polling.rewards_busy_servers; b.Polling.rewards_queued_jobs ]
      ~initial:b.Polling.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  Printf.printf "states: %d -> %d (%.1fx)\n%!" (Statespace.size ss)
    (Statespace.size lumped_ss)
    (float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss));
  assert (Compositional.is_closed result ss lumped_ss);

  (* Solve both and compare: the lumped solution must give the same
     measures with fewer unknowns. *)
  let pi_flat, st_flat = Md_solve.steady_state ~tol:1e-12 b.Polling.md ss in
  let pi_lump, st_lump =
    Md_solve.steady_state ~tol:1e-12 result.Compositional.lumped lumped_ss
  in
  Printf.printf "solver iterations: flat %d, lumped %d\n" st_flat.Solver.iterations
    st_lump.Solver.iterations;

  let measure name reward =
    let flat = Solver.expected_reward pi_flat (Decomposed.to_vector reward ss) in
    let lumped =
      Solver.expected_reward pi_lump
        (Decomposed.to_vector (Compositional.lumped_rewards result reward) lumped_ss)
    in
    Printf.printf "%-28s flat %.9f   lumped %.9f\n" name flat lumped;
    assert (Float.abs (flat -. lumped) < 1e-8)
  in
  measure "mean busy servers" b.Polling.rewards_busy_servers;
  measure "mean queued jobs" b.Polling.rewards_queued_jobs;
  let busy_flat = Solver.expected_reward pi_flat (Decomposed.to_vector b.Polling.rewards_busy_servers ss) in
  Printf.printf "throughput (service rate x busy servers): %.6f jobs/s\n"
    (p.Polling.service *. busy_flat);
  print_endline "polling_throughput OK"
