(* Transient availability of the tandem system's hypercube subsystem,
   computed entirely on the compositionally lumped matrix diagram: the
   probability that fewer than two servers are down, as a function of
   time, starting from the all-up initial state.

   This is the kind of dependability curve the paper's introduction
   motivates: the full chain at J=1 has ~40k states, the lumped chain
   under 1k, and by Theorem 3 the curve is identical.

   Run with: dune exec examples/transient_availability.exe [-- J] *)

module Model = Mdl_san.Model
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module Tandem = Mdl_models.Tandem

let () =
  let jobs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let b = Tandem.build (Tandem.default ~jobs) in
  let ss = b.Tandem.exploration.Model.statespace in
  let result =
    Compositional.lump Ordinary b.Tandem.md
      ~rewards:[ b.Tandem.rewards_availability ]
      ~initial:b.Tandem.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  assert (Compositional.is_closed result ss lumped_ss);
  Printf.printf "tandem J=%d: %d states lumped to %d\n" jobs (Statespace.size ss)
    (Statespace.size lumped_ss);

  let pi0 =
    Compositional.aggregate_vector result ss lumped_ss
      (Decomposed.to_vector b.Tandem.initial ss)
  in
  let avail_reward =
    Decomposed.to_vector
      (Compositional.lumped_rewards result b.Tandem.rewards_availability)
      lumped_ss
  in
  Printf.printf "%8s  %s\n" "t" "availability";
  List.iter
    (fun t ->
      let pi_t = Md_solve.transient ~t result.Compositional.lumped lumped_ss pi0 in
      Printf.printf "%8.2f  %.8f\n" t (Solver.expected_reward pi_t avail_reward))
    [ 0.0; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0 ];

  (* Cross-check the tail of the curve against the stationary value. *)
  let pi_inf, _ =
    Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000 result.Compositional.lumped
      lumped_ss
  in
  Printf.printf "%8s  %.8f (steady state)\n" "inf"
    (Solver.expected_reward pi_inf avail_reward)
