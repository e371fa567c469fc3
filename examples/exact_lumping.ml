(* Exact lumping (Theorem 4) on the replicated-workstation cluster:
   starting from a class-uniform initial distribution, the transient
   distribution of the original chain is recovered from the lumped
   chain by spreading each class's probability uniformly over its
   members ("lift").

   Run with: dune exec examples/exact_lumping.exe [-- stations] *)

module Model = Mdl_san.Model
module Vec = Mdl_sparse.Vec
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module Workstations = Mdl_models.Workstations

let () =
  let stations = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let b = Workstations.build (Workstations.default ~stations) in
  let ss = b.Workstations.exploration.Model.statespace in
  Printf.printf "workstation cluster: %d stations, %d reachable states\n%!" stations
    (Statespace.size ss);

  (* Exact lumping keyed on the (decomposable) initial distribution:
     all stations up, full store - a state fixed by every permutation,
     so its class is a singleton and the distribution is class-uniform. *)
  let result =
    Compositional.lump Exact b.Workstations.md
      ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  Printf.printf "exact lumping: %d -> %d states\n%!" (Statespace.size ss)
    (Statespace.size lumped_ss);
  assert (Compositional.is_closed result ss lumped_ss);

  (* Transient analysis on both chains. *)
  let t_horizon = 0.8 in
  let ctmc_flat = Md_solve.ctmc_of b.Workstations.md ss in
  let ctmc_lumped = Md_solve.ctmc_of result.Compositional.lumped lumped_ss in
  let pi0_flat = Decomposed.to_vector b.Workstations.initial ss in
  let pi0_lumped = Compositional.aggregate_vector result ss lumped_ss pi0_flat in
  let pi_t_flat = Solver.transient ~t:t_horizon ctmc_flat pi0_flat in
  let pi_t_lumped = Solver.transient ~t:t_horizon ctmc_lumped pi0_lumped in

  (* Lift: each lumped state's probability divided uniformly over the
     members of its class - exactness makes this the true transient
     distribution of the full chain. *)
  let counts = Array.make (Statespace.size lumped_ss) 0 in
  Statespace.iter
    (fun _ s ->
      match Statespace.index lumped_ss (Compositional.class_tuple result s) with
      | Some c -> counts.(c) <- counts.(c) + 1
      | None -> assert false)
    ss;
  let lifted =
    Array.init (Statespace.size ss) (fun i ->
        match
          Statespace.index lumped_ss
            (Compositional.class_tuple result (Statespace.tuple ss i))
        with
        | Some c -> pi_t_lumped.(c) /. float_of_int counts.(c)
        | None -> assert false)
  in
  let err = Vec.diff_inf lifted pi_t_flat in
  Printf.printf "t = %.2f: max |lifted - true| = %.2e\n" t_horizon err;
  assert (err < 1e-9);

  (* The operational-stations measure agrees too. *)
  let r_flat =
    Solver.expected_reward pi_t_flat
      (Decomposed.to_vector b.Workstations.rewards_operational ss)
  in
  let r_lift =
    Solver.expected_reward lifted
      (Decomposed.to_vector b.Workstations.rewards_operational ss)
  in
  Printf.printf "expected operational stations at t: flat %.9f, via lump %.9f\n" r_flat
    r_lift;
  assert (Float.abs (r_flat -. r_lift) < 1e-9);
  print_endline "exact_lumping OK"
