(* Mean time to failure of the workstation cluster, computed on the
   compositionally lumped chain.

   With restocking disabled, "all stations down and no spares left" is
   absorbing: MTTF is the expected time to reach it.  Expected hitting
   times of a class-closed target are class-constant under ordinary
   lumping, so the MTTF computed on the ~10x smaller lumped chain equals
   the MTTF of the full chain — which we verify.

   Run with: dune exec examples/mttf.exe [-- stations] *)

module Model = Mdl_san.Model
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Ctmc = Mdl_ctmc.Ctmc
module Absorption = Mdl_ctmc.Absorption
module Workstations = Mdl_models.Workstations

let () =
  let stations = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5 in
  let p = { (Workstations.default ~stations) with Workstations.restock = 0.0 } in
  let b = Workstations.build p in
  let ss = b.Workstations.exploration.Model.statespace in
  Printf.printf "cluster of %d stations, %d spares, no restocking: %d states\n%!"
    stations p.Workstations.spares (Statespace.size ss);

  let result =
    Compositional.lump Ordinary b.Workstations.md
      ~rewards:[ b.Workstations.rewards_operational ]
      ~initial:b.Workstations.initial
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  assert (Compositional.is_closed result ss lumped_ss);
  Printf.printf "lumped: %d states (%.1fx)\n%!" (Statespace.size lumped_ss)
    (float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss));

  (* The failure state is absorbing, i.e. has exit rate zero — a purely
     structural predicate that survives lumping. *)
  let mttf_of md space =
    let ctmc = Md_solve.ctmc_of md space in
    let absorbing i = Ctmc.exit_rate ctmc i = 0.0 in
    let t, stats = Absorption.mean_time_to_absorption ~tol:1e-12 ctmc ~absorbing in
    (t, stats)
  in
  let t_full, _ = mttf_of b.Workstations.md ss in
  let t_lumped, stats = mttf_of result.Compositional.lumped lumped_ss in
  Printf.printf "absorption solve on the lumped chain: %d sweeps\n" stats.Mdl_ctmc.Solver.iterations;

  (* MTTF from the initial state, both ways. *)
  let init_full =
    match Statespace.index ss b.Workstations.exploration.Model.initial_tuple with
    | Some i -> i
    | None -> assert false
  in
  let init_lumped =
    match
      Statespace.index lumped_ss
        (Compositional.class_tuple result b.Workstations.exploration.Model.initial_tuple)
    with
    | Some i -> i
    | None -> assert false
  in
  Printf.printf "MTTF (full chain):   %.9f\n" t_full.(init_full);
  Printf.printf "MTTF (lumped chain): %.9f\n" t_lumped.(init_lumped);
  assert (Float.abs (t_full.(init_full) -. t_lumped.(init_lumped)) < 1e-7);

  (* And indeed hitting times are class-constant on the full chain. *)
  let ok = ref true in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (Compositional.class_tuple result s) with
      | Some c -> if Float.abs (t_full.(i) -. t_lumped.(c)) > 1e-7 then ok := false
      | None -> ok := false)
    ss;
  Printf.printf "hitting times class-constant: %b\n" !ok;
  assert !ok;
  print_endline "mttf OK"
