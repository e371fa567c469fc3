(* Sensitivity analysis over the reward specification: how the lumped
   size and the steady-state measures of the tandem system respond as
   the protected measure set resolves one level's state ever more
   finely.

   Every point lumps the SAME matrix diagram under a different reward
   family — the paper's headline workflow (Section 6): a parameter
   study re-lumps and re-solves many times, and most levels see the
   same initial partition at nearby points.  The sweep engine
   ([Compositional.sweep_create], then one [sweep_point] per point)
   batches the whole study through memos that survive across points
   (the per-level fixed-point memo and the rebuild memo),
   bit-identical to an independent [Compositional.lump] per point but
   several times faster once warm.

   Run with: dune exec examples/sensitivity.exe [-- J] *)

module Model = Mdl_san.Model
module Statespace = Mdl_md.Statespace
module Md = Mdl_md.Md
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module Tandem = Mdl_models.Tandem

let () =
  let jobs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let b = Tandem.build (Tandem.default ~jobs) in
  let md = b.Tandem.md in
  let ss = b.Tandem.exploration.Model.statespace in
  let sizes = Md.sizes md in
  (* Threshold indicators [s_level >= k] on the largest level, at cut
     points spread across its range: protecting the indicator keeps
     P[s_level >= k] computable on the lumped chain, at the price of a
     finer (larger) quotient the closer k cuts through symmetric
     states. *)
  let level =
    let li = ref 0 in
    Array.iteri (fun i n -> if n > sizes.(!li) then li := i) sizes;
    !li + 1
  in
  let size = sizes.(level - 1) in
  let ks =
    List.sort_uniq compare
      (List.filter_map
         (fun i ->
           let k = i * size / 8 in
           if k >= 1 && k < size then Some k else None)
         [ 1; 2; 3; 4; 5; 6; 7 ])
  in
  let indicator k =
    Decomposed.of_level ~sizes ~level (fun s -> if s >= k then 1.0 else 0.0)
  in
  let base = [ b.Tandem.rewards_availability ] in
  let specs = base :: List.map (fun k -> indicator k :: base) ks in
  let npoints = List.length specs in
  Printf.printf "tandem (J=%d), %d states, sweeping %d reward specifications\n" jobs
    (Statespace.size ss) npoints;
  (* The batched sweep, timed as a whole; then one independent lump of
     the first point as the cold-start reference every point would pay
     without the shared engine. *)
  let results, sweep_s =
    Mdl_util.Timer.time (fun () ->
        let sw = Compositional.sweep_create Mdl_lumping.State_lumping.Ordinary md in
        List.map
          (fun rewards -> Compositional.sweep_point sw ~rewards ~initial:b.Tandem.initial)
          specs)
  in
  let _, cold_s =
    Mdl_util.Timer.time (fun () ->
        Compositional.lump Mdl_lumping.State_lumping.Ordinary md ~rewards:base
          ~initial:b.Tandem.initial)
  in
  let labels =
    "base" :: List.map (fun k -> Printf.sprintf "s%d >= %d" level k) ks
  in
  Printf.printf "%-14s %-10s %-14s %-14s %s\n" "point" "lumped" "P[s>=k]"
    "availability" "solve";
  List.iter2
    (fun (label, rewards) r ->
      let lumped_ss = Compositional.lump_statespace r ss in
      assert (Compositional.is_closed r ss lumped_ss);
      let (pi, stats), solve_s =
        Mdl_util.Timer.time (fun () ->
            Md_solve.steady_state ~tol:1e-11 ~max_iter:500_000
              r.Compositional.lumped lumped_ss)
      in
      let measure d =
        Solver.expected_reward pi
          (Decomposed.to_vector (Compositional.lumped_rewards r d) lumped_ss)
      in
      let tail =
        match rewards with
        | [ ind; _ ] -> Printf.sprintf "%.8f" (measure ind)
        | _ -> "-"
      in
      Printf.printf "%-14s %-10d %-14s %-14.8f %.2f s (%d it)\n" label
        (Statespace.size lumped_ss) tail
        (measure b.Tandem.rewards_availability)
        solve_s stats.Solver.iterations)
    (List.combine labels specs) results;
  let amortised = (sweep_s -. cold_s) /. float_of_int (max 1 (npoints - 1)) in
  Printf.printf
    "independent lump (cold): %.4fs per point; batched sweep: %.4fs total, amortised \
     %.4fs per warm point (%.1fx vs cold)\n"
    cold_s sweep_s amortised (cold_s /. amortised)
