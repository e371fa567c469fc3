(* Regenerates Table 1 of the paper: specifications of the MD
   representation of the tandem system's CTMC, before and after
   compositional lumping, for a list of J values.

   Usage: dune exec bin/table1.exe [-- J1 J2 ...]        (default: 1 2)
          --trace FILE      record the lump pipeline's spans and write
                            Chrome trace-event JSON to FILE
          --check-optimal   also run the Section-5 optimality check
                            (flat state-level lumping of the lumped
                            chain; only when small enough to flatten)
          --validate        solve both the full and the lumped chain and
                            confirm the availability measure and the
                            aggregated stationary distribution agree
                            (Theorems 2/3 as a runnable artifact) *)

module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Tandem = Mdl_models.Tandem

type row = {
  jobs : int;
  overall : int;
  level_sizes : int array;
  node_counts : int array;
  lumped_overall : int;
  lumped_level_sizes : int array;
  gen_time : float;
  lump_time : float;
  md_bytes : int;
  lumped_md_bytes : int;
  closed : bool;
}

let run_one jobs =
  let b, gen_time = Mdl_util.Timer.time (fun () -> Tandem.build (Tandem.default ~jobs)) in
  let ss = b.Tandem.exploration.Model.statespace in
  let node_counts, _ = Md.stats b.Tandem.md in
  let result, lump_time =
    Mdl_util.Timer.time (fun () ->
        Compositional.lump Ordinary b.Tandem.md
          ~rewards:[ b.Tandem.rewards_availability ]
          ~initial:b.Tandem.initial)
  in
  let lumped_ss = Compositional.lump_statespace result ss in
  ( {
      jobs;
      overall = Statespace.size ss;
      level_sizes = Md.sizes b.Tandem.md;
      node_counts;
      lumped_overall = Statespace.size lumped_ss;
      lumped_level_sizes = Array.map Partition.num_classes result.Compositional.partitions;
      gen_time;
      lump_time;
      md_bytes = Md.memory_bytes b.Tandem.md;
      lumped_md_bytes = Md.memory_bytes result.Compositional.lumped;
      closed = Compositional.is_closed result ss lumped_ss;
    },
    b,
    result )

let check_optimal b result =
  (* Feed the compositionally lumped chain through the flat state-level
     algorithm [9]; report how much further reduction is possible. *)
  let ss = b.Tandem.exploration.Model.statespace in
  let lumped_ss = Compositional.lump_statespace result ss in
  let n = Statespace.size lumped_ss in
  match
    Md_solve.check_optimal Ordinary result lumped_ss
      ~rewards:[ b.Tandem.rewards_availability ]
  with
  | None -> Printf.printf "  (optimality check skipped: %d states)\n" n
  | Some classes ->
      Printf.printf "  state-level lumping of the lumped chain: %d -> %d classes%s\n" n
        classes
        (if classes = n then " (compositional result is optimal)" else "")

let validate b result =
  let ss = b.Tandem.exploration.Model.statespace in
  let lumped_ss = Compositional.lump_statespace result ss in
  if Statespace.size ss > 100_000 then
    Printf.printf "  (validation skipped: %d states)\n" (Statespace.size ss)
  else begin
    let pi, st1 = Md_solve.solve Power b.Tandem.md ss in
    let pi_l, st2 = Md_solve.solve Power result.Compositional.lumped lumped_ss in
    let agg = Compositional.aggregate_vector result ss lumped_ss pi in
    let diff = Mdl_sparse.Vec.diff_inf agg pi_l in
    let measure pi ss reward =
      Mdl_ctmc.Solver.expected_reward pi (Decomposed.to_vector reward ss)
    in
    let a_full = measure pi ss b.Tandem.rewards_availability in
    let a_lumped =
      measure pi_l lumped_ss (Compositional.lumped_rewards result b.Tandem.rewards_availability)
    in
    Printf.printf
      "  validation: availability full %.9f vs lumped %.9f; max |agg(pi) - pi~| = %.2e \
       (converged %b/%b)\n"
      a_full a_lumped diff st1.Mdl_ctmc.Solver.converged st2.Mdl_ctmc.Solver.converged
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let check = List.mem "--check-optimal" args in
  let do_validate = List.mem "--validate" args in
  (* Manual parsing, like the rest of this driver: --trace FILE consumes
     the next argument; everything else that parses as an int is a J. *)
  let trace_file = ref None in
  let rec strip_trace = function
    | "--trace" :: path :: rest ->
        trace_file := Some path;
        strip_trace rest
    | a :: rest -> a :: strip_trace rest
    | [] -> []
  in
  let args = strip_trace args in
  Mdl_obs.Logging.setup ();
  if Option.is_some !trace_file then Mdl_obs.Trace.start ();
  let jobs_list =
    match List.filter_map int_of_string_opt args with [] -> [ 1; 2 ] | l -> l
  in
  let rows = List.map run_one jobs_list in
  Option.iter
    (fun path ->
      Mdl_obs.Trace.stop ();
      Mdl_obs.Trace.write_file path;
      Printf.printf "Chrome trace (%d spans) written to %s\n\n"
        (Mdl_obs.Trace.span_count ()) path)
    !trace_file;

  print_endline "Table 1: MD representation of the tandem system's CTMC";
  print_endline "";
  print_endline "  unlumped state-space sizes                # of MD nodes";
  print_endline "  J  overall      S1     S2     S3          N1  N2  N3";
  List.iter
    (fun (r, _, _) ->
      Printf.printf "  %d  %-10d %-6d %-6d %-6d      %3d %3d %3d\n" r.jobs r.overall
        r.level_sizes.(0) r.level_sizes.(1) r.level_sizes.(2) r.node_counts.(0)
        r.node_counts.(1) r.node_counts.(2))
    rows;
  print_endline "";
  print_endline "  lumped state-space sizes                  reduction in SS";
  print_endline "  J  overall     S1     S2     S3           overall   l1    l2    l3";
  List.iter
    (fun (r, _, _) ->
      let red a b = float_of_int a /. float_of_int b in
      Printf.printf "  %d  %-10d %-6d %-6d %-6d       %6.1f  %5.1f %5.1f %5.1f\n" r.jobs
        r.lumped_overall r.lumped_level_sizes.(0) r.lumped_level_sizes.(1)
        r.lumped_level_sizes.(2)
        (red r.overall r.lumped_overall)
        (red r.level_sizes.(0) r.lumped_level_sizes.(0))
        (red r.level_sizes.(1) r.lumped_level_sizes.(1))
        (red r.level_sizes.(2) r.lumped_level_sizes.(2)))
    rows;
  print_endline "";
  print_endline "  unlumped SS                 lumped SS";
  print_endline "  J  gen time   MD space      lump time  MD space";
  List.iter
    (fun (r, _, _) ->
      Printf.printf "  %d  %7.2f s  %8.1f KB   %7.3f s  %7.1f KB\n" r.jobs r.gen_time
        (float_of_int r.md_bytes /. 1024.0)
        r.lump_time
        (float_of_int r.lumped_md_bytes /. 1024.0))
    rows;
  print_endline "";
  List.iter
    (fun (r, b, result) ->
      if not r.closed then
        Printf.printf "  WARNING: J=%d reachable set not class-closed\n" r.jobs;
      if check || do_validate then Printf.printf "  J=%d:\n" r.jobs;
      if check then check_optimal b result;
      if do_validate then validate b result)
    rows
