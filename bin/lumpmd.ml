(* lumpmd: build a model, represent its CTMC as a matrix diagram, lump
   it compositionally, and optionally solve and report measures.

   Examples:
     dune exec bin/lumpmd.exe -- tandem --jobs 1 --solve
     dune exec bin/lumpmd.exe -- workstations --stations 5 --mode exact
     dune exec bin/lumpmd.exe -- polling --customers 4 --check-optimal
     dune exec bin/lumpmd.exe -- tandem --dot /tmp/tandem.dot *)

module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module State_lumping = Mdl_lumping.State_lumping
module Local_key = Mdl_core.Local_key
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Family = Mdl_models.Family

(* Per-phase rollup of the trace buffer: inclusive seconds and Gc
   allocation per span name, in first-seen order.  Nested spans each
   count their full extent, so [lump] is not the sum of its children. *)
let print_phase_breakdown () =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth:_ ~args ->
      let arg k =
        match List.assoc_opt k args with
        | Some (Trace.Float f) -> f
        | Some (Trace.Int i) -> float_of_int i
        | _ -> 0.0
      in
      let c, s, mi, ma =
        match Hashtbl.find_opt tbl name with
        | Some x -> x
        | None ->
            order := name :: !order;
            (0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace tbl name
        ( c + 1,
          s +. (Int64.to_float dur_ns /. 1e9),
          mi +. arg "gc.minor_words",
          ma +. arg "gc.major_words" ));
  if !order <> [] then begin
    Printf.printf "per-phase breakdown (inclusive):\n";
    Printf.printf "  %-24s %8s %12s %14s %14s\n" "span" "count" "seconds"
      "minor words" "major words";
    List.iter
      (fun name ->
        let c, s, mi, ma = Hashtbl.find tbl name in
        Printf.printf "  %-24s %8d %12.6f %14.0f %14.0f\n" name c s mi ma)
      (List.rev !order)
  end

(* Called once, before the model is built, so that generation's spans
   (san.saturate, san.finalize, san.md_of) are in the trace too. *)
let setup_tracing trace_file stream_trace show_metrics show_stats =
  (* --stream-trace emits events as spans close (bounded memory);
     --trace and --metrics buffer — the latter so the Gc words per
     phase can be aggregated from the span arguments afterwards. *)
  (match stream_trace with
  | Some path -> Trace.stream_to_file path
  | None -> if Option.is_some trace_file || show_metrics then Trace.start ());
  if show_stats || show_metrics then Metrics.set_enabled true

let finish_tracing trace_file stream_trace show_metrics print_phases =
  if Option.is_some trace_file || Option.is_some stream_trace || show_metrics then begin
    let streamed = Trace.streamed_count () in
    Trace.stop ();
    (match stream_trace with
    | Some path -> Printf.printf "Chrome trace (%d spans) streamed to %s\n" streamed path
    | None ->
        Option.iter
          (fun path ->
            Trace.write_file path;
            Printf.printf "Chrome trace (%d spans) written to %s\n" (Trace.span_count ())
              path)
          trace_file);
    if show_metrics then begin
      Format.printf "%a@?" Metrics.pp ();
      print_phases ()
    end
  end

let run label (inst : Family.built) mode key solve solver check_optimal dot_file export_file
    merge_level show_stats trace_file stream_trace show_metrics domains =
  Printf.printf "model: %s\n" label;
  (* Optional level merging before lumping (exposes cross-level
     symmetries at the price of a bigger level; reward measures are not
     carried across the merge, so lumping then protects none). *)
  let inst =
    match merge_level with
    | None -> inst
    | Some l ->
        let md = Mdl_md.Restructure.merge_adjacent inst.md l in
        let statespace =
          Statespace.merge_levels inst.statespace l ~width:(Md.size inst.md (l + 1))
        in
        Printf.printf "merged levels %d and %d (measures not carried across the merge)\n"
          l (l + 1);
        {
          Family.md;
          statespace;
          rewards = [];
          initial = Decomposed.constant ~sizes:(Mdl_md.Md.sizes md) 1.0;
        }
  in
  let ss = inst.statespace in
  let counts, entries = Md.stats inst.md in
  Printf.printf "reachable states: %d\n" (Statespace.size ss);
  Printf.printf "MD: levels %s; nodes %s; entries %s; %.1f KB\n"
    (String.concat "/" (Array.to_list (Array.map string_of_int (Md.sizes inst.md))))
    (String.concat "/" (Array.to_list (Array.map string_of_int counts)))
    (String.concat "/" (Array.to_list (Array.map string_of_int entries)))
    (float_of_int (Md.memory_bytes inst.md) /. 1024.0);
  let pool =
    if domains > 1 then Some (Mdl_util.Domain_pool.create ~domains) else None
  in
  if domains > 1 then Printf.printf "domains: %d\n" domains;
  let result, lump_time =
    Mdl_util.Timer.time (fun () ->
        let rewards =
          match inst.rewards with
          | [] -> [ Decomposed.constant ~sizes:(Mdl_md.Md.sizes inst.md) 1.0 ]
          | l -> List.map snd l
        in
        Compositional.lump ~key ?pool mode inst.md ~rewards ~initial:inst.initial)
  in
  Array.iteri
    (fun i p ->
      Printf.printf "level %d: %d -> %d\n" (i + 1) (Partition.size p)
        (Partition.num_classes p))
    result.Compositional.partitions;
  let lumped_ss = Compositional.lump_statespace result ss in
  Printf.printf "lumped states: %d (%.1fx) in %.3f s; lumped MD %.1f KB\n"
    (Statespace.size lumped_ss)
    (float_of_int (Statespace.size ss) /. float_of_int (Statespace.size lumped_ss))
    lump_time
    (float_of_int (Md.memory_bytes result.Compositional.lumped) /. 1024.0);
  if show_stats then begin
    let c = Metrics.counter_value in
    Printf.printf
      "refiner stats: %d splitter passes, %d key evaluations, %d splits, %d blocks \
       created, %d largest-block skips, %.4f s refinement\n"
      (c "refiner.splitter_passes") (c "refiner.key_evals") (c "refiner.splits")
      (c "refiner.blocks_created") (c "refiner.largest_skips")
      (snd (Metrics.histogram_stats "refiner.run_seconds"));
    Printf.printf "rebuild: %d nodes rebuilt, %d reused verbatim\n"
      (c "rebuild.nodes_rebuilt") (c "rebuild.nodes_reused")
  end;
  let closed = Compositional.is_closed result ss lumped_ss in
  if not closed then print_endline "WARNING: reachable set not class-closed";
  Option.iter
    (fun path ->
      Mdl_md.Dot.write_file result.Compositional.lumped path;
      Printf.printf "lumped MD written to %s\n" path)
    dot_file;
  Option.iter
    (fun path ->
      let flat =
        Mdl_md.Md_vector.(to_csr (create result.Compositional.lumped lumped_ss))
      in
      Mdl_sparse.Matrix_market.write_file flat path;
      Printf.printf "lumped rate matrix (%dx%d, %d nnz) written to %s\n"
        (Mdl_sparse.Csr.rows flat) (Mdl_sparse.Csr.cols flat) (Mdl_sparse.Csr.nnz flat)
        path)
    export_file;
  if solve && closed then begin
    match mode with
    | State_lumping.Ordinary ->
        let (pi, stats), solve_time =
          Mdl_util.Timer.time (fun () ->
              Md_solve.solve solver result.Compositional.lumped lumped_ss)
        in
        Printf.printf "steady state (%s): %d iterations, %.2f s%s\n"
          (Solver.method_name solver) stats.Solver.iterations solve_time
          (if stats.Solver.converged then "" else " (NOT converged)");
        if show_stats then
          Printf.printf "solver stats: %d iterations, residual %.3e, converged %b\n"
            stats.Solver.iterations stats.Solver.residual stats.Solver.converged;
        List.iter
          (fun (name, v) -> Printf.printf "measure %-16s = %.9f\n" name v)
          (Md_solve.measures result lumped_ss pi inst.rewards)
    | State_lumping.Exact ->
        print_endline "(--solve reports steady-state measures for ordinary mode only)"
  end;
  if check_optimal then begin
    let n = Statespace.size lumped_ss in
    let rewards = List.map snd inst.rewards in
    match Md_solve.check_optimal mode result lumped_ss ~rewards with
    | None -> Printf.printf "optimality check skipped (%d states)\n" n
    | Some classes ->
        Printf.printf "state-level lumping of the lumped chain: %d -> %d classes%s\n" n
          classes
          (if classes = n then " (compositional result is optimal)" else "")
  end;
  finish_tracing trace_file stream_trace show_metrics print_phase_breakdown;
  Option.iter Mdl_util.Domain_pool.shutdown pool

(* ---- batched reward sweeps ---- *)

(* A sweep point's label: its extra indicators, as printed per point. *)
let point_label = function
  | [] -> "base rewards"
  | thresholds ->
      "+ "
      ^ String.concat " "
          (List.map
             (fun { Family.level; ge; k } ->
               Printf.sprintf "[s%d %s %d]" level (if ge then ">=" else "<") k)
             thresholds)

(* The sweep runs the catalogue's sweep study, the family bench/refine
   races, so the amortisation printed here is the one BENCH_refine.json
   gates. *)
let run_sweep label (inst : Family.built) points solve solver show_stats trace_file
    stream_trace show_metrics domains =
  Printf.printf "model: %s\n" label;
  let ss = inst.statespace in
  Printf.printf "reachable states: %d; sweep of %d points\n" (Statespace.size ss) points;
  let pool =
    if domains > 1 then Some (Mdl_util.Domain_pool.create ~domains) else None
  in
  if domains > 1 then Printf.printf "domains: %d\n" domains;
  let sw = Compositional.sweep_create ?pool State_lumping.Ordinary inst.md in
  let times = Array.make (max points 1) 0.0 in
  List.iteri
    (fun i thresholds ->
      let before = Compositional.sweep_stats sw in
      let r, s =
        Mdl_util.Timer.time (fun () ->
            Compositional.sweep_point sw ~rewards:(Family.point_rewards inst thresholds)
              ~initial:inst.initial)
      in
      times.(i) <- s;
      let after = Compositional.sweep_stats sw in
      let lumped_ss = Compositional.lump_statespace r ss in
      Printf.printf
        "point %2d  %-28s %8.4fs  %6d lumped  levels %d run / %d reused  rebuild %s\n"
        i (point_label thresholds) s
        (Statespace.size lumped_ss)
        (after.Compositional.level_fixpoints - before.Compositional.level_fixpoints)
        (after.Compositional.level_reused - before.Compositional.level_reused)
        (if after.Compositional.rebuilds_reused > before.Compositional.rebuilds_reused
         then "reused" else "built");
      if solve then
        if not (Compositional.is_closed r ss lumped_ss) then
          print_endline "  WARNING: reachable set not class-closed; measures skipped"
        else begin
          let pi, _ = Md_solve.solve solver r.Compositional.lumped lumped_ss in
          List.iter
            (fun (name, v) -> Printf.printf "  measure %-16s = %.9f\n" name v)
            (Md_solve.measures r lumped_ss pi inst.rewards)
        end)
    (Family.sweep_study inst.md ~points);
  let st = Compositional.sweep_stats sw in
  if points > 1 then begin
    let warm = Array.sub times 1 (points - 1) in
    let amortised = Array.fold_left ( +. ) 0.0 warm /. float_of_int (points - 1) in
    Printf.printf
      "cold first point %.4fs; amortised %.4fs per warm point (%.2fx); %d/%d level \
       fixpoints reused, %d/%d rebuilds reused\n"
      times.(0) amortised
      (times.(0) /. amortised)
      st.Compositional.level_reused
      (st.Compositional.level_reused + st.Compositional.level_fixpoints)
      st.Compositional.rebuilds_reused
      (st.Compositional.rebuilds_reused + st.Compositional.rebuilds)
  end;
  if show_stats then begin
    let c = Metrics.counter_value in
    Printf.printf
      "refiner stats (levels actually run): %d splitter passes, %d key evaluations, \
       %d splits, %.4f s refinement\n"
      (c "refiner.splitter_passes") (c "refiner.key_evals") (c "refiner.splits")
      (snd (Metrics.histogram_stats "refiner.run_seconds"));
    Printf.printf "rebuild: %d nodes rebuilt, %d reused\n" (c "rebuild.nodes_rebuilt")
      (c "rebuild.nodes_reused")
  end;
  finish_tracing trace_file stream_trace show_metrics print_phase_breakdown;
  Option.iter Mdl_util.Domain_pool.shutdown pool

(* ---- command line ---- *)

open Cmdliner

let mode_arg =
  let mode_conv =
    Arg.enum [ ("ordinary", State_lumping.Ordinary); ("exact", State_lumping.Exact) ]
  in
  Arg.(value & opt mode_conv State_lumping.Ordinary & info [ "mode" ] ~doc:"Lumping mode: $(b,ordinary) or $(b,exact).")

let key_arg =
  let key_conv =
    Arg.enum
      [ ("formal", Local_key.Formal_sums); ("expanded", Local_key.Expanded_matrices) ]
  in
  Arg.(value & opt key_conv Local_key.Formal_sums
       & info [ "key" ] ~doc:"Local key function: $(b,formal) sums (fast, sufficient) or $(b,expanded) matrices (slow, exact per level).")

let solve_arg = Arg.(value & flag & info [ "solve" ] ~doc:"Solve the lumped chain and print measures.")

let solver_arg =
  let solver_conv =
    Arg.enum
      [
        ("power", Solver.Power);
        ("gauss-seidel", Solver.Gauss_seidel);
        ("krylov", Solver.Krylov);
      ]
  in
  Arg.(value & opt solver_conv Solver.Power
       & info [ "solver" ]
           ~doc:"Steady-state solver for $(b,--solve): $(b,power) iteration on the uniformised operator (matrix-free, robust), $(b,gauss-seidel) sweeps on the flattened generator in reverse Cuthill-McKee order (fast on stiff chains), or $(b,krylov) (matrix-free Jacobi-preconditioned BiCGStab; typically the fewest iterations).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print aggregated partition-refinement counters (splitter passes, key evaluations, splits, blocks created, largest-block skips, refinement wall time) and the rebuild counters.")

let check_arg =
  Arg.(value & flag & info [ "check-optimal" ] ~doc:"Run flat state-level lumping on the lumped chain (Section 5's optimality check).")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the lumped MD in Graphviz format to $(docv).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging (exploration and lumping internals).")

let merge_arg =
  Arg.(value & opt (some int) None
       & info [ "merge" ] ~docv:"LEVEL"
           ~doc:"Merge levels $(docv) and $(docv)+1 before lumping (exposes cross-level symmetry; reward measures are dropped).")

let export_arg =
  Arg.(value & opt (some string) None
       & info [ "export-matrix" ] ~docv:"FILE"
           ~doc:"Flatten the lumped chain over its reachable states and write the rate matrix in Matrix Market format to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record hierarchical spans over the whole pipeline (per level, per refinement fixed point, per splitter pass, rebuild, solver) and write them as Chrome trace-event JSON to $(docv) — loads directly in chrome://tracing, Perfetto or speedscope.")

let stream_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "stream-trace" ] ~docv:"FILE"
           ~doc:"Like $(b,--trace), but stream each span to $(docv) as it closes \
                 instead of buffering the run — memory stays bounded however many \
                 spans the run produces. Takes precedence over $(b,--trace); the \
                 $(b,--metrics) per-phase breakdown needs the buffer and is empty \
                 when streaming.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Enable the process-wide metrics registry and dump it after the run: splitter-pass, split and key-evaluation counters, rebuild counters, key-evaluation and other latency histograms, and the per-phase Gc allocation breakdown.")

(* The OCaml runtime runs at most 128 domains.  A count outside 1-128 is
   a usage error that names the flag (exit 124), raised before any
   domain is spawned. *)
let domain_count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= 128 -> Ok n
    | _ -> Error (Printf.sprintf "invalid value '%s', expected an integer in 1-128" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let domains_arg =
  Arg.(value & opt domain_count 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Lump on $(docv) OCaml domains, 1-128: the levels of the diagram refine concurrently, one task per level; nothing inside a level runs in parallel. Results are bit-identical to $(b,--domains 1). With $(b,--trace) or $(b,--metrics), per-level tracing keeps levels sequential.")

(* The family's parameters as a term: one int flag per parameter, in
   catalogue order, yielding the (name, value) valuation. *)
let params_term (f : Family.t) =
  List.fold_right
    (fun (p : Family.param) rest ->
      let long = String.map (function '_' -> '-' | c -> c) p.name in
      let arg =
        Arg.(value & opt int p.default & info (long :: Option.to_list p.short) ~doc:p.doc)
      in
      Term.(const (fun v vs -> (p.name, v) :: vs) $ arg $ rest))
    f.params (Term.const [])

(* Resolve through the catalogue, so out-of-range values get lumpd's
   message and Cmdliner's usage-error exit status; [setup] runs between
   the resolution and the build. *)
let with_model (f : Family.t) ~size params ~setup k =
  match Family.resolve f ~size params with
  | Error msg -> `Error (true, msg)
  | Ok resolved ->
      setup ();
      `Ok (k (f.label resolved) (f.build resolved))

let family_cmd (f : Family.t) =
  let go params mode key solve solver check dot export merge stats trace stream metrics
      domains verbose =
    Mdl_obs.Logging.setup ~verbose ();
    with_model f ~size:None params
      ~setup:(fun () -> setup_tracing trace stream metrics stats)
      (fun label inst ->
        run label inst mode key solve solver check dot export merge stats trace stream
          metrics domains)
  in
  Cmd.v (Cmd.info f.name ~doc:f.doc)
    Term.(
      ret
        (const go $ params_term f $ mode_arg $ key_arg $ solve_arg $ solver_arg $ check_arg
       $ dot_arg $ export_arg $ merge_arg $ stats_arg $ trace_arg $ stream_trace_arg
       $ metrics_arg $ domains_arg $ verbose_arg))

let sweep_cmd =
  let names = List.map (fun (f : Family.t) -> f.name) Family.all in
  let model =
    let doc =
      match List.rev_map (Printf.sprintf "$(b,%s)") names with
      | last :: rest ->
          Printf.sprintf "Model to sweep: %s or %s (default parameters each)."
            (String.concat ", " (List.rev rest)) last
      | [] -> assert false
    in
    Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) (List.hd names)
         & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let size =
    Arg.(value & opt (some int) None
         & info [ "size" ] ~docv:"N"
             ~doc:"The model's main size knob (tandem jobs, polling customers, \
                   workstation count, multitier clients, kanban cards); the model's \
                   default when omitted.")
  in
  let points =
    Arg.(value & opt int 10
         & info [ "points" ] ~docv:"N" ~doc:"Number of sweep points (default 10).")
  in
  let go model size points solve solver stats trace stream metrics domains verbose =
    Mdl_obs.Logging.setup ~verbose ();
    with_model (Option.get (Family.find model)) ~size []
      ~setup:(fun () -> setup_tracing trace stream metrics stats)
      (fun label inst ->
        run_sweep label inst points solve solver stats trace stream metrics domains)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Lump one model repeatedly under a family of reward specifications \
             through the batched sweep engine (level fixed-point and rebuild \
             memos), printing per-point reuse and the \
             cold-vs-amortised timing.  Reward sweeps are an ordinary-mode notion, \
             so the mode is fixed to ordinary.")
    Term.(
      ret
        (const go $ model $ size $ points $ solve_arg $ solver_arg $ stats_arg $ trace_arg
       $ stream_trace_arg $ metrics_arg $ domains_arg $ verbose_arg))

let main =
  Cmd.group
    (Cmd.info "lumpmd" ~version:"1.0.0"
       ~doc:"Compositional lumping of matrix-diagram-represented Markov models.")
    (List.map family_cmd Family.all @ [ sweep_cmd ])

let () = exit (Cmd.eval main)
