(* Benchmark of the partition-refinement engines against the oracle's
   reference implementations.

   Flat scenarios race the seed's list-based [Refiner_reference] against
   the monomorphic float pipeline on the same spec, check that both
   compute the same fixed point, and fail if the float pipeline does not
   beat the reference.

   Multi-level scenarios time [Compositional.lump] end to end (per-level
   initial partitions, fixed-point refinement, diagram rebuild) — the
   production path: key cache, ranked pipeline, incremental rebuild,
   sharing one [Key_cache] across every multi-level scenario — against
   the oracle's reference lumper ([Reference_lump.lump]: list-based
   refinement, no cache, from-scratch rebuild).  Both must produce
   identical partitions and structurally equal lumped diagrams; the
   production run slower than the reference is a regression.

   Every scenario records the refiner's counters.  Results go to
   BENCH_refine.json (schema checked by scripts/check_bench_schema.py
   in CI).

   Usage: dune exec bench/refine.exe [-- --smoke] [-- --out FILE] *)

module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Refiner_reference = Mdl_oracle.Refiner_reference
module Reference_lump = Mdl_oracle.Reference_lump
module State_lumping = Mdl_lumping.State_lumping
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Decomposed = Mdl_core.Decomposed
module Solver = Mdl_ctmc.Solver
module Spec = Mdl_oracle.Spec
module Gen_chain = Mdl_oracle.Gen_chain
module Trace = Mdl_obs.Trace
module Serve = Mdl_serve.Server
module Serve_client = Mdl_serve.Client
module Proto = Mdl_serve.Protocol
module Family = Mdl_models.Family

type flat_scenario = {
  name : string;
  states : int;
  nnz : int;
  spec : float Refiner.spec;
  fspec : Refiner.float_spec;
  initial : Partition.t;
}

(* A catalogue model named the way a lumpd client names it: the serve
   race re-submits (family, params) through the wire protocol, so the
   daemon builds its own copy. *)
type multilevel_scenario = {
  ml_name : string;
  family : Proto.family;
  params : (string * int) list;
  built : Family.built;
}

type outcome = {
  json : string;
  o_name : string;
  regression : string option;
}

let min_time ~repeats f =
  let best = ref infinity in
  let out = ref None in
  for _ = 1 to repeats do
    (* Start each repeat from a settled heap: later configs of a race
       otherwise inherit the earlier configs' garbage and eat their
       major collections mid-measurement. *)
    Gc.full_major ();
    let r, s = Mdl_util.Timer.time f in
    if s < !best then best := s;
    out := Some r
  done;
  (Option.get !out, !best)

let stats_json s =
  Printf.sprintf
    {|"stats": {
        "splitter_passes": %d,
        "key_evals": %d,
        "splits": %d,
        "blocks_created": %d,
        "largest_skips": %d,
        "counting_sort_passes": %d,
        "intern_keys": %d,
        "cache_hits": %d,
        "cache_misses": %d,
        "nodes_rebuilt": %d,
        "nodes_reused": %d,
        "wall_s": %.6f
      }|}
    s.Refiner.splitter_passes s.Refiner.key_evals s.Refiner.splits
    s.Refiner.blocks_created s.Refiner.largest_skips s.Refiner.counting_sort_passes
    s.Refiner.intern_keys s.Refiner.cache_hits s.Refiner.cache_misses
    s.Refiner.nodes_rebuilt s.Refiner.nodes_reused s.Refiner.wall_s

(* Per-phase rollup of the spans one instrumented lump produced
   ([from] = span count before it ran).  Inclusive seconds, so [total_s]
   is not the sum of the others; a phase that never ran reports 0. *)
let phases_json ~from () =
  let totals = Trace.phase_totals ~from () in
  let get n = match List.assoc_opt n totals with Some s -> s | None -> 0.0 in
  Printf.sprintf
    {|"phases": {
        "total_s": %.6f,
        "level_s": %.6f,
        "initial_s": %.6f,
        "fixpoint_s": %.6f,
        "pass_s": %.6f,
        "rebuild_s": %.6f
      }|}
    (get "lump") (get "lump.level") (get "lump.initial_partition")
    (get "lump.fixpoint") (get "refine.pass") (get "lump.rebuild")

(* ---- flat scenarios ---- *)

let chain_scenario ~name (c : Spec.chain) =
  let r = Gen_chain.rate_matrix (Mdl_util.Prng.of_seed c.Spec.seed) c in
  let n = Mdl_sparse.Csr.rows r in
  {
    name;
    states = n;
    nnz = Mdl_sparse.Csr.nnz r;
    spec = State_lumping.refiner_spec Ordinary r;
    fspec = State_lumping.float_spec Ordinary r;
    initial = Partition.trivial n;
  }

let tandem_flat_scenario ~name ~jobs ~hyper_dim =
  let p = { (Mdl_models.Tandem.default ~jobs) with hyper_dim } in
  let b = Mdl_models.Tandem.build p in
  let ss = b.Mdl_models.Tandem.exploration.Mdl_san.Model.statespace in
  let r = Mdl_md.Md_vector.to_csr b.Mdl_models.Tandem.md ss in
  let n = Mdl_sparse.Csr.rows r in
  let rewards =
    Mdl_core.Decomposed.to_vector b.Mdl_models.Tandem.rewards_availability ss
  in
  let initial =
    Partition.group_by n
      (fun s -> Mdl_util.Floatx.quantize rewards.(s))
      Float.compare
  in
  {
    name;
    states = n;
    nnz = Mdl_sparse.Csr.nnz r;
    spec = State_lumping.refiner_spec Ordinary r;
    fspec = State_lumping.float_spec Ordinary r;
    initial;
  }

let run_flat ~repeats sc =
  Printf.printf "%-24s %7d states %8d nnz ... %!" sc.name sc.states sc.nnz;
  let p_ref, ref_s =
    min_time ~repeats (fun () ->
        Refiner_reference.comp_lumping sc.spec ~initial:sc.initial)
  in
  let p_flt, float_s =
    min_time ~repeats (fun () ->
        Refiner.comp_lumping_float sc.fspec ~initial:sc.initial)
  in
  if not (Partition.equal p_ref p_flt) then begin
    Printf.printf "ENGINES DISAGREE\n";
    Printf.eprintf
      "FATAL: %s: float pipeline and reference compute different fixed points\n" sc.name;
    exit 1
  end;
  (* One instrumented run (outside the timing loop) for the counters. *)
  let stats = Refiner.create_stats () in
  ignore (Refiner.comp_lumping_float ~stats sc.fspec ~initial:sc.initial);
  Printf.printf "%d classes  seed %.4fs  float %.4fs  (%.2fx vs seed)\n"
    (Partition.num_classes p_flt) ref_s float_s (ref_s /. float_s);
  let json =
    Printf.sprintf
      {|    {
      "kind": "flat",
      "name": "%s",
      "states": %d,
      "nnz": %d,
      "classes": %d,
      "ref_s": %.6f,
      "float_s": %.6f,
      "speedup_vs_ref": %.3f,
      %s
    }|}
      sc.name sc.states sc.nnz (Partition.num_classes p_flt) ref_s float_s
      (ref_s /. float_s) (stats_json stats)
  in
  let regression =
    if float_s > ref_s then
      Some
        (Printf.sprintf "%s: float pipeline slower than the reference (%.4fs vs %.4fs)"
           sc.name float_s ref_s)
    else None
  in
  { json; o_name = sc.name; regression }

(* ---- multi-level end-to-end scenarios ---- *)

let ml_scenario ml_name family params =
  let f = Option.get (Family.find (Proto.family_string family)) in
  match Family.resolve f ~size:None params with
  | Ok resolved -> { ml_name; family; params; built = f.build resolved }
  | Error msg -> invalid_arg (ml_name ^ ": " ^ msg)

(* The measures the scenario's lumps protect. *)
let base_rewards sc = List.map snd sc.built.Family.rewards

(* Race the production lump on domain pools against its own sequential
   time.  The timed lumps run with tracing disabled, so level-parallel
   stays armed; every parallel result must be bit-identical
   ([Md.equal], equal partitions) to the sequential one.  [host_cores]
   is recorded so the CI gate can require speedups only on machines
   that can actually exhibit them. *)
let run_domains ~repeats ~cache ~pools sc ~lump ~r_mem ~cached_s =
  let race (d, pool) =
    let r_par, par_s =
      min_time ~repeats (lump ?pool:(Some pool))
    in
    let identical =
      Array.length r_par.Compositional.partitions
        = Array.length r_mem.Compositional.partitions
      && Array.for_all2 Partition.equal r_par.Compositional.partitions
           r_mem.Compositional.partitions
      && Mdl_md.Md.equal r_par.Compositional.lumped r_mem.Compositional.lumped
    in
    if not identical then begin
      Printf.printf "PARALLEL DIAGRAM DISAGREES\n";
      Printf.eprintf
        "FATAL: %s: %d-domain lump differs from the sequential one\n" sc.ml_name d;
      exit 1
    end;
    (d, par_s)
  in
  let timed = List.map race pools in
  let host_cores = Domain.recommended_domain_count () in
  let fields =
    (Printf.sprintf {|"host_cores": %d|} host_cores
    :: List.concat_map
         (fun (d, s) ->
           [
             Printf.sprintf {|"par%d_s": %.6f|} d s;
             Printf.sprintf {|"speedup_par%d": %.3f|} d (cached_s /. s);
           ])
         timed)
    @ [ {|"identical": true|} ]
  in
  let json =
    Printf.sprintf {|"domains": {
        %s
      }|}
      (String.concat ",\n        " fields)
  in
  ignore cache;
  let regression =
    if host_cores < 2 then None
    else
      List.find_map
        (fun (d, s) ->
          if s > cached_s then
            Some
              (Printf.sprintf
                 "%s: %d-domain lump slower than sequential on a %d-core host (%.4fs vs %.4fs)"
                 sc.ml_name d host_cores s cached_s)
          else None)
        timed
  in
  (json, timed, regression)

(* Race the three steady-state solvers on the lumped chain: matrix-free
   power iteration, Gauss–Seidel on the flattened generator in reverse
   Cuthill–McKee order, and matrix-free Jacobi-preconditioned BiCGStab.
   All three must reproduce the same reward measures to 1e-9; per-solver
   time, iteration count and residual go into the scenario's "solvers"
   JSON object (gated by scripts/check_bench_schema.py). *)
let run_solvers ~repeats sc ~r_mem ~lumped_ss =
  let measures pi = List.map snd (Md_solve.measures r_mem lumped_ss pi sc.built.rewards) in
  let lumped = r_mem.Compositional.lumped in
  let race name f =
    let (pi, st), s = min_time ~repeats f in
    (name, pi, st, s)
  in
  let raced =
    [
      race "power" (fun () ->
          Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000 lumped lumped_ss);
      race "gauss_seidel" (fun () ->
          Solver.steady_state_gauss_seidel ~tol:1e-13 ~max_iter:100_000
            ~ordering:Solver.Rcm ~relax:0.9
            (Md_solve.ctmc_of lumped lumped_ss));
      race "krylov" (fun () -> Md_solve.steady_state_krylov ~tol:1e-13 lumped lumped_ss);
    ]
  in
  let _, pi_ref, _, _ = List.hd raced in
  let ref_measures = measures pi_ref in
  let max_measure_delta =
    List.fold_left
      (fun acc (_, pi, _, _) ->
        List.fold_left2
          (fun acc a b -> Float.max acc (Float.abs (a -. b)))
          acc ref_measures (measures pi))
      0.0 raced
  in
  if max_measure_delta > 1e-9 then begin
    Printf.printf "SOLVERS DISAGREE\n";
    Printf.eprintf "FATAL: %s: steady-state solvers disagree on measures (max delta %.3e)\n"
      sc.ml_name max_measure_delta;
    exit 1
  end;
  let non_converged =
    List.filter_map (fun (m, _, st, _) -> if st.Solver.converged then None else Some m) raced
  in
  if non_converged <> [] then begin
    Printf.printf "SOLVER DID NOT CONVERGE\n";
    Printf.eprintf "FATAL: %s: solver(s) did not converge: %s\n" sc.ml_name
      (String.concat ", " non_converged);
    exit 1
  end;
  let json =
    Printf.sprintf {|"solvers": {
        %s,
        "max_measure_delta": %.3e,
        "agree": true
      }|}
      (String.concat ",\n        "
         (List.map
            (fun (m, _, st, s) ->
              Printf.sprintf
                {|"%s": { "s": %.6f, "iterations": %d, "residual": %.3e, "converged": %b }|}
                m s st.Solver.iterations st.Solver.residual st.Solver.converged)
            raced))
      max_measure_delta
  in
  (json, List.map (fun (m, _, st, s) -> (m, st.Solver.iterations, s)) raced)

(* ---- batched sweep race ---- *)

(* The catalogue's sweep study over one scenario (its complement
   indicator is the deterministic cross-bind fixture [run_sweep]
   gates on). *)
let sweep_specs sc ~points =
  List.map
    (fun thresholds ->
      {
        Compositional.sweep_rewards = Family.point_rewards sc.built thresholds;
        sweep_initial = sc.built.initial;
      })
    (Family.sweep_study sc.built.md ~points)

let run_sweep ~repeats sc =
  let npoints = 10 in
  let specs = sweep_specs sc ~points:npoints in
  (* Independent per-point baseline: what a caller pays today — one
     [Compositional.lump] per point over a shared plain cache (rebound
     per run, rows wiped, intern table warm). *)
  let oneshot_cache = Mdl_core.Key_cache.create () in
  let oneshot spec () =
    Compositional.lump ~cache:oneshot_cache Mdl_lumping.State_lumping.Ordinary sc.built.md
      ~rewards:spec.Compositional.sweep_rewards ~initial:spec.Compositional.sweep_initial
  in
  let oneshot_raced = List.map (fun spec -> min_time ~repeats (oneshot spec)) specs in
  let oneshot_results = List.map fst oneshot_raced in
  let oneshot_times = List.map snd oneshot_raced in
  (* The sweep engine is stateful (warm stores carry the amortisation),
     so repeats re-run whole sweeps on fresh engines and each point
     keeps its best time across repeats. *)
  let times = Array.make npoints infinity in
  let last = ref None in
  for _ = 1 to repeats do
    Gc.full_major ();
    let sw = Compositional.sweep_create Mdl_lumping.State_lumping.Ordinary sc.built.md in
    let results =
      List.mapi
        (fun i spec ->
          let r, s =
            Mdl_util.Timer.time (fun () ->
                Compositional.sweep_point sw
                  ~rewards:spec.Compositional.sweep_rewards
                  ~initial:spec.Compositional.sweep_initial)
          in
          times.(i) <- Float.min times.(i) s;
          r)
        specs
    in
    last := Some (results, Compositional.sweep_stats sw, Compositional.sweep_cache sw)
  done;
  let results, stats, sweep_cache = Option.get !last in
  (* Bit-identity per point against the independent runs. *)
  List.iter2
    (fun r_sweep r_one ->
      let same =
        Array.length r_sweep.Compositional.partitions
          = Array.length r_one.Compositional.partitions
        && Array.for_all2 Partition.equal r_sweep.Compositional.partitions
             r_one.Compositional.partitions
        && Mdl_md.Md.equal r_sweep.Compositional.lumped r_one.Compositional.lumped
      in
      if not same then begin
        Printf.printf "SWEEP DIAGRAM DISAGREES\n";
        Printf.eprintf "FATAL: %s: sweep point differs from its one-shot lump\n"
          sc.ml_name;
        exit 1
      end)
    results oneshot_results;
  (* Measure agreement: steady-state reward measures of each point's
     lumped chain, sweep result vs one-shot result. *)
  let measures r spec =
    let lumped_ss = Compositional.lump_statespace r sc.built.statespace in
    let pi, _ = Md_solve.solve Solver.Power r.Compositional.lumped lumped_ss in
    List.map
      (fun d ->
        Solver.expected_reward pi
          (Decomposed.to_vector (Compositional.lumped_rewards r d) lumped_ss))
      spec.Compositional.sweep_rewards
  in
  let max_measure_delta =
    List.fold_left2
      (fun acc (r_sweep, r_one) spec ->
        List.fold_left2
          (fun acc a b -> Float.max acc (Float.abs (a -. b)))
          acc (measures r_sweep spec) (measures r_one spec))
      0.0
      (List.combine results oneshot_results)
      specs
  in
  if max_measure_delta > 1e-9 then begin
    Printf.printf "SWEEP MEASURES DISAGREE\n";
    Printf.eprintf "FATAL: %s: sweep measures differ from one-shot (max delta %.3e)\n"
      sc.ml_name max_measure_delta;
    exit 1
  end;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let warm = List.filteri (fun i _ -> i > 0) (Array.to_list times) in
  let warm_oneshot = List.filteri (fun i _ -> i > 0) oneshot_times in
  let cold_first_point_s = times.(0) in
  let amortised_point_s = mean warm in
  let oneshot_point_s = mean warm_oneshot in
  let amortised_speedup = oneshot_point_s /. amortised_point_s in
  Printf.printf "        sweep %d pts: cold %.4fs  amortised %.4fs  oneshot %.4fs  (%.2fx)  cross-bind %d\n"
    npoints cold_first_point_s amortised_point_s oneshot_point_s amortised_speedup
    stats.Compositional.cross_bind_hits;
  let json =
    Printf.sprintf
      {|"sweeps": {
        "points": %d,
        "distinct_points": %d,
        "cold_first_point_s": %.6f,
        "amortised_point_s": %.6f,
        "oneshot_point_s": %.6f,
        "amortised_speedup": %.3f,
        "cross_bind_hits": %d,
        "level_fixpoints": %d,
        "level_fixpoints_reused": %d,
        "rebuilds": %d,
        "rebuilds_reused": %d,
        "store_rows": %d,
        "max_measure_delta": %.3e,
        "identical": true
      }|}
      npoints
      (min npoints 5)
      cold_first_point_s amortised_point_s oneshot_point_s amortised_speedup
      stats.Compositional.cross_bind_hits stats.Compositional.level_fixpoints
      stats.Compositional.level_reused stats.Compositional.rebuilds
      stats.Compositional.rebuilds_reused
      (Mdl_core.Key_cache.store_size sweep_cache)
      max_measure_delta
  in
  let regression =
    if stats.Compositional.cross_bind_hits <= 0 then
      Some
        (Printf.sprintf "%s: sweep recorded no cross-bind cache hits" sc.ml_name)
    else if amortised_speedup < 1.0 then
      Some
        (Printf.sprintf
           "%s: amortised sweep point slower than one-shot lumping (%.4fs vs %.4fs)"
           sc.ml_name amortised_point_s oneshot_point_s)
    else None
  in
  (json, regression)

(* ---- serve race: the sweep amortisation through lumpd's wire path ---- *)

(* Boot an in-process lumpd on a private Unix socket, submit the
   scenario's model through the protocol, then send the same 10-point
   sweep request twice over two successive connections.  The first
   request pays statespace interning and every level fixpoint; the
   second rides the model's warm sweep engine and persistent key-cache
   store — the service-level restatement of [run_sweep], measured
   through the full framed JSON path (codec + socket included).  Gates
   (scripts/check_bench_schema.py): the warm request must not be slower
   than the cold one, the engine must report cross-bind store hits, and
   both responses' per-point lumped shapes must agree exactly. *)
let run_serve sc =
  let npoints = 10 in
  (* [sweep_specs]' study on the wire, including the complement
     indicator that forces cross-bind store lookups. *)
  let spec { Family.level; ge; k } = { Proto.ind_level = level; ind_ge = ge; ind_k = k } in
  let points =
    List.map
      (fun thresholds -> { Proto.pt_extra = List.map spec thresholds })
      (Family.sweep_study sc.built.md ~points:npoints)
  in
  let metrics_were_enabled = Mdl_obs.Metrics.enabled () in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lumpd-bench-%d-%s.sock" (Unix.getpid ()) sc.ml_name)
  in
  let server = Serve.start (Serve.default_config ~listen:(Serve.Unix_socket sock)) in
  let fatal fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "SERVE RACE FAILED\n";
        Printf.eprintf "FATAL: %s: %s\n" sc.ml_name msg;
        exit 1)
      fmt
  in
  let call c verb =
    let request =
      { Proto.rq_id = None; rq_deadline_ms = None; rq_trace = false; rq_verb = verb }
    in
    match Serve_client.request c request with
    | Ok { Proto.resp_body = Ok p; _ } -> p
    | Ok { Proto.resp_body = Error (code, msg); _ } ->
        fatal "serve request rejected: %s: %s" (Proto.error_code_string code) msg
    | Error msg -> fatal "serve transport error: %s" msg
  in
  let model = sc.ml_name ^ "-serve" in
  let sweep_rq = Proto.Sweep { sw_model = model; sw_points = points } in
  let timed_sweep c =
    match Mdl_util.Timer.time (fun () -> call c sweep_rq) with
    | Proto.Sweep_result r, s -> (r, s)
    | _ -> fatal "sweep answered with a non-sweep payload"
  in
  (* Cold connection: build the model, then pay the first full sweep. *)
  let c1 = Serve_client.connect (Serve.address server) in
  let _, submit_s =
    Mdl_util.Timer.time (fun () ->
        call c1
          (Proto.Submit_model
             {
               sm_model = model;
               sm_family = sc.family;
               sm_size = None;
               sm_params = sc.params;
             }))
  in
  let cold, cold_s = timed_sweep c1 in
  Serve_client.close c1;
  (* Fresh connection: same request, warm engine and store. *)
  let c2 = Serve_client.connect (Serve.address server) in
  let warm, warm_s = timed_sweep c2 in
  Serve_client.close c2;
  Serve.stop server;
  (try Sys.remove sock with Sys_error _ -> ());
  Mdl_obs.Metrics.set_enabled metrics_were_enabled;
  let shape (p : Proto.point_result) = (p.pr_lumped_states, p.pr_classes) in
  let identical =
    List.length cold.Proto.sr_points = List.length warm.Proto.sr_points
    && List.for_all2
         (fun a b -> shape a = shape b)
         cold.Proto.sr_points warm.Proto.sr_points
  in
  if not identical then
    fatal "warm sweep response differs from the cold one";
  Printf.printf
    "        serve %d pts: submit %.4fs  cold %.4fs  warm %.4fs  (%.2fx)  cross-bind %d\n"
    npoints submit_s cold_s warm_s (cold_s /. warm_s)
    warm.Proto.sr_cross_bind_hits;
  let json =
    Printf.sprintf
      {|"serve": {
        "points": %d,
        "submit_s": %.6f,
        "cold_request_s": %.6f,
        "warm_request_s": %.6f,
        "warm_speedup": %.3f,
        "cross_bind_hits": %d,
        "level_fixpoints_reused": %d,
        "store_rows": %d,
        "identical": true
      }|}
      npoints submit_s cold_s warm_s (cold_s /. warm_s)
      warm.Proto.sr_cross_bind_hits warm.Proto.sr_level_reused
      warm.Proto.sr_store_rows
  in
  let regression =
    if warm.Proto.sr_cross_bind_hits <= 0 then
      Some
        (Printf.sprintf "%s: warm serve sweep reported no cross-bind cache hits"
           sc.ml_name)
    else if warm_s > cold_s then
      Some
        (Printf.sprintf
           "%s: warm serve request slower than the cold one (%.4fs vs %.4fs)"
           sc.ml_name warm_s cold_s)
    else None
  in
  (json, regression)

let run_multilevel ~repeats ~cache ~pools sc =
  (* One end-to-end lump is milliseconds, not seconds: triple the repeat
     count so the min is robust against scheduler/GC noise (the
     production-vs-reference ratio is a CI gate).  The solver race keeps
     the untripled count — a solve is orders of magnitude more work than
     a lump. *)
  let solver_repeats = repeats in
  let repeats = 3 * repeats in
  let md = sc.built.md and rewards = base_rewards sc and initial = sc.built.initial in
  let states = Mdl_md.Statespace.size sc.built.statespace in
  Printf.printf "%-24s %7d states %8d levels .. %!" sc.ml_name states
    (Mdl_md.Md.levels md);
  let lump ?pool () =
    Compositional.lump ~cache ?pool Mdl_lumping.State_lumping.Ordinary md ~rewards ~initial
  in
  (* End-to-end: initial partitions + refinement + diagram rebuild.
     [cache] is shared across scenarios, so the production run sees a
     hot gid table; the reference lumper has no cache at all. *)
  let r_ref, reference_s =
    min_time ~repeats (fun () ->
        Reference_lump.lump Mdl_lumping.State_lumping.Ordinary md ~rewards ~initial)
  in
  let r_mem, cached_s = min_time ~repeats lump in
  if
    not
      (Array.length r_ref.Compositional.partitions
         = Array.length r_mem.Compositional.partitions
      && Array.for_all2 Partition.equal r_ref.Compositional.partitions
           r_mem.Compositional.partitions)
  then begin
    Printf.printf "PIPELINES DISAGREE\n";
    Printf.eprintf
      "FATAL: %s: lump and the reference lumper compute different partitions\n"
      sc.ml_name;
    exit 1
  end;
  if not (Mdl_md.Md.equal r_mem.Compositional.lumped r_ref.Compositional.lumped) then begin
    Printf.printf "DIAGRAMS DISAGREE\n";
    Printf.eprintf
      "FATAL: %s: lumped diagram differs from the reference lumper's rebuild\n"
      sc.ml_name;
    exit 1
  end;
  (* One instrumented run outside the timing loops: counters into
     [stats], spans into the shared trace buffer.  The timed races above
     run with tracing disabled — the production-vs-reference CI gate
     measures the zero-overhead path. *)
  let stats = Refiner.create_stats () in
  let span_from = Trace.span_count () in
  Trace.resume ();
  ignore (Compositional.lump ~cache ~stats
            Mdl_lumping.State_lumping.Ordinary md ~rewards ~initial);
  Trace.stop ();
  let domains_json, domains_timed, domains_regression =
    run_domains ~repeats ~cache ~pools sc ~lump ~r_mem ~cached_s
  in
  let lumped_ss = Compositional.lump_statespace r_mem sc.built.statespace in
  let lumped_states = Mdl_md.Statespace.size lumped_ss in
  let solvers_json, solver_iters =
    run_solvers ~repeats:solver_repeats sc ~r_mem ~lumped_ss
  in
  Printf.printf
    "%d lumped  reference %.4fs  cached %.4fs  (%.2fx vs reference)%s%s\n"
    lumped_states reference_s cached_s
    (reference_s /. cached_s)
    (String.concat ""
       (List.map (fun (d, s) -> Printf.sprintf "  par%d %.4fs" d s) domains_timed))
    (String.concat ""
       (List.map
          (fun (m, it, s) -> Printf.sprintf "  %s %d it %.4fs" m it s)
          solver_iters));
  let sweeps_json, sweep_regression = run_sweep ~repeats:solver_repeats sc in
  let serve_json, serve_regression = run_serve sc in
  let json =
    Printf.sprintf
      {|    {
      "kind": "multilevel",
      "name": "%s",
      "states": %d,
      "levels": %d,
      "lumped_states": %d,
      "reference_s": %.6f,
      "cached_s": %.6f,
      "speedup_vs_reference": %.3f,
      %s,
      %s,
      %s,
      %s,
      %s,
      %s
    }|}
      sc.ml_name states (Mdl_md.Md.levels md) lumped_states reference_s cached_s
      (reference_s /. cached_s)
      solvers_json
      sweeps_json
      serve_json
      domains_json
      (stats_json stats)
      (phases_json ~from:span_from ())
  in
  let regression =
    if cached_s > reference_s then
      Some
        (Printf.sprintf "%s: lump slower than the reference lumper (%.4fs vs %.4fs)"
           sc.ml_name cached_s reference_s)
    else if domains_regression <> None then domains_regression
    else if sweep_regression <> None then sweep_regression
    else serve_regression
  in
  { json; o_name = sc.ml_name; regression }

let () =
  let smoke = ref false in
  let out = ref "BENCH_refine.json" in
  let trace_out = ref "" in
  let domains = ref 4 in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " small instances only (CI)");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_refine.json)");
      ( "--domains",
        Arg.Set_int domains,
        "N race pools of up to N domains against the sequential lump (default 4; \
         <2 disables the parallel race)" );
      ( "--trace",
        Arg.Set_string trace_out,
        "FILE write the instrumented runs' spans as Chrome trace-event JSON" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "refine [--smoke] [--out FILE] [--domains N] [--trace FILE]";
  Mdl_obs.Logging.setup ();
  (* Arm the trace buffer, then disable recording: the per-scenario
     instrumented runs resume into it, so the timed races stay on the
     tracing-disabled path while every scenario's spans land in one
     combined export. *)
  Trace.start ();
  Trace.stop ();
  let chain ~name states extra planted seed =
    chain_scenario ~name { Spec.states; extra; planted; seed }
  in
  let flat, multilevel =
    if !smoke then
      ( [
          tandem_flat_scenario ~name:"tandem-j1-d2" ~jobs:1 ~hyper_dim:2;
          chain ~name:"chain-300-planted" 300 1_200 true 7;
          chain ~name:"chain-600-planted" 600 2_400 true 11;
        ],
        [ ml_scenario "lump-tandem-j1-d2" Proto.Tandem [ ("jobs", 1); ("hyper_dim", 2) ] ] )
    else
      ( [
          tandem_flat_scenario ~name:"tandem-j1-d2" ~jobs:1 ~hyper_dim:2;
          tandem_flat_scenario ~name:"tandem-j1-d3" ~jobs:1 ~hyper_dim:3;
          chain ~name:"chain-500-planted" 500 2_000 true 7;
          chain ~name:"chain-1500-plain" 1_500 6_000 false 13;
          chain ~name:"chain-3000-planted" 3_000 12_000 true 42;
        ],
        [
          ml_scenario "lump-tandem-j1-d3" Proto.Tandem [ ("jobs", 1); ("hyper_dim", 3) ];
          ml_scenario "lump-kanban-n2" Proto.Kanban [ ("cards", 2) ];
        ] )
  in
  let repeats = if !smoke then 2 else 3 in
  (* One cache for the whole sweep: each scenario rebinds it (dropping
     the memoised rows) but keeps accumulating the shared intern table. *)
  let cache = Mdl_core.Key_cache.create () in
  (* One pool per raced domain count, shared across scenarios (spawning
     domains per scenario would bill their startup to the first timed
     repeat's warmup). *)
  let pools =
    List.filter_map
      (fun d ->
        if d <= !domains then Some (d, Mdl_util.Domain_pool.create ~domains:d)
        else None)
      [ 2; 4 ]
  in
  let outcomes =
    List.map (run_flat ~repeats) flat
    @ List.map (run_multilevel ~repeats ~cache ~pools) multilevel
  in
  List.iter (fun (_, p) -> Mdl_util.Domain_pool.shutdown p) pools;
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n  \"bench\": \"refine\",\n  \"repeats\": %d,\n  \"scenarios\": [\n%s\n  ]\n}\n"
    repeats
    (String.concat ",\n" (List.map (fun o -> o.json) outcomes));
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  if !trace_out <> "" then begin
    Trace.write_file !trace_out;
    Printf.printf "wrote %s (%d spans)\n" !trace_out (Trace.span_count ())
  end;
  let regressed = List.filter_map (fun o -> o.regression) outcomes in
  List.iter (fun msg -> Printf.eprintf "WARNING: %s\n" msg) regressed;
  if regressed <> [] then exit 1
