(* Differential concurrency suite: the level-parallel lump is pinned
   bit-identical to the sequential one at every domain count.

   The lump properties quantify over random model specs (shrinking
   through {!Mdl_oracle.Qcheck_gen}) and race the sequential pipeline
   against pools of 1/2/4/7 domains.  The level is the only parallel
   unit, so every multi-level model refines its levels concurrently on
   a pool of more than one domain; a one-level model (the flat chains)
   checks that passing a pool changes nothing.  The lumped diagrams
   must be structurally equal ([Md.equal]), the per-level partitions
   must agree, and the refinement counters (splitter passes, splits,
   key evaluations, cache hits/misses) must match exactly.

   The unit tests below cover the concurrent building blocks directly:
   {!Mdl_util.Domain_pool} scheduling (exactly-once, nesting, exception
   rethrow) and {!Mdl_obs.Metrics} counter exactness under domains. *)

module Partition = Mdl_partition.Partition
module Md = Mdl_md.Md
module State_lumping = Mdl_lumping.State_lumping
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Domain_pool = Mdl_util.Domain_pool
module Metrics = Mdl_obs.Metrics
module Key_cache = Mdl_core.Key_cache
module Trace = Mdl_obs.Trace
module Spec = Mdl_oracle.Spec
module Gen_md = Mdl_oracle.Gen_md
module Qcheck_gen = Mdl_oracle.Qcheck_gen

(* One pool per raced size, shared by every test case (spawning domains
   per case would dominate the suite's runtime); joined at exit. *)
let pool_sizes = [ 1; 2; 4; 7 ]

let pools =
  lazy
    (let ps = List.map (fun d -> (d, Domain_pool.create ~domains:d)) pool_sizes in
     at_exit (fun () -> List.iter (fun (_, p) -> Domain_pool.shutdown p) ps);
     ps)

let pool d = List.assoc d (Lazy.force pools)

(* ----- differential lump properties ----- *)

(* The oracle's model setup (protected last-level reward for ordinary
   mode) — richer initial partitions than a constant reward. *)
let lump_inputs mode md =
  let sizes = Md.sizes md in
  let levels = Array.length sizes in
  let reward =
    Decomposed.of_level ~sizes ~level:levels (fun s -> if s = 0 then 1.0 else 0.0)
  in
  let rewards =
    match mode with
    | State_lumping.Ordinary -> [ reward ]
    | State_lumping.Exact -> [ Decomposed.constant ~sizes 0.0 ]
  in
  (rewards, Decomposed.constant ~sizes 1.0)

(* The counts a lump leaves in the registry; a parallel run must leave
   exactly the same ones. *)
let lump_counters =
  [
    "refiner.splitter_passes";
    "refiner.key_evals";
    "refiner.splits";
    "refiner.blocks_created";
    "rebuild.nodes_rebuilt";
    "rebuild.nodes_reused";
  ]

let lump_with ?pool mode md =
  let rewards, initial = lump_inputs mode md in
  let r, c =
    Counters.of_run lump_counters (fun () ->
        Compositional.lump ?pool mode md ~rewards ~initial)
  in
  (r, List.map (fun n -> (n, c n)) lump_counters)

let differential_lump mode spec =
  let md = Gen_md.of_spec spec in
  let r_seq, s_seq = lump_with mode md in
  List.iter
    (fun d ->
      (* Levels refine concurrently on every pool of more than one
         domain, however small the model; the rebuild runs on this
         domain. *)
      let r_par, s_par = lump_with ~pool:(pool d) mode md in
      let np = Array.length r_seq.Compositional.partitions in
      if Array.length r_par.Compositional.partitions <> np then
        QCheck.Test.fail_reportf "%d domains: partition count differs" d;
      Array.iteri
        (fun l p ->
          if not (Partition.equal p r_par.Compositional.partitions.(l)) then
            QCheck.Test.fail_reportf "%d domains: level %d partition differs" d (l + 1))
        r_seq.Compositional.partitions;
      if not (Md.equal r_seq.Compositional.lumped r_par.Compositional.lumped) then
        QCheck.Test.fail_reportf "%d domains: lumped diagram not bit-identical" d;
      List.iter2
        (fun (name, seq) (_, par) ->
          if seq <> par then
            QCheck.Test.fail_reportf "%d domains: %s %d, sequential %d" d name par seq)
        s_seq s_par)
    pool_sizes;
  true

let test_differential_ordinary =
  QCheck.Test.make ~count:40
    ~name:"parallel lump bit-identical to sequential (ordinary, 1/2/4/7 domains)"
    (Qcheck_gen.md_model ()) (differential_lump State_lumping.Ordinary)

let test_differential_exact =
  QCheck.Test.make ~count:25
    ~name:"parallel lump bit-identical to sequential (exact, 1/2/4/7 domains)"
    (Qcheck_gen.md_model ()) (differential_lump State_lumping.Exact)

let test_differential_chain =
  QCheck.Test.make ~count:25
    ~name:"parallel lump bit-identical to sequential (flat chains)"
    Qcheck_gen.chain (fun c -> differential_lump State_lumping.Ordinary (Spec.Chain c))

(* ----- batched sweeps under domains ----- *)

(* The sweep engine refines memo-missing levels concurrently, each on
   its own record of the engine's cache; the result must stay
   bit-identical to the sequential engine and to an independent
   per-point lump at every domain count, and so must every count the
   refiner keeps and the keys the cache interns.  The family mirrors
   the bench's: a threshold indicator on the last level, its complement
   (same class contents, flipped class order — forces a level-memo
   miss), a combined point, and a repeat. *)
let sweep_points md =
  let sizes = Md.sizes md in
  let level = Array.length sizes in
  let size = sizes.(level - 1) in
  let k = max 1 (size / 2) in
  let ind up =
    Decomposed.of_level ~sizes ~level (fun s ->
        if (if up then s >= k else s < k) then 1.0 else 0.0)
  in
  let reward =
    Decomposed.of_level ~sizes ~level (fun s -> if s = 0 then 1.0 else 0.0)
  in
  ( Decomposed.constant ~sizes 1.0,
    [ [ reward ]; [ ind true; reward ]; [ ind false; reward ]; [ reward ] ] )

(* The registry counts two sweeps are compared on: every refiner
   counter and the engine's memo counters. *)
let sweep_counters =
  [ "refiner.runs"; "sweep.level_fixpoints"; "sweep.level_reused"; "sweep.rebuilds";
    "sweep.rebuild_reused" ]
  @ List.map (( ^ ) "refiner.") Suite_partition.refiner_counters

let test_differential_sweep =
  QCheck.Test.make ~count:25
    ~name:"parallel lump_sweep bit-identical to sequential and per-point (2/4 domains)"
    (Qcheck_gen.md_model ()) (fun spec ->
      let md = Gen_md.of_spec spec in
      let initial, points = sweep_points md in
      (* A whole sweep: its results, then its registry counts and its
         cache's own. *)
      let sweep ?pool () =
        let sw = Compositional.sweep_create ?pool State_lumping.Ordinary md in
        let rs, c =
          Counters.of_run sweep_counters (fun () ->
              List.map (fun rewards -> Compositional.sweep_point sw ~rewards ~initial) points)
        in
        let kc = Compositional.sweep_cache sw in
        ( rs,
          List.map (fun n -> (n, c n)) sweep_counters
          @ [ ("gid_count", Key_cache.gid_count kc) ] )
      in
      let seq, seq_counts = sweep () in
      let independent =
        List.map
          (fun rewards -> Compositional.lump State_lumping.Ordinary md ~rewards ~initial)
          points
      in
      List.iter2
        (fun s i ->
          if not (Md.equal s.Compositional.lumped i.Compositional.lumped) then
            QCheck.Test.fail_reportf "sweep point differs from independent lump";
          if
            not
              (Array.for_all2 Partition.equal s.Compositional.partitions
                 i.Compositional.partitions)
          then QCheck.Test.fail_reportf "sweep point partitions differ")
        seq independent;
      List.iter
        (fun d ->
          let par, par_counts = sweep ~pool:(pool d) () in
          List.iter2
            (fun s p ->
              if not (Md.equal s.Compositional.lumped p.Compositional.lumped) then
                QCheck.Test.fail_reportf "%d domains: sweep diagram not bit-identical" d;
              if
                not
                  (Array.for_all2 Partition.equal s.Compositional.partitions
                     p.Compositional.partitions)
              then QCheck.Test.fail_reportf "%d domains: sweep partitions differ" d)
            seq par;
          List.iter2
            (fun (name, s) (_, p) ->
              if s <> p then
                QCheck.Test.fail_reportf "%d domains: sweep %s %d, sequential %d" d name p s)
            seq_counts par_counts)
        [ 2; 4 ];
      true)

(* A fixed multi-level spec for the tracing differential below — small
   but non-trivial (something actually lumps). *)
let kron_spec =
  Spec.Kron
    { sizes = [| 3; 3 |]; events = 2; symmetric = true; ring = true; merged = false;
      seed = 42 }

let test_trace_fallback_identical () =
  (* Tracing forces the level loop sequential; the result must not
     change — only the schedule does. *)
  let md = Gen_md.of_spec kron_spec in
  let r_seq, s_seq = lump_with State_lumping.Ordinary md in
  Trace.start ();
  Fun.protect ~finally:Trace.stop @@ fun () ->
  let r_tr, s_tr = lump_with ~pool:(pool 4) State_lumping.Ordinary md in
  Alcotest.(check bool) "lumped diagram identical under tracing" true
    (Md.equal r_seq.Compositional.lumped r_tr.Compositional.lumped);
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) name a b)
    s_seq s_tr

(* ----- Domain_pool ----- *)

let test_pool_exactly_once () =
  let p = pool 4 in
  let n = 103 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  Domain_pool.run p ~n (fun i -> Atomic.incr runs.(i));
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "task %d runs once" i) 1 (Atomic.get r))
    runs

let test_pool_trivial_runs () =
  let p = pool 4 in
  let hits = Atomic.make 0 in
  Domain_pool.run p ~n:0 (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "n=0 runs nothing" 0 (Atomic.get hits);
  Domain_pool.run p ~n:1 (fun i ->
      Alcotest.(check int) "n=1 runs index 0" 0 i;
      Atomic.incr hits);
  Alcotest.(check int) "n=1 runs once" 1 (Atomic.get hits)

let test_pool_clamped_size () =
  let p = Domain_pool.create ~domains:0 in
  Alcotest.(check int) "size clamped to 1" 1 (Domain_pool.size p);
  let sum = ref 0 in
  Domain_pool.run p ~n:5 (fun i -> sum := !sum + i);
  Alcotest.(check int) "inline run complete" 10 !sum;
  Domain_pool.shutdown p

let test_pool_run_after_shutdown () =
  let p = Domain_pool.create ~domains:3 in
  let count = Atomic.make 0 in
  Domain_pool.run p ~n:9 (fun _ -> Atomic.incr count);
  Domain_pool.shutdown p;
  Domain_pool.shutdown p;
  Domain_pool.run p ~n:9 (fun _ -> Atomic.incr count);
  Alcotest.(check int) "all tasks ran before and after shutdown" 18 (Atomic.get count)

let test_pool_nesting () =
  let p = pool 4 in
  let total = Atomic.make 0 in
  Domain_pool.run p ~n:4 (fun _ ->
      Domain_pool.run p ~n:8 (fun _ -> ignore (Atomic.fetch_and_add total 1)));
  Alcotest.(check int) "nested tasks all ran" 32 (Atomic.get total)

let test_pool_exception () =
  let p = pool 4 in
  let ran = Atomic.make 0 in
  let raised =
    try
      Domain_pool.run p ~n:16 (fun i ->
          ignore (Atomic.fetch_and_add ran 1);
          if i = 5 then failwith "boom");
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "exception rethrown" true raised;
  Alcotest.(check int) "all tasks settled" 16 (Atomic.get ran)

let test_pool_nested_exception () =
  let p = pool 4 in
  let caught =
    try
      Domain_pool.run p ~n:2 (fun _ ->
          Domain_pool.run p ~n:4 (fun j -> if j = 3 then failwith "inner"));
      false
    with Failure m -> m = "inner"
  in
  Alcotest.(check bool) "exception crosses the nesting boundary" true caught

let test_pool_chaos_flag () =
  (* The CI chaos job runs this very suite under MDL_CHAOS=1, so assert
     the flag tracks the environment rather than a fixed value. *)
  let expected =
    match Sys.getenv_opt "MDL_CHAOS" with Some s when s <> "" -> true | _ -> false
  in
  Alcotest.(check bool) "chaos tracks MDL_CHAOS" expected (Domain_pool.chaos (pool 2))

(* ----- Metrics exactness under domains ----- *)

let test_metrics_counters_exact () =
  let c = Metrics.counter "test.parallel.incrs" in
  let before = Metrics.counter_value "test.parallel.incrs" in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let per_domain = 25_000 in
  Domain_pool.run (pool 4) ~n:4 (fun _ ->
      for _ = 1 to per_domain do
        Metrics.incr c
      done);
  (* Exactly 4 x per_domain: a non-atomic counter loses increments here. *)
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Metrics.counter_value "test.parallel.incrs" - before)

let test_metrics_gauge_histogram_exact () =
  let g = Metrics.gauge "test.parallel.hwm" in
  let h = Metrics.histogram "test.parallel.obs" in
  let count0, sum0 = Metrics.histogram_stats "test.parallel.obs" in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let per_domain = 500 in
  Domain_pool.run (pool 4) ~n:4 (fun i ->
      for k = 1 to per_domain do
        Metrics.set_max g (float_of_int ((i * per_domain) + k));
        (* Power-of-two observations: float addition is exact whatever
           order the shards accumulate and merge in. *)
        Metrics.observe h 0.25
      done);
  let count, sum = Metrics.histogram_stats "test.parallel.obs" in
  Alcotest.(check int) "histogram count exact" (4 * per_domain) (count - count0);
  Alcotest.(check (float 0.0)) "histogram sum exact"
    (0.25 *. float_of_int (4 * per_domain))
    (sum -. sum0);
  Alcotest.(check (float 0.0)) "gauge high-water mark" (float_of_int (4 * per_domain))
    (Metrics.gauge_value "test.parallel.hwm")

let test_metrics_disabled_noop () =
  let c = Metrics.counter "test.parallel.disabled" in
  let before = Metrics.counter_value "test.parallel.disabled" in
  Alcotest.(check bool) "registry disabled" false (Metrics.enabled ());
  Domain_pool.run (pool 4) ~n:4 (fun _ ->
      for _ = 1 to 1_000 do
        Metrics.incr c
      done);
  Alcotest.(check int) "disabled updates are no-ops" before
    (Metrics.counter_value "test.parallel.disabled")

let test_differential_chain_exact =
  QCheck.Test.make ~count:15
    ~name:"parallel lump bit-identical to sequential (flat chains, exact)"
    Qcheck_gen.chain (fun c -> differential_lump State_lumping.Exact (Spec.Chain c))

let qcheck_tests =
  [
    test_differential_ordinary;
    test_differential_exact;
    test_differential_chain;
    test_differential_chain_exact;
    test_differential_sweep;
  ]

let tests =
  List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
      Alcotest.test_case "pool runs every task exactly once" `Quick test_pool_exactly_once;
      Alcotest.test_case "pool n=0 and n=1 run inline" `Quick test_pool_trivial_runs;
      Alcotest.test_case "pool size clamps to 1" `Quick test_pool_clamped_size;
      Alcotest.test_case "pool usable after shutdown" `Quick test_pool_run_after_shutdown;
      Alcotest.test_case "pool nesting uses the whole pool" `Quick test_pool_nesting;
      Alcotest.test_case "pool rethrows after settling" `Quick test_pool_exception;
      Alcotest.test_case "pool rethrows from nested runs" `Quick test_pool_nested_exception;
      Alcotest.test_case "metrics counters exact under 4 domains" `Quick
        test_metrics_counters_exact;
      Alcotest.test_case "metrics gauge/histogram exact under 4 domains" `Quick
        test_metrics_gauge_histogram_exact;
      Alcotest.test_case "metrics disabled: updates are no-ops" `Quick
        test_metrics_disabled_noop;
      Alcotest.test_case "chaos flag tracks MDL_CHAOS" `Quick test_pool_chaos_flag;
      Alcotest.test_case "tracing falls back to sequential levels, same result" `Quick
        test_trace_fallback_identical;
    ]
