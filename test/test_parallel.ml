(* Differential concurrency suite: the parallel refinement pipeline is
   pinned bit-identical to the sequential one at every domain count.

   The lump properties quantify over random model specs (shrinking
   through {!Mdl_oracle.Qcheck_gen}) and race the sequential pipeline
   against pools of 1/2/4/7 domains with every sharding threshold
   forced to 1, so even tiny models take the parallel paths: the
   lumped diagrams must be structurally equal ([Md.equal]), the
   per-level partitions must agree, and the refinement counters
   (splitter passes, splits, key evaluations, cache hits/misses) must
   match exactly.

   The unit tests below cover the concurrent building blocks directly:
   {!Mdl_util.Domain_pool} scheduling (exactly-once, nesting,
   exception rethrow, split chunking), the sharded {!Mdl_util.Gid_table}
   under concurrent interning of overlapping key sets, and
   {!Mdl_obs.Metrics} counter exactness under domains. *)

module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Md = Mdl_md.Md
module State_lumping = Mdl_lumping.State_lumping
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Domain_pool = Mdl_util.Domain_pool
module Gid_table = Mdl_util.Gid_table
module Metrics = Mdl_obs.Metrics
module Local_key = Mdl_core.Local_key
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

let lump_with ?pool ?par_threshold mode md =
  let rewards, initial = lump_inputs mode md in
  let stats = Refiner.create_stats () in
  let r = Compositional.lump ~stats ?pool ?par_threshold mode md ~rewards ~initial in
  (r, stats)

let counters s =
  [
    ("splitter_passes", s.Refiner.splitter_passes);
    ("key_evals", s.Refiner.key_evals);
    ("splits", s.Refiner.splits);
    ("blocks_created", s.Refiner.blocks_created);
    ("cache_hits", s.Refiner.cache_hits);
    ("cache_misses", s.Refiner.cache_misses);
    ("nodes_rebuilt", s.Refiner.nodes_rebuilt);
    ("nodes_reused", s.Refiner.nodes_reused);
  ]

let differential_lump mode spec =
  let md = Gen_md.of_spec spec in
  let r_seq, s_seq = lump_with mode md in
  List.iter
    (fun d ->
      (* par_threshold 1 forces the key-cache miss walks and the
         rebuild's quotient rows onto the pool, however small the model —
         the whole point is exercising the parallel paths.  The ranked
         pass's class fill is not among them: [Level_lumping] does not
         forward the threshold, and at [comp_lumping_ranked]'s own
         default no pass here is large enough, so
         [test_ranked_sharded_fill] below drives that loop directly. *)
      let r_par, s_par = lump_with ~pool:(pool d) ~par_threshold:1 mode md in
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
        (counters s_seq) (counters s_par))
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

(* The sweep engine refines memo-missing levels concurrently on cache
   forks; the result must stay bit-identical to the sequential engine
   and to an independent per-point lump at every domain count.  The
   family mirrors the bench's: a threshold indicator on the last level,
   its complement (same class contents, flipped class order — forces a
   level-memo miss that the persistent row store answers), a combined
   point, and a repeat. *)
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
  let initial = Decomposed.constant ~sizes 1.0 in
  List.map
    (fun rewards -> { Compositional.sweep_rewards = rewards; sweep_initial = initial })
    [ [ reward ]; [ ind true; reward ]; [ ind false; reward ]; [ reward ] ]

let test_differential_sweep =
  QCheck.Test.make ~count:25
    ~name:"parallel lump_sweep bit-identical to sequential and per-point (2/4 domains)"
    (Qcheck_gen.md_model ()) (fun spec ->
      let md = Gen_md.of_spec spec in
      let points = sweep_points md in
      let seq = Compositional.lump_sweep State_lumping.Ordinary md ~points in
      let independent =
        List.map
          (fun p ->
            Compositional.lump State_lumping.Ordinary md
              ~rewards:p.Compositional.sweep_rewards
              ~initial:p.Compositional.sweep_initial)
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
          let par =
            Compositional.lump_sweep ~pool:(pool d) ~par_threshold:1
              State_lumping.Ordinary md ~points
          in
          List.iter2
            (fun s p ->
              if not (Md.equal s.Compositional.lumped p.Compositional.lumped) then
                QCheck.Test.fail_reportf "%d domains: sweep diagram not bit-identical" d;
              if
                not
                  (Array.for_all2 Partition.equal s.Compositional.partitions
                     p.Compositional.partitions)
              then QCheck.Test.fail_reportf "%d domains: sweep partitions differ" d)
            seq par)
        [ 2; 4 ];
      true)

(* Fixed multi-level specs for the unit-level differentials below —
   small but non-trivial (something actually lumps in both). *)
let kron_spec =
  Spec.Kron
    { sizes = [| 3; 3 |]; events = 2; symmetric = true; ring = true; merged = false;
      seed = 42 }

let direct_spec = Spec.Direct { sizes = [| 3; 2; 3 |]; width = 2; symmetric = true; seed = 7 }

let test_rebuild_parallel_identical () =
  List.iter
    (fun spec ->
      let md = Gen_md.of_spec spec in
      let r_seq, _ = lump_with State_lumping.Ordinary md in
      let r_par =
        Compositional.lump_with_partitions ~pool:(pool 4) ~par_threshold:1
          State_lumping.Ordinary md r_seq.Compositional.partitions
      in
      Alcotest.(check bool)
        (Printf.sprintf "parallel rebuild of %s bit-identical" (Spec.to_string spec))
        true
        (Md.equal r_seq.Compositional.lumped r_par.Compositional.lumped))
    [ kron_spec; direct_spec ]

let test_trace_fallback_identical () =
  (* Tracing forces the level loop sequential; the result must not
     change — only the schedule does. *)
  let md = Gen_md.of_spec kron_spec in
  let r_seq, s_seq = lump_with State_lumping.Ordinary md in
  Trace.start ();
  Fun.protect ~finally:Trace.stop @@ fun () ->
  let r_tr, s_tr = lump_with ~pool:(pool 4) ~par_threshold:1 State_lumping.Ordinary md in
  Alcotest.(check bool) "lumped diagram identical under tracing" true
    (Md.equal r_seq.Compositional.lumped r_tr.Compositional.lumped);
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) name a b)
    (counters s_seq) (counters s_tr)

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

let test_pool_split () =
  List.iter
    (fun (n, tasks) ->
      let chunks = List.init tasks (Domain_pool.split ~n ~tasks) in
      (* Contiguous cover of [0, n) in chunk order... *)
      let expected = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !expected lo;
          Alcotest.(check bool) "ordered" true (lo <= hi);
          expected := hi)
        chunks;
      Alcotest.(check int) "covers n" n !expected;
      (* ...balanced to within one element... *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) chunks in
      let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
      Alcotest.(check bool) "balanced" true (mx - mn <= 1);
      (* ...and a pure function of (n, tasks). *)
      Alcotest.(check bool) "deterministic" true
        (List.init tasks (Domain_pool.split ~n ~tasks) = chunks))
    [ (10, 3); (3, 10); (0, 4); (1, 1); (1024, 7); (97, 16) ]

let test_pool_chaos_flag () =
  (* The CI chaos job runs this very suite under MDL_CHAOS=1, so assert
     the flag tracks the environment rather than a fixed value. *)
  let expected =
    match Sys.getenv_opt "MDL_CHAOS" with Some s when s <> "" -> true | _ -> false
  in
  Alcotest.(check bool) "chaos tracks MDL_CHAOS" expected (Domain_pool.chaos (pool 2))

(* ----- Gid_table under concurrent interning ----- *)

(* Four domains intern overlapping slices of one key universe; record
   which gid each interning returned.  A deterministic walk of the
   records then reduces gids to first-appearance ranks — the same
   reduction the refinement pipelines use — which must be identical
   run-to-run even though the gid values themselves are racy. *)
let stress_gid_table () =
  let nkeys = 1_000 in
  let per_task = 750 in
  let table = Gid_table.create ~hash:Hashtbl.hash ~equal:String.equal () in
  let key j = Printf.sprintf "key-%d" (j mod nkeys) in
  let gids = Array.make (4 * per_task) (-1) in
  Domain_pool.run (pool 4) ~n:4 (fun i ->
      for k = 0 to per_task - 1 do
        gids.((i * per_task) + k) <- Gid_table.intern table (key ((i * 250) + k))
      done);
  (table, key, gids)

let ranks_of gids =
  let rank = Hashtbl.create 1_024 in
  Array.map
    (fun g ->
      match Hashtbl.find_opt rank g with
      | Some r -> r
      | None ->
          let r = Hashtbl.length rank in
          Hashtbl.add rank g r;
          r)
    gids

let test_gid_table_stress () =
  let nkeys = 1_000 in
  let table, key, gids = stress_gid_table () in
  Alcotest.(check int) "every distinct key interned once" nkeys (Gid_table.size table);
  (* Gids are dense, and every record agrees with a post-hoc lookup —
     no key ever received two ids. *)
  let seen = Array.make nkeys false in
  Array.iter
    (fun g ->
      Alcotest.(check bool) "gid in range" true (g >= 0 && g < nkeys);
      seen.(g) <- true)
    gids;
  Alcotest.(check bool) "gids dense" true (Array.for_all Fun.id seen);
  Array.iteri
    (fun idx g ->
      let j = ((idx / 750) * 250) + (idx mod 750) in
      Alcotest.(check (option int)) "find agrees with intern" (Some g)
        (Gid_table.find table (key j)))
    gids;
  (* Rank reduction is run-to-run deterministic; raw gids need not be. *)
  let _, _, gids2 = stress_gid_table () in
  Alcotest.(check bool) "rank assignments identical run-to-run" true
    (ranks_of gids = ranks_of gids2)

let test_gid_table_growth () =
  (* 10k keys through 16 shards of 16 initial buckets: every shard grows
     several times; lookups must survive the republished bucket arrays. *)
  let table = Gid_table.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  let n = 10_000 in
  for j = 0 to n - 1 do
    Alcotest.(check int) "sequential gids are first-appearance order" j
      (Gid_table.intern table (j * 7))
  done;
  Alcotest.(check int) "size after growth" n (Gid_table.size table);
  for j = 0 to n - 1 do
    Alcotest.(check (option int)) "find after growth" (Some j)
      (Gid_table.find table (j * 7))
  done;
  Alcotest.(check (option int)) "miss is None" None (Gid_table.find table (-1))

let test_gid_rank_determinism =
  QCheck.Test.make ~count:20 ~name:"gid rank reduction deterministic (random overlap)"
    QCheck.(pair (int_range 1 500) (int_range 0 1_000))
    (fun (nkeys, seed) ->
      (* Four domains intern pseudo-random overlapping draws from a
         [nkeys]-key universe; the first-appearance ranks of the merged
         record must be identical run-to-run. *)
      let draws = 3 * nkeys in
      let run () =
        let table = Gid_table.create ~hash:Hashtbl.hash ~equal:Int.equal () in
        let gids = Array.make (4 * draws) (-1) in
        Domain_pool.run (pool 4) ~n:4 (fun i ->
            let prng = Mdl_util.Prng.of_seed ((seed * 4) + i) in
            for k = 0 to draws - 1 do
              gids.((i * draws) + k) <-
                Gid_table.intern table (Mdl_util.Prng.int prng nkeys)
            done);
        gids
      in
      ranks_of (run ()) = ranks_of (run ()))

(* ----- Key_cache forks ----- *)

let identity_slice n : Refiner.slice = (Array.init n Fun.id, 0, n)

let test_key_cache_fork () =
  let md = Gen_md.of_spec direct_spec in
  let kc = Key_cache.create () in
  Key_cache.bind kc md;
  let node = List.hd (Md.live_nodes md).(0) in
  let slice = identity_slice (Md.size md 1) in
  let eval c = Key_cache.splitter_keys c Local_key.Formal_sums State_lumping.Ordinary ~node slice in
  let states, gids = eval kc in
  let gid_count = Key_cache.gid_count kc in
  let fork = Key_cache.fork kc in
  Alcotest.(check int) "fork starts with zero hits" 0 (Key_cache.hits fork);
  Alcotest.(check int) "fork starts with zero misses" 0 (Key_cache.misses fork);
  (* The fork's rows memo is fresh (first call misses), but it interns
     into the SAME gid table — equal keys get the parent's gids and no
     new ids are allocated. *)
  let fstates, fgids = eval fork in
  Alcotest.(check int) "fork first call is a miss" 1 (Key_cache.misses fork);
  Alcotest.(check bool) "fork returns the parent's states" true (states = fstates);
  Alcotest.(check bool) "fork returns the parent's gids" true (gids = fgids);
  Alcotest.(check int) "no new gids allocated" gid_count (Key_cache.gid_count fork);
  Alcotest.(check int) "parent counters untouched by the fork" 1 (Key_cache.misses kc)

let test_eval_keys_matches_splitter_keys () =
  let md = Gen_md.of_spec kron_spec in
  let ctx = Local_key.make_context md in
  let p = pool 4 in
  List.iteri
    (fun l nodes ->
      let slice = identity_slice (Md.size md (l + 1)) in
      List.iter
        (fun node ->
          let listed =
            Local_key.splitter_keys ctx Local_key.Formal_sums State_lumping.Ordinary
              node slice
          in
          let states, keys =
            Local_key.eval_keys ~pool:p ~par_threshold:1 ctx Local_key.Formal_sums
              State_lumping.Ordinary node slice
          in
          let zipped =
            List.init (Array.length states) (fun i -> (states.(i), keys.(i)))
          in
          Alcotest.(check bool) "sharded eval_keys = sequential splitter_keys" true
            (List.for_all2
               (fun (s1, k1) (s2, k2) -> s1 = s2 && Local_key.equal k1 k2)
               listed zipped))
        nodes)
    (Array.to_list (Md.live_nodes md))

let test_warm_col_cache () =
  let md = Gen_md.of_spec direct_spec in
  let lazy_md = Gen_md.of_spec direct_spec in
  Md.warm_col_cache md;
  Array.iteri
    (fun l nodes ->
      List.iter
        (fun node ->
          for s = 0 to Md.size md (l + 1) - 1 do
            Alcotest.(check bool) "warmed column = lazily filled column" true
              (Md.node_col md node s = Md.node_col lazy_md node s)
          done)
        nodes)
    (Md.live_nodes md)

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

(* ----- ranked pipeline: the sharded class fill ----- *)

let ranked_counters s =
  [
    ("splitter_passes", s.Refiner.splitter_passes);
    ("key_evals", s.Refiner.key_evals);
    ("splits", s.Refiner.splits);
    ("blocks_created", s.Refiner.blocks_created);
    ("largest_skips", s.Refiner.largest_skips);
    ("counting_sort_passes", s.Refiner.counting_sort_passes);
    ("intern_keys", s.Refiner.intern_keys);
  ]

(* [comp_lumping_ranked] with a pool fills each pass's class slots on
   the pool's domains once the pass has [par_threshold] pairs.  With the
   threshold at 1 every pass takes that path; the partition (class ids
   included) and every counter must equal the run without a pool. *)
let test_ranked_sharded_fill =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 60 in
      let+ edges =
        list_size (int_range 0 150) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      (n, edges))
  in
  let print (n, e) =
    Printf.sprintf "n=%d %s" n
      (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) e))
  in
  QCheck.Test.make ~count:100
    ~name:"ranked pipeline: sharded class fill identical to no pool (2/4 domains)"
    (QCheck.make ~print gen) (fun (n, edges) ->
      let initial = Partition.group_by n (fun i -> i mod 3) compare in
      let run ?pool () =
        let stats = Refiner.create_stats () in
        let p =
          Refiner.comp_lumping_ranked ~stats ?pool ~par_threshold:1
            (Suite_partition.ranked_graph_spec edges n)
            ~initial
        in
        (Partition.to_class_assignment p, ranked_counters stats)
      in
      let seq = run () in
      List.iter
        (fun d ->
          let assignment, counters = run ~pool:(pool d) () in
          if assignment <> fst seq then
            QCheck.Test.fail_reportf "%d domains: partition differs" d;
          List.iter2
            (fun (name, a) (_, b) ->
              if a <> b then
                QCheck.Test.fail_reportf "%d domains: %s %d, no pool %d" d name b a)
            (snd seq) counters)
        [ 2; 4 ];
      true)

let qcheck_tests =
  [
    test_ranked_sharded_fill;
    test_differential_ordinary;
    test_differential_exact;
    test_differential_chain;
    test_differential_chain_exact;
    test_differential_sweep;
    test_gid_rank_determinism;
  ]

let tests =
  [
    Alcotest.test_case "pool runs every task exactly once" `Quick test_pool_exactly_once;
    Alcotest.test_case "pool n=0 and n=1 run inline" `Quick test_pool_trivial_runs;
    Alcotest.test_case "pool size clamps to 1" `Quick test_pool_clamped_size;
    Alcotest.test_case "pool usable after shutdown" `Quick test_pool_run_after_shutdown;
    Alcotest.test_case "pool nesting uses the whole pool" `Quick test_pool_nesting;
    Alcotest.test_case "pool rethrows after settling" `Quick test_pool_exception;
    Alcotest.test_case "pool rethrows from nested runs" `Quick test_pool_nested_exception;
    Alcotest.test_case "split chunks: contiguous, balanced, pure" `Quick test_pool_split;
    Alcotest.test_case "chaos flag tracks MDL_CHAOS" `Quick test_pool_chaos_flag;
    Alcotest.test_case "parallel rebuild bit-identical" `Quick
      test_rebuild_parallel_identical;
    Alcotest.test_case "tracing falls back to sequential levels, same result" `Quick
      test_trace_fallback_identical;
    Alcotest.test_case "gid table: concurrent overlapping interning" `Quick
      test_gid_table_stress;
    Alcotest.test_case "gid table: growth and lookup" `Quick test_gid_table_growth;
    Alcotest.test_case "key cache forks share the gid table" `Quick test_key_cache_fork;
    Alcotest.test_case "sharded eval_keys matches splitter_keys" `Quick
      test_eval_keys_matches_splitter_keys;
    Alcotest.test_case "warm_col_cache fills what node_col would" `Quick
      test_warm_col_cache;
    Alcotest.test_case "metrics counters exact under 4 domains" `Quick
      test_metrics_counters_exact;
    Alcotest.test_case "metrics gauge/histogram exact under 4 domains" `Quick
      test_metrics_gauge_histogram_exact;
    Alcotest.test_case "metrics disabled: updates are no-ops" `Quick
      test_metrics_disabled_noop;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
