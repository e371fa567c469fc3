(* The repository benchmark: four workloads that follow a user's wait
   from model parameters to measures, through a warm reward sweep, and
   through the lumpd service as a separate process.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1
     suite.exe --workload NAME --seed N --setup-only
     suite.exe --dry-run --seed N

   One invocation runs one workload (perfbench/run.py builds the tree,
   runs every workload in its own process and merges the set-up
   samples).  The seed generates every input; the program under test
   only ever sees the generated inputs.  Every output is checked: a
   failed check counts against [failed] and makes the exit status 1.

   With --trace 0 the last line of stdout carries the end-to-end
   metrics.  With --trace 1 the same schedule runs with every call into
   a layer wrapped in a [Trace] span and the registry counters on, on
   alternate units (iterations, studies), and the last line carries the
   per-layer metrics; the untraced units of that run give the tracing
   overhead. *)

module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Key_cache = Mdl_core.Key_cache
module Md_solve = Mdl_core.Md_solve
module State_lumping = Mdl_lumping.State_lumping
module Partition = Mdl_partition.Partition
module Solver = Mdl_ctmc.Solver
module Ctmc = Mdl_ctmc.Ctmc
module Csr = Mdl_sparse.Csr
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Prng = Mdl_util.Prng
module Timer = Mdl_util.Timer
module Tandem = Mdl_models.Tandem
module Kanban = Mdl_models.Kanban
module Json = Mdl_serve.Json
module Proto = Mdl_serve.Protocol
module Client = Mdl_serve.Client
module Server = Mdl_serve.Server

let now () = Int64.to_float (Timer.now_ns ()) /. 1e9

(* ---- statistics ---- *)

(* Linear interpolation between order statistics (Python's "inclusive"
   method), so the median of an even count is the mean of the middle
   two. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum = List.fold_left ( +. ) 0.0

let ms s = s *. 1000.0

(* VmHWM of a process: the peak resident set size the kernel recorded. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else find ()
      in
      find ())

(* ---- machine speed ---- *)

(* Shared build machines change speed by half within seconds as other
   tenants come and go, which moves every timing of a run with it.  A
   fixed kernel is timed between units of work: it clears an 8 MiB
   open-addressing table of ints and inserts 160,000 pseudo-random keys
   with linear probing, so like the program it hashes, probes and
   writes a working set larger than the private caches (of 4, 8, 16 and
   32 MiB tables, 8 MiB tracked the sweep's slow-downs best).  The table
   lives outside the OCaml heap and the kernel does not allocate, so it
   leaves the program's GC alone and no change to the program or its GC
   settings can move it.  Every end-to-end time is reported scaled by
   [reference_slice_s / median slice time], i.e. at the speed of a
   reference machine, and the raw numbers go to the result file. *)
let calib_slots = Bigarray.(Array1.create int c_layout (1 lsl 20))

(* Touch every page once, so that no calibration times page faults. *)
let () = Bigarray.Array1.fill calib_slots 0

let slice_samples = ref []

let calibrate () =
  let slices = 8 and mask = (1 lsl 20) - 1 in
  let t = now () in
  Bigarray.Array1.fill calib_slots 0;
  let seed = ref 777 in
  for _ = 1 to slices * 20_000 do
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    let key = !seed lor 1 in
    let h = ref ((key * 0x9E3779B1) land mask) in
    while
      let s = calib_slots.{!h} in
      s <> 0 && s <> key
    do
      h := (!h + 1) land mask
    done;
    calib_slots.{!h} <- key
  done;
  slice_samples := ((now () -. t) /. float_of_int slices) :: !slice_samples

(* The median slice time on an unloaded reference machine (see
   perfbench/README.md). *)
let reference_slice_s = 0.0006

let speed () = reference_slice_s /. median !slice_samples

(* ---- outcome ---- *)

let attempted = ref 0

let failed = ref 0

(* One checked operation: an iteration, a sweep point, a request. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let bit_equal a b =
  List.equal (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* ---- tracing: spans around the calls into each layer ---- *)

let layer name f = Trace.with_span ~cat:"perfbench" name f

let layer_times : (string, float list) Hashtbl.t = Hashtbl.create 16

let counts : (string, float list) Hashtbl.t = Hashtbl.create 16

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* Counts are taken in traced units only, so untraced units stay on the
   path a user runs. *)
let note_count name v = if Trace.enabled () then push counts name v

let counter_names =
  [
    "refiner.splitter_passes";
    "refiner.key_evals";
    "key_cache.hits";
    "key_cache.misses";
    "key_cache.cross_bind_hits";
    "rebuild.nodes_rebuilt";
    "sweep.level_fixpoints";
    "sweep.level_reused";
    "sweep.rebuilds";
    "sweep.rebuild_reused";
  ]

let counter_totals : (string, int) Hashtbl.t = Hashtbl.create 16

let unit_wall = ref 0.0

let attributed = ref 0.0

(* Run [f] as one traced unit: a root span whose direct children are the
   layer spans; library spans nest below them.  The registry is zeroed
   and switched on for the unit, and its counters are added up. *)
let traced_unit f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Trace.resume ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Trace.stop ();
        Metrics.set_enabled false)
      (fun () -> layer "unit" f)
  in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth ~args:_ ->
      let s = Int64.to_float dur_ns /. 1e9 in
      if depth = 0 then unit_wall := !unit_wall +. s
      else if depth = 1 then begin
        attributed := !attributed +. s;
        push layer_times name s
      end);
  Trace.clear ();
  List.iter
    (fun n ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt counter_totals n) in
      Hashtbl.replace counter_totals n (prev + Metrics.counter_value n))
    counter_names;
  r

let per_layer_metrics ~overhead =
  let time name =
    match Hashtbl.find_opt layer_times name with
    | Some l -> median l
    | None -> failwith (Printf.sprintf "no %s span was recorded" name)
  in
  let count name = match Hashtbl.find_opt counts name with Some l -> median l | None -> 0.0 in
  let total n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counter_totals n)) in
  let lumps = float_of_int (List.length (Hashtbl.find layer_times "core.lump")) in
  let per_lump n = total n /. lumps in
  let share a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  [
    ("san.explore_s", time "san.explore", "s");
    ("san.alloc_mw", count "san.alloc_mw", "Mwords");
    ("san.states", count "san.states", "count");
    ("md.build_s", time "md.build", "s");
    ("md.nodes", count "md.nodes", "count");
    ("md.entries", count "md.entries", "count");
    ("md.bytes", count "md.bytes", "bytes");
    ("core.lump_s", time "core.lump", "s");
    ("core.lumped_states", count "core.lumped_states", "count");
    ("partition.splitter_passes", per_lump "refiner.splitter_passes", "count");
    ("partition.key_evals", per_lump "refiner.key_evals", "count");
    ("core.key_cache_hit_ratio", share (total "key_cache.hits") (total "key_cache.misses"), "ratio");
    ("core.nodes_rebuilt", per_lump "rebuild.nodes_rebuilt", "count");
    ( "core.fixpoint_reuse_ratio",
      share (total "sweep.level_reused") (total "sweep.level_fixpoints"),
      "ratio" );
    ( "core.rebuild_reuse_ratio",
      share (total "sweep.rebuild_reused") (total "sweep.rebuilds"),
      "ratio" );
    ("core.cross_bind_hits", per_lump "key_cache.cross_bind_hits", "count");
    ("core.store_rows", count "core.store_rows", "count");
    ("extract.statespace_s", time "extract.statespace", "s");
    ("extract.ctmc_s", time "extract.ctmc", "s");
    ("extract.nnz", count "extract.nnz", "count");
    ("ctmc.solve_s", time "ctmc.solve", "s");
    ("ctmc.iterations", count "ctmc.iterations", "count");
    ("ctmc.measures_s", time "ctmc.measures", "s");
    ("trace.overhead_ratio", overhead, "ratio");
    ("trace.unattributed_ratio", (!unit_wall -. !attributed) /. !unit_wall, "ratio");
  ]

(* ---- models ---- *)

(* Every rate scaled by 2^unit_exp: a change of time unit.  Powers of
   two scale exactly in floating point, so the lumped chain, the solver
   iterates and the measures are bit-identical for every exponent — the
   seed moves the input without moving the work or the answer. *)
let tandem_params ~jobs ~hyper_dim ~unit_exp =
  let p = { (Tandem.default ~jobs) with Tandem.hyper_dim } in
  let c x = Float.ldexp x unit_exp in
  {
    p with
    Tandem.msmq_walk = c p.Tandem.msmq_walk;
    msmq_service = c p.Tandem.msmq_service;
    msmq_arrival = c p.Tandem.msmq_arrival;
    dispatch = c p.Tandem.dispatch;
    hyper_service = c p.Tandem.hyper_service;
    fail = c p.Tandem.fail;
    repair = c p.Tandem.repair;
    balance = c p.Tandem.balance;
    transfer = c p.Tandem.transfer;
  }

let kanban_params ~cards ~unit_exp =
  let p = Kanban.default ~cards in
  let c x = Float.ldexp x unit_exp in
  {
    p with
    Kanban.enter = c p.Kanban.enter;
    machine = Array.map c p.Kanban.machine;
    sync12 = c p.Kanban.sync12;
    sync34 = c p.Kanban.sync34;
    leave = c p.Kanban.leave;
  }

(* The rewards [Tandem.build] attaches (availability: fewer than two
   hypercube servers down; jobs in the MSMQ queues), rebuilt here
   because the bench explores the model itself to time exploration and
   MD construction apart. *)
let tandem_rewards (p : Tandem.params) (ex : Model.exploration) sizes =
  let h = 1 lsl p.Tandem.hyper_dim in
  let down s =
    let n = ref 0 in
    for i = 0 to h - 1 do
      if s.(h + i) <> 1 then incr n
    done;
    !n
  in
  let queued s =
    let t = ref 0 in
    for k = 0 to p.Tandem.msmq_queues - 1 do
      t := !t + s.((2 * p.Tandem.msmq_servers) + k)
    done;
    float_of_int !t
  in
  [
    Decomposed.of_level ~sizes ~level:2 (fun i ->
        if down ex.Model.local_spaces.(1).(i) < 2 then 1.0 else 0.0);
    Decomposed.of_level ~sizes ~level:3 (fun i -> queued ex.Model.local_spaces.(2).(i));
  ]

(* [Kanban.build]'s parts-in-system reward, plus the parts in one cell. *)
let kanban_rewards ~cell (ex : Model.exploration) sizes =
  let parts k i =
    let s = ex.Model.local_spaces.(k).(i) in
    float_of_int (s.(0) + s.(1))
  in
  let in_system =
    Decomposed.make
      ~factors:(Array.mapi (fun k n -> Array.init n (parts k)) sizes)
      ~combine:(fun values -> Array.fold_left ( +. ) 0.0 values)
  in
  in_system
  :: (match cell with None -> [] | Some c -> [ Decomposed.of_level ~sizes ~level:(c + 1) (parts c) ])

(* ---- the pipeline, one span per layer call ---- *)

let build_model m =
  let words = Gc.minor_words () in
  let ex = layer "san.explore" (fun () -> Model.explore_symbolic m) in
  note_count "san.alloc_mw" ((Gc.minor_words () -. words) /. 1e6);
  let md = layer "md.build" (fun () -> Model.md_of ex) in
  if Trace.enabled () then begin
    let nodes, entries = Md.stats md in
    note_count "san.states" (float_of_int (Statespace.size ex.Model.statespace));
    note_count "md.nodes" (float_of_int (Array.fold_left ( + ) 0 nodes));
    note_count "md.entries" (float_of_int (Array.fold_left ( + ) 0 entries));
    note_count "md.bytes" (float_of_int (Md.memory_bytes md))
  end;
  (ex, md)

let initial_of (ex : Model.exploration) md = Decomposed.point ~sizes:(Md.sizes md) ex.Model.initial_tuple

let lump ex md rewards =
  let initial = initial_of ex md in
  layer "core.lump" (fun () ->
      Compositional.lump State_lumping.Ordinary md ~rewards ~initial)

type solved = { lumped_states : int; measures : float list; converged : bool }

(* Extraction and the steady-state solve, with lumpmd's and lumpd's
   Gauss-Seidel settings. *)
let solve_lumped ss (r : Compositional.result) rewards =
  let lumped_ss = layer "extract.statespace" (fun () -> Compositional.lump_statespace r ss) in
  let ctmc = layer "extract.ctmc" (fun () -> Md_solve.ctmc_of r.Compositional.lumped lumped_ss) in
  let pi, st =
    layer "ctmc.solve" (fun () ->
        Solver.steady_state_gauss_seidel ~tol:1e-12 ~max_iter:100_000 ~ordering:Solver.Rcm
          ~relax:0.9 ctmc)
  in
  let measures =
    layer "ctmc.measures" (fun () ->
        List.map
          (fun d ->
            Solver.expected_reward pi
              (Decomposed.to_vector (Compositional.lumped_rewards r d) lumped_ss))
          rewards)
  in
  let lumped_states = Statespace.size lumped_ss in
  note_count "core.lumped_states" (float_of_int lumped_states);
  note_count "extract.nnz" (float_of_int (Csr.nnz (Ctmc.rates ctmc)));
  note_count "ctmc.iterations" (float_of_int st.Solver.iterations);
  { lumped_states; measures; converged = st.Solver.converged }

let pipeline m rewards_of =
  let ex, md = build_model m in
  let rewards = rewards_of ex (Md.sizes md) in
  solve_lumped ex.Model.statespace (lump ex md rewards) rewards

(* Pinned answers: lumped state count and (value, tolerance) per measure. *)
let matches (states, expected) s =
  s.converged && s.lumped_states = states
  && List.length expected = List.length s.measures
  && List.for_all2 (fun (want, tol) got -> Float.abs (want -. got) <= tol) expected s.measures

(* Tandem J=2 (the paper's Table 1 row): availability, jobs in MSMQ. *)
let tandem_j2_expected = (8015, [ (0.909090909, 1e-9); (1.172326287, 1e-8) ])

(* Tandem J=1, hyper_dim 3 — the sweep's model, at its base point. *)
let tandem_d3_expected = (985, [ (0.909090909, 1e-9); (0.570402802, 1e-8) ])

(* Kanban, 5 cards: nothing lumps.  Parts in the system, then parts in
   cell 1..4 (the seed picks one cell); cells 2 and 3 are identical, and
   the four cells add up to the system. *)
let kanban_n5_in_system = 5.909274040

let kanban_n5_cells = [| 0.927522098; 1.855163570; 1.855163570; 1.271424803 |]

(* ---- generated inputs ---- *)

type indicator = { level : int; ge : bool; frac : float }
(** A threshold reward on [level]: 1 where the local state is [>= k]
    ([ge]) or [< k], with [k] at fraction [frac] of the level's range. *)

let gen_indicator rng level =
  let ge = Prng.bool rng in
  let frac = Prng.float rng 1.0 in
  { level; ge; frac }

let threshold sizes ind =
  let size = sizes.(ind.level - 1) in
  min (size - 1) (1 + int_of_float (ind.frac *. float_of_int (size - 1)))

let indicator_reward sizes ind =
  let k = threshold sizes ind in
  Decomposed.of_level ~sizes ~level:ind.level (fun s ->
      if (if ind.ge then s >= k else s < k) then 1.0 else 0.0)

let pp_indicators b inds =
  List.iter (fun i -> Printf.bprintf b "(%d %b %h)" i.level i.ge i.frac) inds;
  Buffer.add_char b '\n'

type pipeline_input = { unit_exp : int; cell : int option }

let pipeline_input ~kanban seed =
  let rng = Prng.of_seed seed in
  let unit_exp = Prng.int rng 7 - 3 in
  let cell = if kanban then Some (Prng.int rng 4) else None in
  { unit_exp; cell }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A sensitivity study of 100 points: every point is the base rewards
   plus threshold indicators, and a quarter of the points revisit an
   earlier point of the study.  The shapes are stratified — 19 points
   with one indicator on level 2, 19 on level 3, 13 with one on each, 12
   with two on level 2, 12 with two on level 3, 25 revisits — and
   shuffled; thresholds, directions and revisit targets are drawn
   uniformly.  Drawing the shapes independently too would let the work
   in a study, and with it every timing, wander from seed to seed. *)
let study_shapes =
  List.concat_map
    (fun (n, shape) -> List.init n (fun _ -> shape))
    [ (19, [ 2 ]); (19, [ 3 ]); (13, [ 2; 3 ]); (12, [ 2; 2 ]); (12, [ 3; 3 ]); (25, []) ]

let study_points = List.length study_shapes

let gen_study rng shapes =
  let shapes = Array.of_list shapes in
  shuffle rng shapes;
  (* The first point has nothing to revisit. *)
  (match Array.find_index (fun s -> s <> []) shapes with
  | Some i ->
      let t = shapes.(0) in
      shapes.(0) <- shapes.(i);
      shapes.(i) <- t
  | None -> ());
  let pts = Array.make (Array.length shapes) [] in
  Array.iteri
    (fun i shape ->
      pts.(i) <-
        (match shape with
        | [] -> pts.(Prng.int rng i)
        | levels -> List.map (gen_indicator rng) levels))
    shapes;
  Array.to_list pts

let study seed s = gen_study (Prng.fork (Prng.of_seed seed) s) study_shapes

let check_points seed =
  gen_study
    (Prng.fork (Prng.of_seed seed) 1_000_000)
    [ [ 2 ]; [ 3 ]; [ 2; 3 ]; [ 2; 2 ]; [ 3; 3 ]; []; [ 2 ]; [ 3 ]; [ 2; 3 ]; [] ]

(* lumpd: the models the daemon serves and the open-loop request mix. *)
let lumpd_models =
  [ ("tandem", Proto.Tandem, [ ("jobs", 1); ("hyper_dim", 2) ]); ("kanban", Proto.Kanban, [ ("cards", 3) ]) ]

let work_rate = 5.0

let ping_rate = 40.0

(* Lumps and sweeps go to the tandem model: Kanban lumps nothing, so its
   lumps would take no time at all. *)
type work = Lump of indicator list | Sweep of indicator list list | Solve of string

(* The mix is stratified: every block of eight requests holds exactly
   two lumps, four 4-point sweeps and one Gauss-Seidel solve on each
   model, in a seeded order with seeded indicators (one or two per lump
   or sweep point, on any of tandem's three levels).  Drawing each
   request independently would let the count of expensive solves, and
   with it every latency percentile, wander from seed to seed; with the
   sweeps the largest class, the median request is a sweep rather than
   the boundary between two classes. *)
let block = [| `Lump; `Lump; `Sweep; `Sweep; `Sweep; `Sweep; `Solve "tandem"; `Solve "kanban" |]

let gen_work rng kind =
  let inds () =
    let count = 1 + Prng.int rng 2 in
    List.init count (fun _ -> gen_indicator rng (1 + Prng.int rng 3))
  in
  match kind with
  | `Lump -> Lump (inds ())
  | `Sweep -> Sweep (List.init 4 (fun _ -> inds ()))
  | `Solve model -> Solve model

let work_schedule seed n =
  let rng = Prng.of_seed seed in
  let order = Array.copy block in
  let blocks =
    Array.init
      ((n + Array.length block - 1) / Array.length block)
      (fun _ ->
        shuffle rng order;
        Array.map (gen_work rng) order)
  in
  Array.sub (Array.concat (Array.to_list blocks)) 0 n

let pp_work b = function
  | Lump inds ->
      Buffer.add_string b "lump ";
      pp_indicators b inds
  | Sweep pts ->
      Buffer.add_string b "sweep\n";
      List.iter (pp_indicators b) pts
  | Solve m -> Printf.bprintf b "solve %s\n" m

let workloads = [ "tandem-j2-measures"; "kanban-n5-solve"; "tandem-d3-sweep"; "lumpd-open-mix" ]

(* Digest of the inputs a workload generates from [seed]: the pipeline
   parameters, the check points plus the first 64 studies, or the first
   2400 requests (eight minutes at the work rate). *)
let input_digest w seed =
  let b = Buffer.create 65536 in
  (match w with
  | "tandem-j2-measures" | "kanban-n5-solve" ->
      let i = pipeline_input ~kanban:(w = "kanban-n5-solve") seed in
      Printf.bprintf b "unit_exp %d cell %s\n" i.unit_exp
        (match i.cell with None -> "-" | Some c -> string_of_int c)
  | "tandem-d3-sweep" ->
      List.iter (pp_indicators b) (check_points seed);
      for s = 0 to 63 do
        List.iter (pp_indicators b) (study seed s)
      done
  | _ -> Array.iter (pp_work b) (work_schedule seed 2400));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- results ---- *)

(* How a raw end-to-end number is brought to the reference speed. *)
type scale = Time | Rate | Plain

type run = {
  setup_s : float;
  setup_speed : float;
      (** the speed from the two calibrations around the set-up, the first
          two of the process, so that set-up-only processes and full runs
          scale their set-up alike *)
  e2e : (string * float * string * scale) list;  (** raw end-to-end metrics, setup_s excluded *)
  extras : (string * Json.t) list;  (** workload-specific numbers for the result file *)
  overhead : float;  (** traced over untraced wall of the same work *)
}

let extras_of_samples name xs =
  ( name,
    Json.Obj
      [
        ("median", Json.Float (median xs));
        ("min", Json.Float (quantile xs 0.0));
        ("max", Json.Float (quantile xs 1.0));
        ("count", Json.Int (List.length xs));
      ] )

(* Run [unit i] until [seconds] have passed (and at least [min_units]
   times), tracing every second unit when [traced]; returns the walls of
   untraced and traced units. *)
let timed_units ~seconds ~traced ~min_units unit =
  let deadline = now () +. seconds in
  let untraced = ref [] and traced_w = ref [] in
  let i = ref 0 in
  while now () < deadline || !i < min_units do
    calibrate ();
    let t = now () in
    if traced && !i mod 2 = 1 then begin
      traced_unit (fun () -> unit !i);
      traced_w := (now () -. t) :: !traced_w
    end
    else begin
      unit !i;
      untraced := (now () -. t) :: !untraced
    end;
    incr i
  done;
  calibrate ();
  (List.rev !untraced, List.rev !traced_w)

(* ---- workloads 1 and 2: model parameters to measures ---- *)

let run_pipelines ~kanban ~seed ~seconds ~traced ~setup_only =
  let input = pipeline_input ~kanban seed in
  let model, rewards_of, expected, what =
    if kanban then
      let c = Option.get input.cell in
      ( (fun () -> Kanban.model (kanban_params ~cards:5 ~unit_exp:input.unit_exp)),
        kanban_rewards ~cell:input.cell,
        (40131, [ (kanban_n5_in_system, 1e-8); (kanban_n5_cells.(c), 1e-8) ]),
        Printf.sprintf "kanban n5 (time unit 2^%d, cell %d): 40131 states and pinned measures"
          input.unit_exp (c + 1) )
    else
      let p = tandem_params ~jobs:2 ~hyper_dim:3 ~unit_exp:input.unit_exp in
      ( (fun () -> Tandem.model p),
        tandem_rewards p,
        tandem_j2_expected,
        Printf.sprintf "tandem J=2 (time unit 2^%d): 8015 states and pinned measures"
          input.unit_exp )
  in
  let last = ref [] in
  let iteration () =
    let s = pipeline (model ()) rewards_of in
    last := s.measures;
    check (matches expected s) what
  in
  calibrate ();
  let t = now () in
  iteration ();
  let setup_s = now () -. t in
  calibrate ();
  let setup_speed = speed () in
  if setup_only then { setup_s; setup_speed; e2e = []; extras = []; overhead = 0.0 }
  else begin
    let walls, traced_walls =
      timed_units ~seconds ~traced ~min_units:(if traced then 2 else 1) (fun _ -> iteration ())
    in
    let overhead = if traced then median traced_walls /. median walls else 1.0 in
    {
      setup_s;
      setup_speed;
      e2e =
        [
          ("latency_p50_ms", ms (median walls), "ms", Time);
          ("throughput_per_s", float_of_int (List.length walls) /. sum walls, "1/s", Rate);
          ("peak_rss_mb", peak_rss_mb "self", "MB", Plain);
        ];
      extras =
        [
          extras_of_samples "time_to_measures_s" walls;
          ("unit_exp", Json.Int input.unit_exp);
          ("cell", match input.cell with Some c -> Json.Int (c + 1) | None -> Json.Null);
          ("measures", Json.List (List.map (fun v -> Json.Float v) !last));
        ];
      overhead;
    }
  end

(* ---- workload 3: a warm reward sweep ---- *)

let same_result (a : Compositional.result) (b : Compositional.result) =
  Array.length a.Compositional.partitions = Array.length b.Compositional.partitions
  && Array.for_all2 Partition.equal a.Compositional.partitions b.Compositional.partitions
  && Md.equal a.Compositional.lumped b.Compositional.lumped

let run_sweep ~seed ~seconds ~traced ~setup_only =
  let p = tandem_params ~jobs:1 ~hyper_dim:3 ~unit_exp:0 in
  let maybe_traced f = if traced then traced_unit f else f () in
  calibrate ();
  let t = now () in
  let ex, md, base, engine =
    maybe_traced (fun () ->
        let ex, md = build_model (Tandem.model p) in
        let base = tandem_rewards p ex (Md.sizes md) in
        (ex, md, base, Compositional.sweep_create State_lumping.Ordinary md))
  in
  let setup_s = now () -. t in
  calibrate ();
  let setup_speed = speed () in
  if setup_only then { setup_s; setup_speed; e2e = []; extras = []; overhead = 0.0 }
  else begin
    let sizes = Md.sizes md in
    let initial = initial_of ex md in
    let rewards_of pt = List.map (indicator_reward sizes) pt @ base in
    (* Correctness, outside the timed phase: seeded points through a
       fresh engine equal one-shot lumps, and the base point solves to
       bit-equal, pinned measures either way. *)
    let reference = Compositional.sweep_create State_lumping.Ordinary md in
    List.iteri
      (fun i pt ->
        let rewards = rewards_of pt in
        let a = Compositional.sweep_point reference ~rewards ~initial in
        let b = Compositional.lump State_lumping.Ordinary md ~rewards ~initial in
        check (same_result a b) (Printf.sprintf "sweep check point %d equals its one-shot lump" i))
      (check_points seed);
    let a = Compositional.sweep_point reference ~rewards:base ~initial in
    let b = Compositional.lump State_lumping.Ordinary md ~rewards:base ~initial in
    let sa = maybe_traced (fun () -> solve_lumped ex.Model.statespace a base) in
    let sb = solve_lumped ex.Model.statespace b base in
    check
      (matches tandem_d3_expected sa && bit_equal sa.measures sb.measures)
      "sweep base point: 985 states, pinned measures equal to the one-shot lump's";
    let latencies = ref [] in
    let study_run s =
      let eng = if s = 0 then engine else Compositional.sweep_create State_lumping.Ordinary md in
      let pts = study seed s in
      List.iter
        (fun pt ->
          let rewards = rewards_of pt in
          let t = now () in
          let r = layer "core.lump" (fun () -> Compositional.sweep_point eng ~rewards ~initial) in
          let dt = now () -. t in
          if not (Trace.enabled ()) then latencies := dt :: !latencies;
          check (Array.length r.Compositional.partitions = 3) "sweep point has 3 level partitions")
        pts;
      note_count "core.store_rows" (float_of_int (Key_cache.store_size (Compositional.sweep_cache eng)))
    in
    let walls, traced_walls =
      timed_units ~seconds ~traced ~min_units:(if traced then 2 else 1) study_run
    in
    let n = float_of_int (List.length !latencies) in
    let overhead =
      if traced then
        let tn = float_of_int (List.length traced_walls * study_points) in
        sum traced_walls /. tn /. (sum walls /. n)
      else 1.0
    in
    {
      setup_s;
      setup_speed;
      e2e =
        [
          ("latency_p50_ms", ms (median !latencies), "ms", Time);
          ("throughput_per_s", n /. sum walls, "1/s", Rate);
          ("peak_rss_mb", peak_rss_mb "self", "MB", Plain);
        ];
      extras =
        [
          ("studies", Json.Int (List.length walls + List.length traced_walls));
          ("points_per_study", Json.Int study_points);
          extras_of_samples "sweep_point_s" !latencies;
          ("sweep_point_p95_ms", Json.Float (ms (quantile !latencies 0.95)));
          ("sweep_point_p99_ms", Json.Float (ms (quantile !latencies 0.99)));
        ];
      overhead;
    }
  end

(* ---- workload 4: an open-loop load on a separate lumpd process ---- *)

let run_dir = ".perfbench_run"

(* The daemon built next to this executable. *)
let lumpd_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/lumpd.exe"

type daemon = { pid : int; sock : string; access : string; log : string; mutable alive : bool }

let spawn_daemon () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s/lumpd-%d" run_dir (Unix.getpid ()) in
  let sock = tag ^ ".sock" and access = tag ^ ".access" and log = tag ^ ".log" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ sock; access; log ];
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let exe = lumpd_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; sock; "--max-inflight"; "2"; "--access-log"; access |]
      Unix.stdin out out
  in
  Unix.close out;
  { pid; sock; access; log; alive = true }

(* SIGTERM drains the daemon; it must be gone within 10 s. *)
let stop_daemon d =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
    in
    wait ();
    d.alive <- false
  end

let remove_files d = List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ d.sock; d.access; d.log ]

let connect_ready d =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Client.connect (Server.Unix_socket d.sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> (
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ when now () < deadline ->
            Unix.sleepf 0.002;
            go ()
        | 0, _ -> failwith "lumpd did not start listening within 30 s"
        | _ ->
            d.alive <- false;
            let ic = open_in d.log in
            let log = really_input_string ic (in_channel_length ic) in
            close_in ic;
            failwith ("lumpd exited during start-up:\n" ^ log))
  in
  go ()

let request c verb =
  let rq = { Proto.rq_id = None; rq_deadline_ms = None; rq_trace = false; rq_verb = verb } in
  match Client.request c rq with
  | Ok { Proto.resp_body = Ok p; _ } -> Some p
  | Ok { Proto.resp_body = Error (code, msg); _ } ->
      Printf.eprintf "perfbench: lumpd answered %s: %s\n%!" (Proto.error_code_string code) msg;
      None
  | Error msg ->
      Printf.eprintf "perfbench: lumpd transport error: %s\n%!" msg;
      None

let solve_measures = function
  | Some (Proto.Solve_result s) when s.Proto.so_converged -> Some (List.map snd s.Proto.so_measures)
  | _ -> None

(* Set-up: wait for the socket, submit both models, then one lump and
   one solve per model so that the engines are warm.  Returns, per
   model, its level sizes, whether the lump was answered and the solve's
   measures. *)
let lumpd_setup d =
  let c = connect_ready d in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.map
        (fun (name, family, params) ->
          let sizes =
            match
              request c
                (Proto.Submit_model
                   { sm_model = name; sm_family = family; sm_size = None; sm_params = params })
            with
            | Some (Proto.Model_info mi) -> Array.of_list mi.Proto.mi_level_sizes
            | _ -> failwith ("lumpd refused to build model " ^ name)
          in
          let lumped =
            request c (Proto.Lump { lp_model = name; lp_mode = Proto.Ordinary; lp_extra = [] })
          in
          let solved =
            solve_measures (request c (Proto.Solve { sv_model = name; sv_solver = Proto.Gauss_seidel }))
          in
          (name, sizes, lumped <> None, solved))
        lumpd_models)

(* The daemon's answers for the base rewards, computed in process. *)
let reference_measures ~traced =
  let run () =
    List.map
      (fun (name, _, _) ->
        let s =
          if name = "tandem" then
            let p = tandem_params ~jobs:1 ~hyper_dim:2 ~unit_exp:0 in
            pipeline (Tandem.model p) (tandem_rewards p)
          else pipeline (Kanban.model (kanban_params ~cards:3 ~unit_exp:0)) (kanban_rewards ~cell:None)
        in
        (name, s.measures))
      lumpd_models
  in
  let t = now () in
  let refs = run () in
  let untraced = now () -. t in
  if not traced then (refs, 1.0)
  else
    let t = now () in
    ignore (traced_unit run);
    (refs, (now () -. t) /. untraced)

type pending = { id : string; kind : string; model : string; due : float; sent : float }

type conn = { fd : Unix.file_descr; inbuf : Buffer.t; outstanding : pending Queue.t }

let open_conn sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; inbuf = Buffer.create 4096; outstanding = Queue.create () }

let chunk = Bytes.create 65536

(* Read what is available and hand every complete frame to [on_frame]. *)
let read_frames c on_frame =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "lumpd closed a load connection";
  Buffer.add_subbytes c.inbuf chunk 0 n;
  let s = Buffer.contents c.inbuf in
  let rec take pos =
    match String.index_from_opt s pos '\n' with
    | None -> pos
    | Some nl ->
        let len = int_of_string (String.sub s pos (nl - pos)) in
        if nl + len + 2 > String.length s then pos
        else begin
          on_frame (String.sub s (nl + 1) len);
          take (nl + len + 2)
        end
  in
  let used = take 0 in
  Buffer.clear c.inbuf;
  Buffer.add_string c.inbuf (String.sub s used (String.length s - used))

type sample = { s_id : string; s_kind : string; s_due : float; s_sent : float; s_recv : float }

(* The open loop: one thread, two connections, [Unix.select].  Work
   requests fall due at [work_rate] on the first connection, pings at
   [ping_rate] on the second; every latency runs from the moment the
   request was due, so a stall also delays the requests behind it. *)
let open_loop d ~seconds ~schedule ~sizes ~refs =
  let work = open_conn d.sock and probe = open_conn d.sock in
  let samples = ref [] in
  let tandem_sizes = List.assoc "tandem" sizes in
  let spec ind = { Proto.ind_level = ind.level; ind_ge = ind.ge; ind_k = threshold tandem_sizes ind } in
  let send c ~id ~kind ~model ~due verb =
    let rq = { Proto.rq_id = Some id; rq_deadline_ms = None; rq_trace = false; rq_verb = verb } in
    Proto.write_frame c.fd (Json.to_string (Proto.request_to_json rq));
    Queue.push { id; kind; model; due; sent = now () } c.outstanding
  in
  let on_frame c payload =
    let recv = now () in
    let p = Queue.pop c.outstanding in
    let ok =
      match Proto.response_of_string payload with
      | Error _ -> false
      | Ok resp -> (
          resp.Proto.resp_id = Some p.id
          &&
          match (p.kind, resp.Proto.resp_body) with
          | "ping", Ok Proto.Pong -> true
          | "lump", Ok (Proto.Lump_result l) -> l.Proto.lr_lumped_states > 0
          | "sweep", Ok (Proto.Sweep_result s) -> List.length s.Proto.sr_points = 4
          | "solve", body -> (
              match solve_measures (Result.to_option body) with
              | Some m -> bit_equal m (List.assoc p.model refs)
              | None -> false)
          | _ -> false)
    in
    check ok (Printf.sprintf "lumpd %s request %s answered Ok and correct" p.kind p.id);
    samples := { s_id = p.id; s_kind = p.kind; s_due = p.due; s_sent = p.sent; s_recv = recv } :: !samples
  in
  let t0 = now () +. 0.005 in
  let t_end = t0 +. seconds in
  let next_work = ref 0 and next_ping = ref 0 in
  let due_work i = t0 +. (float_of_int i /. work_rate) in
  let due_ping i = t0 +. (float_of_int i /. ping_rate) in
  let drain_deadline = t_end +. 60.0 in
  let idle () = Queue.is_empty work.outstanding && Queue.is_empty probe.outstanding in
  let finished () = now () >= t_end && idle () in
  while not (finished ()) do
    let t = now () in
    if t > drain_deadline then failwith "lumpd did not answer every request within 60 s";
    while due_work !next_work <= t && due_work !next_work < t_end do
      let i = !next_work in
      let id = Printf.sprintf "w%d" i and due = due_work i in
      (match schedule.(i) with
      | Lump inds ->
          send work ~id ~kind:"lump" ~model:"tandem" ~due
            (Proto.Lump { lp_model = "tandem"; lp_mode = Proto.Ordinary; lp_extra = List.map spec inds })
      | Sweep pts ->
          send work ~id ~kind:"sweep" ~model:"tandem" ~due
            (Proto.Sweep
               {
                 sw_model = "tandem";
                 sw_points = List.map (fun inds -> { Proto.pt_extra = List.map spec inds }) pts;
               })
      | Solve m ->
          send work ~id ~kind:"solve" ~model:m ~due
            (Proto.Solve { sv_model = m; sv_solver = Proto.Gauss_seidel }));
      incr next_work
    done;
    while due_ping !next_ping <= t && due_ping !next_ping < t_end do
      let i = !next_ping in
      send probe ~id:(Printf.sprintf "p%d" i) ~kind:"ping" ~model:"" ~due:(due_ping i)
        (Proto.Ping { pg_sleep_ms = 0 });
      incr next_ping
    done;
    let next_due = Float.min (due_work !next_work) (due_ping !next_ping) in
    let timeout = if next_due < t_end then Float.max 0.0 (next_due -. now ()) else 0.05 in
    match Unix.select [ work.fd; probe.fd ] [] [] timeout with
    | ready, _, _ ->
        List.iter (fun fd -> let c = if fd = work.fd then work else probe in read_frames c (on_frame c)) ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Unix.close work.fd;
  Unix.close probe.fd;
  (List.rev !samples, t0)

(* Per-verb queue and execution times from the daemon's access log,
   keyed by the client's request id. *)
let read_access_log path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> (
        let j = Json.parse line in
        let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
        let int k = match Json.member k j with Some (Json.Int n) -> n | _ -> 0 in
        match str "id" with
        | "" -> loop acc
        | id -> loop ((id, (str "verb", float_of_int (int "queue_ns") /. 1e9, float_of_int (int "exec_ns") /. 1e9, int "bytes")) :: acc))
    | exception End_of_file ->
        close_in ic;
        acc
  in
  loop []

let serve_extras samples log =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (id, v) -> Hashtbl.replace by_id id v) log;
  (* Client latency from the send, minus the daemon's queue and
     execution time: codec, socket, framing and runtime-lock wait. *)
  let wire kind =
    List.filter_map
      (fun s ->
        match Hashtbl.find_opt by_id s.s_id with
        | Some (_, q, e, _) when kind = "" || s.s_kind = kind -> Some (s.s_recv -. s.s_sent -. q -. e)
        | _ -> None)
      samples
  in
  let per_verb v =
    let rows = List.filter_map (fun (_, ((verb, _, _, _) as r)) -> if verb = v then Some r else None) log in
    if rows = [] then []
    else
      let q = List.map (fun (_, q, _, _) -> q) rows and e = List.map (fun (_, _, e, _) -> e) rows in
      [
        (Printf.sprintf "serve.%s.queue_p50_ms" v, Json.Float (ms (median q)));
        (Printf.sprintf "serve.%s.queue_p95_ms" v, Json.Float (ms (quantile q 0.95)));
        (Printf.sprintf "serve.%s.exec_p50_ms" v, Json.Float (ms (median e)));
        (Printf.sprintf "serve.%s.wire_p50_ms" v, Json.Float (ms (median (wire v))));
      ]
  in
  List.concat_map per_verb [ "lump"; "sweep"; "solve"; "ping" ]
  @ [
      ("serve.wire_p50_ms", Json.Float (ms (median (wire ""))));
      ("serve.resp_bytes", Json.Float (median (List.map (fun (_, (_, _, _, b)) -> float_of_int b) log)));
    ]

let run_lumpd ~seed ~seconds ~traced ~setup_only =
  calibrate ();
  let t = now () in
  let d = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon d;
      remove_files d)
    (fun () ->
      let warm = lumpd_setup d in
      let setup_s = now () -. t in
      calibrate ();
      let setup_speed = speed () in
      if setup_only then { setup_s; setup_speed; e2e = []; extras = []; overhead = 1.0 }
      else begin
        (* After the set-up, so that a set-up-only process times the
           same cold start as this one. *)
        let refs, overhead = reference_measures ~traced in
        List.iter
          (fun (name, _, lumped, solved) ->
            check lumped (Printf.sprintf "lumpd warm-up lump of %s" name);
            check
              (match solved with Some m -> bit_equal m (List.assoc name refs) | None -> false)
              (Printf.sprintf "lumpd warm-up solve of %s is bit-equal to the in-process one" name))
          warm;
        let sizes = List.map (fun (name, sizes, _, _) -> (name, sizes)) warm in
        let schedule = work_schedule seed (int_of_float (Float.ceil (seconds *. work_rate)) + 1) in
        let samples, t0 = open_loop d ~seconds ~schedule ~sizes ~refs in
        let rss = peak_rss_mb (string_of_int d.pid) in
        stop_daemon d;
        let of_kind p = List.filter p samples in
        let work = of_kind (fun s -> s.s_kind <> "ping") and pings = of_kind (fun s -> s.s_kind = "ping") in
        let latency l = List.map (fun s -> s.s_recv -. s.s_due) l in
        let late = List.map (fun s -> s.s_sent -. s.s_due) samples in
        let last_recv = List.fold_left (fun acc s -> Float.max acc s.s_recv) t0 work in
        let completed_rps = float_of_int (List.length work) /. (last_recv -. t0) in
        let count k = Json.Int (List.length (of_kind (fun s -> s.s_kind = k))) in
        {
          setup_s;
          setup_speed;
          (* The gated latency is the ping's: a request that does no
             library work, so it measures what only this workload runs
             (framing, codec, the queue behind work requests, the thread
             hand-off).  It is not scaled: a ping's time is thread
             wake-ups and socket hops, which the calibration kernel does
             not track, and scaling it widened its spread between runs.
             The work requests' latency is the daemon's execution after
             an idle gap; it moves by 8-15% between runs and is kept
             ungated in the result file. *)
          e2e =
            [
              ("latency_p50_ms", ms (median (latency pings)), "ms", Plain);
              ("throughput_per_s", completed_rps, "1/s", Plain);
              ("peak_rss_mb", rss, "MB", Plain);
            ];
          extras =
            [
              ("offered_work_rps", Json.Float work_rate);
              ("offered_ping_rps", Json.Float ping_rate);
              ("requests", Json.Obj (List.map (fun k -> (k, count k)) [ "lump"; "sweep"; "solve"; "ping" ]));
              ( "latency_p50_ms_by_verb",
                Json.Obj
                  (List.map
                     (fun k -> (k, Json.Float (ms (median (latency (of_kind (fun s -> s.s_kind = k)))))))
                     [ "lump"; "sweep"; "solve" ]) );
              ("work_p50_ms", Json.Float (ms (median (latency work))));
              ("work_p95_ms", Json.Float (ms (quantile (latency work) 0.95)));
              ("ping_p99_ms", Json.Float (ms (quantile (latency pings) 0.99)));
              ("gen.late_p99_ms", Json.Float (ms (quantile late 0.99)));
            ]
            @ serve_extras samples (read_access_log d.access);
          overhead;
        }
      end)

(* ---- main ---- *)

let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false and dry_run = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed every input is generated from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--setup-only", Arg.Set setup_only, " run the set-up once and print its time");
      ("--dry-run", Arg.Set dry_run, " print a digest of every generated input and run nothing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setup-only] | --dry-run";
  if !dry_run then
    List.iter (fun w -> Printf.printf "%s seed=%d inputs=%s\n" w !seed (input_digest w !seed)) workloads
  else begin
    let traced = !trace = 1 in
    if traced then begin
      (* Arm the trace buffer once; units resume into it.  Per-span Gc
         sampling would cost more than some of the spans it measures. *)
      Trace.start ~gc:false ();
      Trace.stop ()
    end;
    let seed = !seed and seconds = !seconds and setup_only = !setup_only in
    let run =
      match !workload with
      | "tandem-j2-measures" -> run_pipelines ~kanban:false ~seed ~seconds ~traced ~setup_only
      | "kanban-n5-solve" -> run_pipelines ~kanban:true ~seed ~seconds ~traced ~setup_only
      | "tandem-d3-sweep" -> run_sweep ~seed ~seconds ~traced ~setup_only
      | "lumpd-open-mix" -> run_lumpd ~seed ~seconds ~traced ~setup_only
      | w ->
          Printf.eprintf "unknown workload %S (known: %s)\n" w (String.concat ", " workloads);
          exit 2
    in
    let speed = speed () in
    let setup_s = run.setup_s *. run.setup_speed in
    if setup_only then print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float setup_s) ]))
    else begin
      let at_reference (name, v, unit, scale) =
        (name, (match scale with Time -> v *. speed | Rate -> v /. speed | Plain -> v), unit)
      in
      let metrics =
        if traced then per_layer_metrics ~overhead:run.overhead
        else ("setup_s", setup_s, "s") :: List.map at_reference run.e2e
      in
      List.iter (fun (n, v, u) -> Printf.printf "%-28s %14.6f %s\n" n v u) metrics;
      let env =
        [
          ("workload", Json.Str !workload);
          ("seed", Json.Int seed);
          ("trace", Json.Int !trace);
          ("seconds", Json.Float seconds);
          ("domains", Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Json.Str Sys.ocaml_version);
        ]
      in
      let measured =
        [
          ("speed", Json.Float speed);
          ("setup_speed", Json.Float run.setup_speed);
          ("calibrations", Json.Int (List.length !slice_samples));
          ( "raw",
            Json.Obj
              (("setup_s", Json.Float run.setup_s) :: List.map (fun (n, v, _, _) -> (n, Json.Float v)) run.e2e) );
        ]
      in
      print_endline ("extras: " ^ Json.to_string (Json.Obj (env @ measured @ run.extras)));
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (!failed = 0));
                ("attempted", Json.Int !attempted);
                ("failed", Json.Int !failed);
                ("metrics", Json.Obj (List.map metric_json metrics));
              ]));
      if !failed > 0 then exit 1
    end
  end
