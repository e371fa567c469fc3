(* Tests for CTMCs, MRPs, solvers and measures. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Ctmc = Mdl_ctmc.Ctmc
module Mrp = Mdl_ctmc.Mrp
module Solver = Mdl_ctmc.Solver
module Measures = Mdl_ctmc.Measures

(* Birth-death chain on n states with birth rate lam, death rate mu. *)
let birth_death n lam mu =
  let triplets = ref [] in
  for i = 0 to n - 2 do
    triplets := (i, i + 1, lam) :: (i + 1, i, mu) :: !triplets
  done;
  Ctmc.of_triplets n !triplets

let test_generator_row_sums_zero () =
  let c = birth_death 5 2.0 3.0 in
  let q = Ctmc.generator c in
  Array.iter
    (fun s -> Alcotest.(check (float 1e-12)) "row sum" 0.0 s)
    (Csr.row_sums q)

let test_rejects_negative_rate () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Ctmc.of_rates: negative rate -1 at (0,1)") (fun () ->
      ignore (Ctmc.of_triplets 2 [ (0, 1, -1.0) ]));
  (* A NaN or infinite rate used to be accepted, and every solver then
     ran to its iteration limit on it and returned NaN. *)
  Alcotest.check_raises "nan rate"
    (Invalid_argument "Ctmc.of_rates: non-finite rate nan at (0,1)") (fun () ->
      ignore (Ctmc.of_triplets 2 [ (0, 1, nan); (1, 0, 1.0) ]));
  Alcotest.check_raises "infinite rate"
    (Invalid_argument "Ctmc.of_rates: non-finite rate inf at (0,1)") (fun () ->
      ignore (Ctmc.of_triplets 2 [ (0, 1, infinity); (1, 0, 1.0) ]))

let test_rejects_non_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Ctmc.of_rates: matrix is not square") (fun () ->
      ignore (Ctmc.of_rates (Csr.of_triplets ~rows:2 ~cols:3 [])))

let test_uniformized_stochastic () =
  let c = birth_death 6 1.0 4.0 in
  let p, lambda = Ctmc.uniformized c in
  Alcotest.(check bool) "lambda covers max rate" true (lambda >= Ctmc.max_exit_rate c);
  Array.iter
    (fun s -> Alcotest.(check (float 1e-12)) "P row sum 1" 1.0 s)
    (Csr.row_sums p);
  Csr.iter (fun _ _ v -> Alcotest.(check bool) "P nonneg" true (v >= 0.0)) p

let test_uniformized_bad_lambda () =
  let c = birth_death 3 5.0 5.0 in
  Alcotest.check_raises "lambda too small"
    (Invalid_argument "Ctmc.uniformized: lambda below max exit rate") (fun () ->
      ignore (Ctmc.uniformized ~lambda:0.1 c))

(* Closed form: stationary of birth-death is geometric in rho = lam/mu. *)
let birth_death_stationary n lam mu =
  let rho = lam /. mu in
  let pi = Array.init n (fun i -> rho ** float_of_int i) in
  Vec.normalize1 pi;
  pi

let test_steady_state_birth_death () =
  let n = 8 and lam = 2.0 and mu = 3.0 in
  let c = birth_death n lam mu in
  let pi, stats = Solver.steady_state ~tol:1e-14 c in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  Alcotest.(check bool) "matches closed form" true
    (Vec.diff_inf pi (birth_death_stationary n lam mu) < 1e-9)

let test_gauss_seidel_matches_power () =
  let c = birth_death 10 1.5 2.5 in
  let pi_p, _ = Solver.steady_state ~tol:1e-14 c in
  let pi_gs, stats = Solver.steady_state_gauss_seidel ~tol:1e-14 c in
  Alcotest.(check bool) "gs converged" true stats.Solver.converged;
  Alcotest.(check bool) "gs = power" true (Vec.diff_inf pi_p pi_gs < 1e-8)

(* Regression: the sweep used to skip zero-diagonal states silently, so
   absorbing states kept their stale 1/n initial mass and the returned
   distribution was quietly wrong.  Now the degenerate chain is rejected
   up front, naming the offending state. *)
let test_gauss_seidel_rejects_absorbing () =
  let absorbing = Ctmc.of_triplets 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  Alcotest.check_raises "absorbing state"
    (Invalid_argument
       "Solver.steady_state_gauss_seidel: absorbing state 2 (zero generator diagonal)")
    (fun () -> ignore (Solver.steady_state_gauss_seidel absorbing));
  (* A state with only a self loop also has a zero generator diagonal. *)
  let self_loop_only = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 1, 5.0) ] in
  Alcotest.check_raises "self-loop-only state"
    (Invalid_argument
       "Solver.steady_state_gauss_seidel: absorbing state 1 (zero generator diagonal)")
    (fun () -> ignore (Solver.steady_state_gauss_seidel self_loop_only));
  Alcotest.check_raises "bad relaxation factor"
    (Invalid_argument "Solver.steady_state_gauss_seidel: relax must be in (0, 1]")
    (fun () ->
      ignore (Solver.steady_state_gauss_seidel ~relax:1.5 (birth_death 3 1.0 1.0)));
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Solver.steady_state_gauss_seidel: empty chain") (fun () ->
      ignore (Solver.steady_state_gauss_seidel (Ctmc.of_triplets 0 [])));
  (* The check names the lowest such state in the caller's numbering
     also when the sweep runs in RCM order, which reverses this path:
     state 1 sweeps at position 3 and state 4 at position 0. *)
  let two_absorbing =
    Ctmc.of_triplets 5 [ (0, 1, 1.0); (2, 1, 1.0); (2, 3, 1.0); (3, 2, 1.0); (3, 4, 1.0) ]
  in
  Alcotest.check_raises "absorbing state, rcm order"
    (Invalid_argument
       "Solver.steady_state_gauss_seidel: absorbing state 1 (zero generator diagonal)")
    (fun () ->
      ignore (Solver.steady_state_gauss_seidel ~ordering:Solver.Rcm two_absorbing))

(* The sweep plan's contract: a square rate matrix and a diagonal of
   its size to build one, and a vector of the plan's size to sweep. *)
let test_sweep_plan_rejects_mismatches () =
  let r = Ctmc.rates (birth_death 3 1.0 2.0) in
  let diag = Array.make 3 (-1.0) in
  Alcotest.check_raises "non-square matrix"
    (Invalid_argument "Csr.sweep_plan: matrix is not square") (fun () ->
      ignore (Csr.sweep_plan (Csr.of_triplets ~rows:3 ~cols:4 [ (0, 1, 1.0) ]) ~diag));
  Alcotest.check_raises "diagonal of the wrong length"
    (Invalid_argument "Csr.sweep_plan: diagonal length mismatch") (fun () ->
      ignore (Csr.sweep_plan r ~diag:(Array.make 2 (-1.0))));
  let plan = Csr.sweep_plan r ~diag in
  List.iter
    (fun len ->
      Alcotest.check_raises
        (Printf.sprintf "vector of length %d" len)
        (Invalid_argument "Csr.sor_sweep: vector length does not match the plan")
        (fun () -> ignore (Csr.sor_sweep plan ~relax:1.0 (Array.make len 0.5))))
    [ 2; 4 ]

(* A finite chain whose sweep overflows: state 0 leaves at 1e-300 and
   is entered at 1e300, so pi(0) becomes infinite and the rescaled
   iterate NaN.  A NaN residual must never count as converged. *)
let test_gauss_seidel_nan_never_converges () =
  let c = Ctmc.of_triplets 2 [ (0, 1, 1e-300); (1, 0, 1e300) ] in
  let pi, st = Solver.steady_state_gauss_seidel ~max_iter:5 c in
  Alcotest.(check bool) "not converged" false st.Solver.converged;
  Alcotest.(check int) "ran to max_iter" 5 st.Solver.iterations;
  Alcotest.(check bool) "nan residual" true (Float.is_nan st.Solver.residual);
  Alcotest.(check bool) "nan iterate" true (Array.exists Float.is_nan pi)

let test_krylov_birth_death () =
  let n = 8 and lam = 2.0 and mu = 3.0 in
  let c = birth_death n lam mu in
  let expected = birth_death_stationary n lam mu in
  let pi, stats = Solver.steady_state_krylov ~tol:1e-13 c in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  Alcotest.(check bool) "matches closed form" true (Vec.diff_inf pi expected < 1e-9);
  let pi_p, stats_p = Solver.steady_state ~tol:1e-13 c in
  Alcotest.(check bool) "fewer iterations than power" true
    (stats.Solver.iterations <= stats_p.Solver.iterations);
  Alcotest.(check bool) "matches power" true (Vec.diff_inf pi pi_p < 1e-9)

(* BiCGStab on a CSR operator allocates its vectors once: with [tol] 0
   it runs exactly [max_iter] steps, and 10 more steps on 2,000 states
   cost less than one vector's worth of words (each step used to
   allocate two). *)
let test_krylov_allocation_flat_in_steps () =
  let n = 2_000 in
  let p, _ = Ctmc.uniformized (birth_death n 2.0 3.0) in
  let op = Solver.operator_of_csr p and diag = Csr.diagonal p in
  let solve steps () =
    let _, st = Solver.krylov ~tol:0.0 ~max_iter:steps ~diag op in
    Alcotest.(check int) "steps" steps st.Solver.iterations
  in
  let extra = Counters.words (solve 20) -. Counters.words (solve 10) in
  Alcotest.(check bool)
    (Printf.sprintf "10 more steps allocate %.0f words" extra)
    true
    (extra < float_of_int n)

let test_krylov_trivial_chain () =
  (* One state: the normalisation column makes the 1x1 system [1] x = 1. *)
  let c = Ctmc.of_triplets 1 [ (0, 0, 2.0) ] in
  let pi, stats = Solver.steady_state_krylov c in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  Alcotest.(check (float 0.0)) "pi = [1]" 1.0 pi.(0)

let test_steady_state_with_dispatch () =
  (* Each steady-state solver at its default ordering and relaxation. *)
  let c = birth_death 6 1.0 2.0 in
  let expected = birth_death_stationary 6 1.0 2.0 in
  List.iter
    (fun (m, solve) ->
      let pi, stats = solve c in
      Alcotest.(check bool) (Solver.method_name m ^ " converged") true
        stats.Solver.converged;
      Alcotest.(check bool) (Solver.method_name m ^ " matches closed form") true
        (Vec.diff_inf pi expected < 1e-8))
    [
      (Solver.Power, fun c -> Solver.steady_state ~tol:1e-13 c);
      (Solver.Gauss_seidel, fun c -> Solver.steady_state_gauss_seidel ~tol:1e-13 c);
      (Solver.Krylov, fun c -> Solver.steady_state_krylov ~tol:1e-13 c);
    ]

let poisson_pmf qt k =
  (* e^{-qt} qt^k / k! computed stably in log space. *)
  let log_fact = ref 0.0 in
  for i = 2 to k do
    log_fact := !log_fact +. log (float_of_int i)
  done;
  exp ((float_of_int k *. log qt) -. qt -. !log_fact)

let test_poisson_weights_match_pmf () =
  let qt = 2.5 and epsilon = 1e-12 in
  let w = Solver.poisson_weights ~epsilon ~qt in
  Array.iteri
    (fun k wk ->
      Alcotest.(check (float 1e-10)) (Printf.sprintf "w(%d)" k) (poisson_pmf qt k) wk)
    w;
  Alcotest.(check bool) "covers the mass" true
    (Array.fold_left ( +. ) 0.0 w >= 1.0 -. 1e-9)

(* Regression: the weights used to be normalised by the full untruncated
   sum, so they under-counted the retained mass by up to epsilon.  They
   must now sum to exactly 1 over the truncated support, also for large
   qt and loose epsilon (where the truncation actually bites). *)
let test_poisson_weights_renormalised () =
  List.iter
    (fun (qt, epsilon) ->
      let w = Solver.poisson_weights ~epsilon ~qt in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "sum to 1 (qt %g, eps %g)" qt epsilon)
        1.0
        (Array.fold_left ( +. ) 0.0 w);
      let mode = int_of_float qt in
      let r_max = mode + 10 + int_of_float ((8.0 *. sqrt (qt +. 1.0)) +. qt) in
      Alcotest.(check bool) "within the truncation bound" true
        (Array.length w <= r_max + 1))
    [ (0.5, 1e-12); (4.0, 1e-6); (57.3, 1e-12); (400.0, 1e-4) ];
  let w0 = Solver.poisson_weights ~epsilon:1e-12 ~qt:0.0 in
  Alcotest.(check bool) "qt = 0 is the point mass" true (w0 = [| 1.0 |])

let test_transient_zero_time () =
  let c = birth_death 4 1.0 1.0 in
  let pi0 = Mrp.point_initial 4 2 in
  let pi = Solver.transient ~t:0.0 c pi0 in
  Alcotest.(check bool) "t=0 returns pi0" true (Vec.approx_equal pi pi0)

let test_transient_conserves_mass () =
  let c = birth_death 5 2.0 1.0 in
  let pi0 = Mrp.point_initial 5 0 in
  List.iter
    (fun t ->
      let pi = Solver.transient ~t c pi0 in
      Alcotest.(check (float 1e-9)) "mass 1" 1.0 (Vec.sum pi);
      Array.iter (fun p -> Alcotest.(check bool) "nonneg" true (p >= -1e-12)) pi)
    [ 0.01; 0.5; 1.0; 10.0 ]

let test_transient_converges_to_steady_state () =
  let c = birth_death 5 1.0 2.0 in
  let pi0 = Mrp.point_initial 5 4 in
  let pi_t = Solver.transient ~t:200.0 c pi0 in
  let pi_inf, _ = Solver.steady_state ~tol:1e-14 c in
  Alcotest.(check bool) "transient -> stationary" true (Vec.diff_inf pi_t pi_inf < 1e-7)

let test_transient_two_state_closed_form () =
  (* For a two-state chain with rates a (0->1) and b (1->0), starting in 0:
     p1(t) = a/(a+b) (1 - e^{-(a+b)t}). *)
  let a = 2.0 and b = 3.0 in
  let c = Ctmc.of_triplets 2 [ (0, 1, a); (1, 0, b) ] in
  let pi0 = Mrp.point_initial 2 0 in
  List.iter
    (fun t ->
      let pi = Solver.transient ~t c pi0 in
      let expected = a /. (a +. b) *. (1.0 -. exp (-.(a +. b) *. t)) in
      Alcotest.(check (float 1e-9)) "closed form" expected pi.(1))
    [ 0.1; 0.3; 1.0; 2.5 ]

let test_irreducibility () =
  Alcotest.(check bool) "birth-death irreducible" true (Ctmc.is_irreducible (birth_death 4 1.0 1.0));
  let absorbing = Ctmc.of_triplets 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  Alcotest.(check bool) "absorbing chain reducible" false (Ctmc.is_irreducible absorbing)

let test_self_loops_do_not_change_generator () =
  let without = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let with_loops = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 0, 2.0); (0, 0, 5.0); (1, 1, 7.0) ] in
  Alcotest.(check bool) "Q identical" true
    (Csr.approx_equal (Ctmc.generator without) (Ctmc.generator with_loops))

let test_mrp_validation () =
  let c = birth_death 3 1.0 1.0 in
  Alcotest.check_raises "bad init sum"
    (Invalid_argument "Mrp.make: initial distribution sums to 2, not 1") (fun () ->
      ignore (Mrp.make ~ctmc:c ~rewards:[| 0.; 0.; 0. |] ~initial:[| 1.0; 1.0; 0.0 |]));
  Alcotest.check_raises "negative init"
    (Invalid_argument "Mrp.make: negative initial probability") (fun () ->
      ignore (Mrp.make ~ctmc:c ~rewards:[| 0.; 0.; 0. |] ~initial:[| 2.0; -1.0; 0.0 |]));
  Alcotest.check_raises "reward size"
    (Invalid_argument "Mrp.make: reward vector size mismatch") (fun () ->
      ignore (Mrp.make ~ctmc:c ~rewards:[| 0.0 |] ~initial:(Mrp.uniform_initial 3)))

let test_measures () =
  (* Availability of a 2-state machine: up (reward 1), down (reward 0). *)
  let fail = 1.0 and repair = 9.0 in
  let c = Ctmc.of_triplets 2 [ (0, 1, fail); (1, 0, repair) ] in
  let m = Mrp.make ~ctmc:c ~rewards:[| 1.0; 0.0 |] ~initial:(Mrp.point_initial 2 0) in
  let avail = Measures.steady_state_reward ~tol:1e-14 m in
  Alcotest.(check (float 1e-9)) "availability" (repair /. (fail +. repair)) avail;
  let tr = Measures.transient_reward ~t:0.0 m in
  Alcotest.(check (float 1e-12)) "transient reward at 0" 1.0 tr;
  let acc = Measures.accumulated_reward ~t:1.0 ~steps:128 m in
  Alcotest.(check bool) "accumulated in (0.9, 1.0)" true (acc > 0.9 && acc < 1.0)

(* --- DTMCs --- *)

let test_dtmc_validation () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Dtmc.of_matrix: matrix is not square") (fun () ->
      ignore (Mdl_ctmc.Dtmc.of_matrix (Csr.of_triplets ~rows:1 ~cols:2 [ (0, 0, 1.0) ])));
  Alcotest.check_raises "bad row sum"
    (Invalid_argument "Dtmc.of_matrix: row 0 sums to 0.5, not 1") (fun () ->
      ignore (Mdl_ctmc.Dtmc.of_matrix (Csr.of_dense [| [| 0.5 |] |])));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dtmc.of_matrix: negative entry -1 at (0,0)") (fun () ->
      ignore (Mdl_ctmc.Dtmc.of_matrix (Csr.of_dense [| [| -1.0; 2.0 |]; [| 0.5; 0.5 |] |])))

let test_dtmc_step_and_stationary () =
  let p = Mdl_ctmc.Dtmc.of_matrix (Csr.of_dense [| [| 0.5; 0.5 |]; [| 0.25; 0.75 |] |]) in
  let pi1 = Mdl_ctmc.Dtmc.step p [| 1.0; 0.0 |] in
  Alcotest.(check bool) "one step" true (Vec.approx_equal pi1 [| 0.5; 0.5 |]);
  let pi2 = Mdl_ctmc.Dtmc.distribution_after p 2 [| 1.0; 0.0 |] in
  Alcotest.(check bool) "two steps" true (Vec.approx_equal pi2 [| 0.375; 0.625 |]);
  let pi, stats = Mdl_ctmc.Dtmc.stationary ~tol:1e-14 p in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  (* stationary of this chain: (1/3, 2/3) *)
  Alcotest.(check bool) "stationary" true
    (Vec.diff_inf pi [| 1.0 /. 3.0; 2.0 /. 3.0 |] < 1e-9)

let test_dtmc_embedded () =
  let c = Ctmc.of_triplets 3 [ (0, 1, 1.0); (0, 2, 3.0); (1, 0, 2.0) ] in
  let p = Mdl_ctmc.Dtmc.embedded_of_ctmc c in
  let m = Mdl_ctmc.Dtmc.matrix p in
  Alcotest.(check (float 1e-12)) "jump probability" 0.25 (Csr.get m 0 1);
  Alcotest.(check (float 1e-12)) "jump probability" 0.75 (Csr.get m 0 2);
  (* state 2 is absorbing -> self loop *)
  Alcotest.(check (float 1e-12)) "absorbing self-loop" 1.0 (Csr.get m 2 2)

let test_dtmc_uniformized_agrees () =
  let c = birth_death 5 1.0 2.0 in
  let p, _ = Mdl_ctmc.Dtmc.uniformized_of_ctmc c in
  let pi_d, _ = Mdl_ctmc.Dtmc.stationary ~tol:1e-14 p in
  let pi_c, _ = Solver.steady_state ~tol:1e-14 c in
  Alcotest.(check bool) "same stationary" true (Vec.diff_inf pi_d pi_c < 1e-9)

(* --- absorption analysis --- *)

let test_mtta_linear_chain () =
  (* 0 -> 1 -> 2 (absorbing) at rate lam: t(1) = 1/lam, t(0) = 2/lam. *)
  let lam = 4.0 in
  let c = Ctmc.of_triplets 3 [ (0, 1, lam); (1, 2, lam) ] in
  let t, stats = Mdl_ctmc.Absorption.mean_time_to_absorption c ~absorbing:(fun i -> i = 2) in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  Alcotest.(check (float 1e-9)) "t(2)" 0.0 t.(2);
  Alcotest.(check (float 1e-9)) "t(1)" (1.0 /. lam) t.(1);
  Alcotest.(check (float 1e-9)) "t(0)" (2.0 /. lam) t.(0)

let test_mtta_with_repair () =
  (* up <-> degraded -> down(absorbing): closed form MTTF from up.
     up -f-> degraded, degraded -r-> up, degraded -g-> down.
     t(deg) = (1 + r t(up)) / (r+g); t(up) = 1/f + t(deg)
     => t(up) = (r + g + f) / (f g). *)
  let f = 0.5 and r = 3.0 and g = 0.2 in
  let c = Ctmc.of_triplets 3 [ (0, 1, f); (1, 0, r); (1, 2, g) ] in
  let t, _ = Mdl_ctmc.Absorption.mean_time_to_absorption c ~absorbing:(fun i -> i = 2) in
  Alcotest.(check (float 1e-8)) "MTTF closed form" ((r +. g +. f) /. (f *. g)) t.(0)

let test_mtta_validation () =
  let c = Ctmc.of_triplets 2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.check_raises "no absorbing"
    (Invalid_argument "Absorption.mean_time_to_absorption: no absorbing state")
    (fun () ->
      ignore (Mdl_ctmc.Absorption.mean_time_to_absorption c ~absorbing:(fun _ -> false)));
  (* state 2 cannot reach the absorbing state 3 *)
  let c' = Ctmc.of_triplets 4 [ (0, 1, 1.0); (1, 3, 1.0); (2, 2, 1.0) ] in
  Alcotest.check_raises "unreachable absorbing"
    (Invalid_argument
       "Absorption.mean_time_to_absorption: state 2 cannot reach an absorbing state")
    (fun () ->
      ignore (Mdl_ctmc.Absorption.mean_time_to_absorption c' ~absorbing:(fun i -> i = 3)))

let test_absorption_probabilities () =
  (* gambler's ruin on {0..4}, p = q: hit 4 before 0 from i is i/4. *)
  let c =
    Ctmc.of_triplets 5
      [ (1, 0, 1.0); (1, 2, 1.0); (2, 1, 1.0); (2, 3, 1.0); (3, 2, 1.0); (3, 4, 1.0) ]
  in
  let h, stats =
    Mdl_ctmc.Absorption.absorption_probabilities c
      ~absorbing:(fun i -> i = 0 || i = 4)
      ~target:(fun i -> i = 4)
  in
  Alcotest.(check bool) "converged" true stats.Solver.converged;
  List.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "h(%d)" i) expected h.(i))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Alcotest.check_raises "target not absorbing"
    (Invalid_argument "Absorption.absorption_probabilities: target state 2 not absorbing")
    (fun () ->
      ignore
        (Mdl_ctmc.Absorption.absorption_probabilities c
           ~absorbing:(fun i -> i = 0 || i = 4)
           ~target:(fun i -> i = 2)))

(* A sweep of the absorption solver allocates nothing: with [tol] 0 the
   solve runs exactly [max_iter] sweeps, and 10 more sweeps over 2,000
   states cost no more words than the set-up's variation. *)
let test_absorption_sweep_allocates_nothing () =
  let n = 2_000 in
  let c =
    Ctmc.of_triplets n
      (List.concat
         (List.init (n - 1) (fun i -> [ (i, i + 1, 1.0); (i + 1, i, 0.5 +. float_of_int (i mod 3)) ])))
  in
  let solve sweeps () =
    let _, st =
      Mdl_ctmc.Absorption.mean_time_to_absorption ~tol:0.0 ~max_iter:sweeps c
        ~absorbing:(fun i -> i = n - 1)
    in
    Alcotest.(check int) "sweeps" sweeps st.Solver.iterations
  in
  let extra = Counters.words (solve 20) -. Counters.words (solve 10) in
  Alcotest.(check bool)
    (Printf.sprintf "10 more sweeps allocate %.0f words" extra)
    true (extra < 100.0)

let test_mtta_agrees_with_transient_tail () =
  (* MTTA equals the integral of the survival probability: cross-check
     against transient analysis on a small random-ish chain. *)
  let c = Ctmc.of_triplets 3 [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 0.5) ] in
  let absorbing i = i = 2 in
  let t, _ = Mdl_ctmc.Absorption.mean_time_to_absorption c ~absorbing in
  (* integrate P(not absorbed by time u) from 0 with the trapezoid rule *)
  let pi0 = Mrp.point_initial 3 0 in
  let horizon = 60.0 and steps = 6000 in
  let h = horizon /. float_of_int steps in
  let survival u =
    let pi = Solver.transient ~t:u c pi0 in
    1.0 -. pi.(2)
  in
  let acc = ref ((survival 0.0 +. survival horizon) /. 2.0) in
  for k = 1 to steps - 1 do
    acc := !acc +. survival (h *. float_of_int k)
  done;
  Alcotest.(check bool) "integral matches MTTA" true
    (Float.abs ((!acc *. h) -. t.(0)) < 1e-2)

(* Gauss–Seidel as it was written before the sweep became
   [Csr.sor_sweep]: the transposed generator swept through a closure,
   [Vec.normalize1], and a [Vec.copy] of pi per sweep.  The reference the
   kernel must match bit for bit. *)
let reference_gauss_seidel ~tol ~max_iter ~ordering ~relax ctmc =
  let solve ctmc =
    let n = Ctmc.size ctmc in
    let qt = Csr.transpose (Ctmc.generator ctmc) in
    let pi = Array.make n (1.0 /. float_of_int n) in
    let sweep () =
      for j = 0 to n - 1 do
        let incoming = ref 0.0 and diag = ref 0.0 in
        Csr.iter_row qt j (fun i v ->
            if i = j then diag := v else incoming := !incoming +. (pi.(i) *. v));
        let gs = !incoming /. -. !diag in
        pi.(j) <- (if relax = 1.0 then gs else ((1.0 -. relax) *. pi.(j)) +. (relax *. gs))
      done;
      Vec.normalize1 pi
    in
    let rec loop k prev =
      sweep ();
      let diff = Vec.diff_inf pi prev in
      if diff <= tol then { Solver.iterations = k; residual = diff; converged = true }
      else if k >= max_iter then { Solver.iterations = k; residual = diff; converged = false }
      else loop (k + 1) (Vec.copy pi)
    in
    let st = loop 1 (Vec.copy pi) in
    (pi, st)
  in
  match ordering with
  | Solver.Natural -> solve ctmc
  | Solver.Rcm ->
      let perm = Mdl_sparse.Ordering.rcm (Ctmc.rates ctmc) in
      let pi, st = solve (Ctmc.of_rates (Csr.permute (Ctmc.rates ctmc) ~perm)) in
      (Vec.scatter pi perm, st)

let qcheck_tests =
  let open QCheck in
  let gen_chain =
    Gen.(
      let* n = int_range 2 7 in
      let* triplets =
        list_size (int_range 1 25)
          (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
             (map (fun k -> float_of_int (k + 1)) (int_range 0 4)))
      in
      return (n, triplets))
  in
  let arb_chain =
    make
      ~print:(fun (n, t) ->
        Printf.sprintf "n=%d [%s]" n
          (String.concat ";" (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
      gen_chain
  in
  [
    Test.make ~count:200 ~name:"generator rows sum to zero" arb_chain (fun (n, t) ->
        let c = Ctmc.of_triplets n t in
        Array.for_all (fun s -> Float.abs s < 1e-9) (Csr.row_sums (Ctmc.generator c)));
    Test.make ~count:100 ~name:"transient preserves probability mass" arb_chain
      (fun (n, t) ->
        let c = Ctmc.of_triplets n t in
        let pi = Solver.transient ~t:0.7 c (Mrp.uniform_initial n) in
        Float.abs (Vec.sum pi -. 1.0) < 1e-9);
    Test.make ~count:100 ~name:"uniformized matrix is stochastic" arb_chain
      (fun (n, t) ->
        let c = Ctmc.of_triplets n t in
        let p, _ = Ctmc.uniformized c in
        Array.for_all (fun s -> Float.abs (s -. 1.0) < 1e-9) (Csr.row_sums p));
    (* Differential solver agreement: three algorithmically unrelated
       kernels (power iteration, under-relaxed Gauss–Seidel with an RCM
       sweep order, preconditioned BiCGStab) must land on the same
       stationary distribution of a random ergodic chain. *)
    Test.make ~count:40 ~name:"power/gauss-seidel/krylov agree on ergodic chains"
      (make ~print:string_of_int Gen.(int_range 0 9999))
      (fun seed ->
        let spec =
          { Mdl_oracle.Spec.states = 8 + (seed mod 25);
            extra = 2 + (3 * (seed mod 7));
            planted = false;
            seed }
        in
        let c = Mdl_oracle.Gen_chain.ctmc (Mdl_util.Prng.of_seed seed) spec in
        let pi_p, st_p = Solver.steady_state ~tol:1e-13 ~max_iter:200_000 c in
        let pi_g, st_g =
          Solver.steady_state_gauss_seidel ~tol:1e-13 ~max_iter:100_000
            ~ordering:Solver.Rcm ~relax:0.9 c
        in
        let pi_k, st_k =
          Solver.steady_state_krylov ~tol:1e-13 ~max_iter:100_000 c
        in
        st_p.Solver.converged && st_g.Solver.converged && st_k.Solver.converged
        && Vec.diff_inf pi_p pi_g < 1e-6
        && Vec.diff_inf pi_p pi_k < 1e-6);
    (* The kernel does the reference's floating-point operations in the
       reference's order, so pi, the iteration count and the residual
       agree to the bit, in both orderings, converged or not. *)
    Test.make ~count:40 ~name:"gauss-seidel matches the reference sweep bit for bit"
      (make ~print:string_of_int Gen.(int_range 0 9999))
      (fun seed ->
        let spec =
          { Mdl_oracle.Spec.states = 8 + (seed mod 25);
            extra = 2 + (3 * (seed mod 7));
            planted = false;
            seed }
        in
        let c = Mdl_oracle.Gen_chain.ctmc (Mdl_util.Prng.of_seed seed) spec in
        let bits = Int64.bits_of_float in
        List.for_all
          (fun (ordering, relax) ->
            let pi, st =
              Solver.steady_state_gauss_seidel ~tol:1e-13 ~max_iter:2_000 ~ordering ~relax c
            in
            let pi_ref, st_ref =
              reference_gauss_seidel ~tol:1e-13 ~max_iter:2_000 ~ordering ~relax c
            in
            Array.length pi = Array.length pi_ref
            && Array.for_all2 (fun a b -> bits a = bits b) pi pi_ref
            && st.Solver.iterations = st_ref.Solver.iterations
            && st.Solver.converged = st_ref.Solver.converged
            && bits st.Solver.residual = bits st_ref.Solver.residual)
          [ (Solver.Natural, 1.0); (Solver.Natural, 0.9); (Solver.Rcm, 1.0); (Solver.Rcm, 0.9) ]);
  ]

let tests =
  [
    Alcotest.test_case "generator row sums" `Quick test_generator_row_sums_zero;
    Alcotest.test_case "rejects negative rate" `Quick test_rejects_negative_rate;
    Alcotest.test_case "rejects non-square" `Quick test_rejects_non_square;
    Alcotest.test_case "uniformized stochastic" `Quick test_uniformized_stochastic;
    Alcotest.test_case "uniformized bad lambda" `Quick test_uniformized_bad_lambda;
    Alcotest.test_case "steady state birth-death" `Quick test_steady_state_birth_death;
    Alcotest.test_case "gauss-seidel matches power" `Quick test_gauss_seidel_matches_power;
    Alcotest.test_case "gauss-seidel rejects absorbing" `Quick
      test_gauss_seidel_rejects_absorbing;
    Alcotest.test_case "gauss-seidel nan iterate never converges" `Quick
      test_gauss_seidel_nan_never_converges;
    Alcotest.test_case "sweep plan rejects mismatched sizes" `Quick
      test_sweep_plan_rejects_mismatches;
    Alcotest.test_case "krylov birth-death" `Quick test_krylov_birth_death;
    Alcotest.test_case "krylov allocation flat in steps" `Quick
      test_krylov_allocation_flat_in_steps;
    Alcotest.test_case "krylov trivial chain" `Quick test_krylov_trivial_chain;
    Alcotest.test_case "steady_state_with dispatch" `Quick test_steady_state_with_dispatch;
    Alcotest.test_case "poisson weights match pmf" `Quick test_poisson_weights_match_pmf;
    Alcotest.test_case "poisson weights renormalised" `Quick
      test_poisson_weights_renormalised;
    Alcotest.test_case "transient t=0" `Quick test_transient_zero_time;
    Alcotest.test_case "transient mass conservation" `Quick test_transient_conserves_mass;
    Alcotest.test_case "transient -> steady state" `Quick test_transient_converges_to_steady_state;
    Alcotest.test_case "transient closed form" `Quick test_transient_two_state_closed_form;
    Alcotest.test_case "irreducibility" `Quick test_irreducibility;
    Alcotest.test_case "self loops cancel in Q" `Quick test_self_loops_do_not_change_generator;
    Alcotest.test_case "mrp validation" `Quick test_mrp_validation;
    Alcotest.test_case "measures" `Quick test_measures;
    Alcotest.test_case "dtmc validation" `Quick test_dtmc_validation;
    Alcotest.test_case "dtmc step/stationary" `Quick test_dtmc_step_and_stationary;
    Alcotest.test_case "dtmc embedded chain" `Quick test_dtmc_embedded;
    Alcotest.test_case "dtmc uniformized agrees" `Quick test_dtmc_uniformized_agrees;
    Alcotest.test_case "mtta linear chain" `Quick test_mtta_linear_chain;
    Alcotest.test_case "mtta with repair (closed form)" `Quick test_mtta_with_repair;
    Alcotest.test_case "mtta validation" `Quick test_mtta_validation;
    Alcotest.test_case "absorption probabilities" `Quick test_absorption_probabilities;
    Alcotest.test_case "absorption sweep allocates nothing" `Quick
      test_absorption_sweep_allocates_nothing;
    Alcotest.test_case "mtta = survival integral" `Slow test_mtta_agrees_with_transient_tail;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
