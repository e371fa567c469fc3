module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Ordering = Mdl_sparse.Ordering
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics

let log_src = Logs.Src.create "mdl.solve" ~doc:"CTMC numerical solvers"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_iterations = Metrics.counter "solver.iterations"

let c_runs = Metrics.counter "solver.runs"

let c_non_converged = Metrics.counter "solver.non_converged"

let g_residual = Metrics.gauge "solver.residual"

type stats = { iterations : int; residual : float; converged : bool }

(* Shared epilogue of the iterative kernels: span + registry + debug
   log, so no solver run — converged or not — is silent. *)
let observe_run name (result, st) =
  Metrics.incr c_runs;
  Metrics.add c_iterations st.iterations;
  Metrics.set g_residual st.residual;
  if not st.converged then Metrics.incr c_non_converged;
  Trace.add_args
    [
      ("iterations", Trace.Int st.iterations);
      ("residual", Trace.Float st.residual);
      ("converged", Trace.Bool st.converged);
    ];
  Log.debug (fun m ->
      m "%s: %d iterations, residual %.3e%s" name st.iterations st.residual
        (if st.converged then "" else " (NOT converged)"));
  if not st.converged then
    Log.warn (fun m ->
        m "%s did not converge: %d iterations, residual %.3e" name st.iterations
          st.residual);
  (result, st)

type operator = { dim : int; apply_into : Vec.t -> Vec.t -> unit }

let operator_of_csr m =
  if Csr.rows m <> Csr.cols m then invalid_arg "Solver.operator_of_csr: not square";
  { dim = Csr.rows m; apply_into = (fun x y -> Csr.vec_mul_into x m y) }

type ordering = Natural | Rcm

let power ?(tol = 1e-12) ?(max_iter = 100_000) ?initial op =
  let pi =
    match initial with
    | None -> Array.make op.dim (1.0 /. float_of_int op.dim)
    | Some v ->
        if Array.length v <> op.dim then invalid_arg "Solver.power: initial size mismatch";
        Vec.copy v
  in
  (* Two buffers, swapped each iteration: the product of one iterate
     overwrites the iterate before it. *)
  let rec loop pi next k =
    op.apply_into pi next;
    Vec.normalize1 next;
    let diff = Vec.diff_inf next pi in
    if diff <= tol then (next, { iterations = k; residual = diff; converged = true })
    else if k >= max_iter then
      (next, { iterations = k; residual = diff; converged = false })
    else loop next pi (k + 1)
  in
  Trace.with_span ~cat:"solve" "solver.power" (fun () ->
      observe_run "solver.power" (loop pi (Array.make op.dim 0.0) 1))

let steady_state ?tol ?max_iter ctmc =
  let p, _lambda = Ctmc.uniformized ctmc in
  power ?tol ?max_iter (operator_of_csr p)

let steady_state_gauss_seidel ?(tol = 1e-12) ?(max_iter = 10_000)
    ?(ordering = Natural) ?(relax = 1.0) ctmc =
  if not (relax > 0.0 && relax <= 1.0) then
    invalid_arg "Solver.steady_state_gauss_seidel: relax must be in (0, 1]";
  let n = Ctmc.size ctmc in
  if n = 0 then invalid_arg "Solver.steady_state_gauss_seidel: empty chain";
  (* Solve pi Q = 0 by in-place sweeps: pi(j) = (sum_{i<>j} pi(i) R(i,j))
     / -Q(j,j).  The sweep plan holds the rates into each state j, and
     Q(j,j) = R(j,j) - exit(j), with exit(j) summed over the (relabelled)
     row j, is the value Ctmc.generator stores, so the generator itself
     is never built. *)
  let perm, plan =
    Trace.with_span ~cat:"solve" "solver.gs_setup" (fun () ->
        let perm =
          match ordering with
          | Natural -> None
          | Rcm -> Some (Ordering.rcm (Ctmc.rates ctmc))
        in
        let r =
          match perm with
          | None -> Ctmc.rates ctmc
          | Some perm -> Csr.permute (Ctmc.rates ctmc) ~perm
        in
        let diag = Csr.diagonal r and exit = Csr.row_sums r in
        for j = 0 to n - 1 do
          diag.(j) <- diag.(j) -. exit.(j)
        done;
        (* The sweep divides by the diagonal, so every state needs an
           outgoing transition besides a self loop.  Reject up front,
           naming the lowest such state in the caller's numbering: a
           skipped state would keep its stale 1/n mass and the
           "converged" distribution would be quietly wrong. *)
        let absorbing = ref n in
        for k = 0 to n - 1 do
          let j = match perm with None -> k | Some perm -> perm.(k) in
          if diag.(k) >= 0.0 && j < !absorbing then absorbing := j
        done;
        if !absorbing < n then
          invalid_arg
            (Printf.sprintf
               "Solver.steady_state_gauss_seidel: absorbing state %d (zero generator \
                diagonal)"
               !absorbing);
        (perm, Csr.sweep_plan r ~diag))
  in
  let pi = Array.make n (1.0 /. float_of_int n) in
  let prev = Vec.copy pi in
  (* One sweep, which also returns pi's sum as Vec.sum takes it, then
     one pass that renormalises pi exactly as Vec.normalize1 does, takes
     the infinity-norm change against the previous iterate (a NaN stays
     NaN, as in Vec.diff_inf) and refreshes it.  With [relax] = 1 this
     is plain Gauss–Seidel; < 1 is SOR under-relaxation, which damps the
     oscillation pure sweeps exhibit on some chains (e.g. the lumped
     Kanban model). *)
  let rec loop k =
    let s = Csr.sor_sweep plan ~relax pi in
    if s <= 0.0 then invalid_arg "Solver.steady_state_gauss_seidel: sum is not positive";
    let scale = 1.0 /. s in
    let change = ref 0.0 in
    for i = 0 to n - 1 do
      (* In range: [pi] and [prev] were made here with [n] entries. *)
      let x = scale *. Array.unsafe_get pi i in
      let d = Float.abs (x -. Array.unsafe_get prev i) in
      if d > !change || d <> d then change := d;
      Array.unsafe_set pi i x;
      Array.unsafe_set prev i x
    done;
    let diff = !change in
    if diff <= tol then { iterations = k; residual = diff; converged = true }
    else if k >= max_iter then { iterations = k; residual = diff; converged = false }
    else loop (k + 1)
  in
  let st =
    Trace.with_span ~cat:"solve" "solver.gauss_seidel" (fun () ->
        snd (observe_run "solver.gauss_seidel" (pi, loop 1)))
  in
  match perm with None -> (pi, st) | Some perm -> (Vec.scatter pi perm, st)

let tiny = 1e-300

let krylov ?(tol = 1e-12) ?(max_iter = 10_000) ?initial ?diag op =
  (* The stationary distribution of the DTMC operator as the solution of
     a nonsingular linear system: pi (P - I) = 0 together with
     sum(pi) = 1 is encoded by replacing the last column of P - I with
     ones — x A = e_c with c = dim - 1 — and solved with BiCGStab,
     Jacobi-preconditioned on the right when [diag] (the diagonal of P)
     is supplied.  Works against the abstract operator, so both flat CSR
     matrices and matrix-diagram products drive the same kernel. *)
  let n = op.dim in
  if n = 0 then invalid_arg "Solver.krylov: empty operator";
  let c = n - 1 in
  (* y := x A *)
  let apply_a x y =
    op.apply_into x y;
    for j = 0 to n - 1 do
      y.(j) <- y.(j) -. x.(j)
    done;
    y.(c) <- Vec.sum x
  in
  let inv_d =
    match diag with
    | None -> Array.make n 1.0
    | Some d ->
        if Array.length d <> n then invalid_arg "Solver.krylov: diag size mismatch";
        Array.init n (fun j ->
            if j = c then 1.0
            else
              let a = d.(j) -. 1.0 in
              if Float.abs a < tiny then 1.0 else 1.0 /. a)
  in
  let precond x out =
    for j = 0 to n - 1 do
      out.(j) <- x.(j) *. inv_d.(j)
    done
  in
  let x =
    match initial with
    | None -> Array.make n (1.0 /. float_of_int n)
    | Some v ->
        if Array.length v <> n then invalid_arg "Solver.krylov: initial size mismatch";
        Vec.copy v
  in
  let r = Array.make n 0.0 in
  apply_a x r;
  for j = 0 to n - 1 do
    r.(j) <- -.r.(j)
  done;
  r.(c) <- 1.0 +. r.(c);
  (* r = b - x A with b = e_c *)
  let rhat = Vec.copy r in
  let rho = ref 1.0 and alpha = ref 1.0 and omega = ref 1.0 in
  let v = Array.make n 0.0 and p = Array.make n 0.0 in
  (* Per-step vectors, allocated once: each step overwrites them. *)
  let phat = Array.make n 0.0 and shat = Array.make n 0.0 and s = Array.make n 0.0 in
  let t = Array.make n 0.0 in
  let finish k res converged =
    (* Best-effort clean-up into a probability vector: tiny negative
       components are numerical noise of the linear solve. *)
    for j = 0 to n - 1 do
      if x.(j) < 0.0 then x.(j) <- 0.0
    done;
    if Vec.sum x > 0.0 then Vec.normalize1 x
    else Array.fill x 0 n (1.0 /. float_of_int n);
    (x, { iterations = k; residual = res; converged })
  in
  (* [r] is updated in place: its old value is dead once [s] is formed. *)
  let rec loop k =
    let res = Vec.norm_inf r in
    if res <= tol then finish k res true
    else if k >= max_iter then finish k res false
    else begin
      let rho' = Vec.dot rhat r in
      let rho' =
        if Float.abs rho' >= tiny then rho'
        else begin
          (* Serious breakdown (shadow residual orthogonal to the
             residual): restart with a fresh shadow direction. *)
          Array.blit r 0 rhat 0 n;
          rho := 1.0;
          alpha := 1.0;
          omega := 1.0;
          Array.fill p 0 n 0.0;
          Array.fill v 0 n 0.0;
          Vec.dot rhat r
        end
      in
      if Float.abs rho' < tiny then finish k res false
      else begin
        let beta = rho' /. !rho *. (!alpha /. !omega) in
        for j = 0 to n - 1 do
          p.(j) <- r.(j) +. (beta *. (p.(j) -. (!omega *. v.(j))))
        done;
        precond p phat;
        apply_a phat v;
        let denom = Vec.dot rhat v in
        if Float.abs denom < tiny then finish k res false
        else begin
          alpha := rho' /. denom;
          for j = 0 to n - 1 do
            s.(j) <- r.(j) -. (!alpha *. v.(j))
          done;
          let s_res = Vec.norm_inf s in
          if s_res <= tol then begin
            (* Half-step early exit. *)
            Vec.axpy ~alpha:!alpha phat x;
            finish (k + 1) s_res true
          end
          else begin
            precond s shat;
            apply_a shat t;
            let tt = Vec.dot t t in
            if tt < tiny then begin
              Vec.axpy ~alpha:!alpha phat x;
              finish (k + 1) s_res false
            end
            else begin
              omega := Vec.dot t s /. tt;
              if Float.abs !omega < tiny then begin
                Vec.axpy ~alpha:!alpha phat x;
                finish (k + 1) s_res false
              end
              else begin
                Vec.axpy ~alpha:!alpha phat x;
                Vec.axpy ~alpha:!omega shat x;
                for j = 0 to n - 1 do
                  r.(j) <- s.(j) -. (!omega *. t.(j))
                done;
                rho := rho';
                loop (k + 1)
              end
            end
          end
        end
      end
    end
  in
  Trace.with_span ~cat:"solve" "solver.krylov" (fun () ->
      observe_run "solver.krylov" (loop 0))

let steady_state_krylov ?tol ?max_iter ctmc =
  let p, _lambda = Ctmc.uniformized ctmc in
  krylov ?tol ?max_iter ~diag:(Csr.diagonal p) (operator_of_csr p)

type method_ = Power | Gauss_seidel | Krylov

let method_name = function
  | Power -> "power"
  | Gauss_seidel -> "gauss-seidel"
  | Krylov -> "krylov"

let poisson_weights_deficit ~epsilon ~qt =
  (* Weights w(k) = e^{-qt} (qt)^k / k! for k = 0..r, with r chosen so the
     truncated tail mass is below epsilon.  Computed in a numerically
     safe way by scaling from the mode (a simplified Fox–Glynn).  The
     retained weights are renormalised to sum to exactly 1 — summing the
     transient distribution to 1 — and the relative mass dropped by the
     truncation is reported alongside as the method's residual. *)
  if qt = 0.0 then ([| 1.0 |], 0.0)
  else begin
    let mode = int_of_float qt in
    (* Generous upper bound on the right truncation point. *)
    let r_max = mode + 10 + int_of_float ((8.0 *. sqrt (qt +. 1.0)) +. qt) in
    let w = Array.make (r_max + 1) 0.0 in
    w.(mode) <- 1.0;
    (* Unnormalised: w(k+1) = w(k) * qt/(k+1); w(k-1) = w(k) * k/qt. *)
    for k = mode + 1 to r_max do
      w.(k) <- w.(k - 1) *. qt /. float_of_int k
    done;
    for k = mode - 1 downto 0 do
      w.(k) <- w.(k + 1) *. float_of_int (k + 1) /. qt
    done;
    let total = Mdl_util.Floatx.sum_kahan w in
    (* Find the right truncation point covering mass 1 - epsilon. *)
    let target = (1.0 -. epsilon) *. total in
    let acc = ref 0.0 and r = ref r_max in
    (try
       for k = 0 to r_max do
         acc := !acc +. w.(k);
         if !acc >= target then begin
           r := k;
           raise Exit
         end
       done
     with Exit -> ());
    let w = Array.sub w 0 (!r + 1) in
    let retained = Mdl_util.Floatx.sum_kahan w in
    (Array.map (fun x -> x /. retained) w, (total -. retained) /. total)
  end

let poisson_weights ~epsilon ~qt = fst (poisson_weights_deficit ~epsilon ~qt)

let transient_operator ?(epsilon = 1e-12) ~t ~lambda op pi0 =
  if t < 0.0 then invalid_arg "Solver.transient_operator: negative time";
  if Array.length pi0 <> op.dim then
    invalid_arg "Solver.transient_operator: initial size mismatch";
  if t = 0.0 then Vec.copy pi0
  else
    Trace.with_span ~cat:"solve" "solver.transient" (fun () ->
        let weights, deficit = poisson_weights_deficit ~epsilon ~qt:(lambda *. t) in
        let result = Array.make (Array.length pi0) 0.0 in
        (* Two buffers, swapped after each product. *)
        let current = ref (Vec.copy pi0) and next = ref (Array.make op.dim 0.0) in
        Array.iteri
          (fun k w ->
            if k > 0 then begin
              op.apply_into !current !next;
              let prev = !current in
              current := !next;
              next := prev
            end;
            Vec.axpy ~alpha:w !current result)
          weights;
        Trace.add_args [ ("terms", Trace.Int (Array.length weights)) ];
        fst
          (observe_run "solver.transient"
             ( result,
               {
                 iterations = Array.length weights - 1;
                 residual = deficit;
                 converged = deficit <= epsilon;
               } )))

let transient ?epsilon ~t ctmc pi0 =
  if t < 0.0 then invalid_arg "Solver.transient: negative time";
  if Array.length pi0 <> Ctmc.size ctmc then
    invalid_arg "Solver.transient: initial size mismatch";
  let p, lambda = Ctmc.uniformized ctmc in
  transient_operator ?epsilon ~t ~lambda (operator_of_csr p) pi0

let expected_reward pi r = Vec.dot pi r
