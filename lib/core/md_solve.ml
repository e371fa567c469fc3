module Md = Mdl_md.Md
module Md_vector = Mdl_md.Md_vector
module Statespace = Mdl_md.Statespace
module Vec = Mdl_sparse.Vec
module Solver = Mdl_ctmc.Solver
module Partition = Mdl_partition.Partition
module State_lumping = Mdl_lumping.State_lumping

let uniformized_parts ?lambda md ss =
  if Md.levels md <> Statespace.levels ss then
    invalid_arg "Md_solve.uniformized_operator: level count mismatch";
  let w = Md_vector.create md ss in
  let exit = Md_vector.row_sums w in
  let max_rate = Array.fold_left Float.max 0.0 exit in
  let lambda =
    match lambda with
    | None -> if max_rate = 0.0 then 1.0 else 1.02 *. max_rate
    | Some l ->
        if l < max_rate then
          invalid_arg "Md_solve.uniformized_operator: lambda below max exit rate";
        l
  in
  let apply_into x y =
    Md_vector.vec_mul_into w x y;
    (* y := x + (x R - x .* exit) / lambda, elementwise. *)
    for i = 0 to Array.length y - 1 do
      y.(i) <- x.(i) +. ((y.(i) -. (x.(i) *. exit.(i))) /. lambda)
    done
  in
  (w, exit, { Solver.dim = Statespace.size ss; apply_into }, lambda)

let uniformized_operator ?lambda md ss =
  let _w, _exit, op, lambda = uniformized_parts ?lambda md ss in
  (op, lambda)

let steady_state ?tol ?max_iter md ss =
  let op, _lambda = uniformized_operator md ss in
  Solver.power ?tol ?max_iter op

let steady_state_krylov ?tol ?max_iter md ss =
  let w, exit, op, lambda = uniformized_parts md ss in
  (* Diagonal of the uniformised P = I + Q/lambda over the state space's
     indices: P(i,i) = 1 + (R(i,i) - exit(i)) / lambda — one extra
     co-walk buys the Jacobi preconditioner without materialising the
     matrix. *)
  let rdiag = Md_vector.diag w in
  let diag =
    Array.init op.Solver.dim (fun i -> 1.0 +. ((rdiag.(i) -. exit.(i)) /. lambda))
  in
  Solver.krylov ?tol ?max_iter ~diag op

let transient ?epsilon ~t md ss pi0 =
  let op, lambda = uniformized_operator md ss in
  Solver.transient_operator ?epsilon ~t ~lambda op pi0

let ctmc_of md ss = Mdl_ctmc.Ctmc.of_rates (Md_vector.to_csr (Md_vector.create md ss))

let solve method_ md ss =
  match method_ with
  | Solver.Power -> steady_state ~tol:1e-12 ~max_iter:500_000 md ss
  | Solver.Krylov -> steady_state_krylov ~tol:1e-12 md ss
  | Solver.Gauss_seidel ->
      (* Gauss–Seidel needs explicit matrix rows: flatten the diagram,
         reorder with reverse Cuthill–McKee, sweep with mild
         under-relaxation (pure sweeps oscillate on some lumped chains).
         The distribution comes back in the original state numbering. *)
      Solver.steady_state_gauss_seidel ~tol:1e-12 ~max_iter:100_000 ~ordering:Solver.Rcm
        ~relax:0.9 (ctmc_of md ss)

let reward_vector r lumped_ss d =
  Decomposed.to_vector (Compositional.lumped_rewards r d) lumped_ss

let measures r lumped_ss pi rewards =
  List.map
    (fun (name, d) -> (name, Solver.expected_reward pi (reward_vector r lumped_ss d)))
    rewards

let check_optimal mode r lumped_ss ~rewards =
  let n = Statespace.size lumped_ss in
  if n > 60_000 then None
  else begin
    let flat = Md_vector.to_csr (Md_vector.create r.Compositional.lumped lumped_ss) in
    let quantize = Mdl_util.Floatx.quantize in
    let initial =
      match mode with
      | State_lumping.Ordinary ->
          let vs = List.map (reward_vector r lumped_ss) rewards in
          Partition.group_by n
            (fun s -> List.map (fun v -> quantize v.(s)) vs)
            (List.compare Float.compare)
      | State_lumping.Exact ->
          Partition.group_by n
            (fun s -> quantize (Mdl_sparse.Csr.row_sum flat s))
            Float.compare
    in
    Some (Partition.num_classes (State_lumping.coarsest mode flat ~initial))
  end
