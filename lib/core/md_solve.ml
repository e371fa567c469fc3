module Md = Mdl_md.Md
module Md_vector = Mdl_md.Md_vector
module Statespace = Mdl_md.Statespace
module Vec = Mdl_sparse.Vec
module Solver = Mdl_ctmc.Solver

let uniformized_parts ?lambda md ss =
  if Md.levels md <> Statespace.levels ss then
    invalid_arg "Md_solve.uniformized_operator: level count mismatch";
  (* The reachable space is converted to an MDD once so every iteration
     uses offset-based co-walk products instead of per-entry hashing. *)
  let mdd = Mdl_md.Mdd.of_statespace ss in
  let exit = Md_vector.row_sums_mdd md mdd in
  let max_rate = Array.fold_left Float.max 0.0 exit in
  let lambda =
    match lambda with
    | None -> if max_rate = 0.0 then 1.0 else 1.02 *. max_rate
    | Some l ->
        if l < max_rate then
          invalid_arg "Md_solve.uniformized_operator: lambda below max exit rate";
        l
  in
  let apply x =
    let y = Md_vector.vec_mul_mdd md mdd x in
    (* y := x + (x R - x .* exit) / lambda, elementwise. *)
    Array.mapi (fun i yi -> x.(i) +. ((yi -. (x.(i) *. exit.(i))) /. lambda)) y
  in
  (mdd, exit, { Solver.dim = Statespace.size ss; apply }, lambda)

let uniformized_operator ?lambda md ss =
  let _mdd, _exit, op, lambda = uniformized_parts ?lambda md ss in
  (op, lambda)

let steady_state ?tol ?max_iter md ss =
  let op, _lambda = uniformized_operator md ss in
  Solver.power ?tol ?max_iter op

let steady_state_krylov ?tol ?max_iter md ss =
  let mdd, exit, op, lambda = uniformized_parts md ss in
  (* Diagonal of the uniformised P = I + Q/lambda over MDD indices:
     P(i,i) = 1 + (R(i,i) - exit(i)) / lambda — one extra co-walk buys
     the Jacobi preconditioner without materialising the matrix. *)
  let rdiag = Md_vector.diag_mdd md mdd in
  let diag =
    Array.init op.Solver.dim (fun i -> 1.0 +. ((rdiag.(i) -. exit.(i)) /. lambda))
  in
  Solver.krylov ?tol ?max_iter ~diag op

let transient ?epsilon ~t md ss pi0 =
  let op, lambda = uniformized_operator md ss in
  Solver.transient_operator ?epsilon ~t ~lambda op pi0

let ctmc_of md ss = Mdl_ctmc.Ctmc.of_rates (Md_vector.to_csr md ss)
