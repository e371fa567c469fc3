module Csr = Mdl_sparse.Csr

(* States from which an absorbing state is reachable (backward BFS over
   the transition graph, seeded with the absorbing set). *)
let can_reach_absorbing ctmc absorbing =
  let n = Ctmc.size ctmc in
  let rt = Csr.transpose (Ctmc.rates ctmc) in
  let reached = Array.init n absorbing in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if reached.(i) then Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let j = Queue.pop queue in
    Csr.iter_row rt j (fun i v ->
        if v > 0.0 && (not reached.(i)) && not (absorbing i) then begin
          reached.(i) <- true;
          Queue.add i queue
        end)
  done;
  reached

let check_absorbing_set ctmc absorbing fn =
  let n = Ctmc.size ctmc in
  let any = ref false in
  for i = 0 to n - 1 do
    if absorbing i then any := true
  done;
  if not !any then invalid_arg (Printf.sprintf "Absorption.%s: no absorbing state" fn);
  n

(* Gauss-Seidel sweeps for x(i) = (c(i) + sum_{j<>i} R(i,j) x(j)) /
   (exit(i) - R(i,i)) on transient states, x fixed elsewhere.  The
   residual is the largest change of a sweep; each sweep also refreshes
   [prev], so after set-up nothing is allocated. *)
let gauss_seidel ?(tol = 1e-12) ?(max_iter = 100_000) ctmc ~transient ~constant x =
  let r = Ctmc.rates ctmc in
  let n = Ctmc.size ctmc in
  let diag = Csr.diagonal r in
  let denom = Array.init n (fun i -> Ctmc.exit_rate ctmc i -. diag.(i)) in
  let prev = Array.copy x in
  let rec loop k =
    Csr.gs_sweep r ~denom ~constant ~active:transient x;
    (* [d <> d] keeps a NaN change sticky, as [Float.max] would. *)
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      if transient.(i) then begin
        let d = Float.abs (x.(i) -. prev.(i)) in
        if d > !delta || d <> d then delta := d;
        prev.(i) <- x.(i)
      end
    done;
    if !delta <= tol then { Solver.iterations = k; residual = !delta; converged = true }
    else if k >= max_iter then
      { Solver.iterations = k; residual = !delta; converged = false }
    else loop (k + 1)
  in
  loop 1

let mean_time_to_absorption ?tol ?max_iter ctmc ~absorbing =
  let n = check_absorbing_set ctmc absorbing "mean_time_to_absorption" in
  let reached = can_reach_absorbing ctmc absorbing in
  for i = 0 to n - 1 do
    if not reached.(i) then
      invalid_arg
        (Printf.sprintf
           "Absorption.mean_time_to_absorption: state %d cannot reach an absorbing state"
           i)
  done;
  let transient = Array.init n (fun i -> not (absorbing i)) in
  let t = Array.make n 0.0 in
  let stats = gauss_seidel ?tol ?max_iter ctmc ~transient ~constant:(Array.make n 1.0) t in
  (t, stats)

let absorption_probabilities ?tol ?max_iter ctmc ~absorbing ~target =
  let n = check_absorbing_set ctmc absorbing "absorption_probabilities" in
  for i = 0 to n - 1 do
    if target i && not (absorbing i) then
      invalid_arg
        (Printf.sprintf "Absorption.absorption_probabilities: target state %d not absorbing"
           i)
  done;
  let transient = Array.init n (fun i -> not (absorbing i)) in
  let h = Array.init n (fun i -> if target i then 1.0 else 0.0) in
  (* States that cannot reach any absorbing state would make the linear
     system singular; treat unreachable-from-absorbing transients as
     probability 0 and keep them out of the sweep. *)
  let reached = can_reach_absorbing ctmc absorbing in
  let transient = Array.mapi (fun i tr -> tr && reached.(i)) transient in
  let stats =
    gauss_seidel ?tol ?max_iter ctmc ~transient ~constant:(Array.make n 0.0) h
  in
  (h, stats)
