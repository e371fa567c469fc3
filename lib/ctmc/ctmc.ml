module Csr = Mdl_sparse.Csr

type t = {
  r : Csr.t;
  row_sums : float array; (* exit rates, including self loops *)
  mutable q : Csr.t option; (* cached generator *)
}

let of_rates r =
  if Csr.rows r <> Csr.cols r then invalid_arg "Ctmc.of_rates: matrix is not square";
  Csr.iter
    (fun i j v ->
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Ctmc.of_rates: non-finite rate %g at (%d,%d)" v i j)
      else if v < 0.0 then
        invalid_arg (Printf.sprintf "Ctmc.of_rates: negative rate %g at (%d,%d)" v i j))
    r;
  { r; row_sums = Csr.row_sums r; q = None }

let of_triplets n triplets = of_rates (Csr.of_triplets ~rows:n ~cols:n triplets)

let size t = Csr.rows t.r

let rates t = t.r

let generator t =
  match t.q with
  | Some q -> q
  | None ->
      let n = size t in
      let q =
        Csr.of_entry_iter ~rows:n ~cols:n (fun f ->
            Csr.iter f t.r;
            for i = 0 to n - 1 do
              f i i (-.t.row_sums.(i))
            done)
      in
      t.q <- Some q;
      q

let exit_rate t i = t.row_sums.(i)

let max_exit_rate t = Array.fold_left Float.max 0.0 t.row_sums

let uniformized ?lambda t =
  let n = size t in
  if n = 0 then invalid_arg "Ctmc.uniformized: empty chain";
  let max_rate = max_exit_rate t in
  let lambda =
    match lambda with
    | None -> if max_rate = 0.0 then 1.0 else 1.02 *. max_rate
    | Some l ->
        if l < max_rate then invalid_arg "Ctmc.uniformized: lambda below max exit rate";
        l
  in
  let q = generator t in
  let p =
    Csr.of_entry_iter ~rows:n ~cols:n (fun f ->
        Csr.iter (fun i j v -> f i j (v /. lambda)) q;
        for i = 0 to n - 1 do
          f i i 1.0
        done)
  in
  (p, lambda)

let reachable_from m start =
  (* BFS over positive off-diagonal entries of [m]. *)
  let n = Csr.rows m in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    Csr.iter_row m i (fun j v ->
        if v > 0.0 && i <> j && not seen.(j) then begin
          seen.(j) <- true;
          Queue.add j queue
        end)
  done;
  seen

let is_irreducible t =
  let n = size t in
  n > 0
  && Array.for_all Fun.id (reachable_from t.r 0)
  && Array.for_all Fun.id (reachable_from (Csr.transpose t.r) 0)
