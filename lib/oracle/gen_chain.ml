module Prng = Mdl_util.Prng
module Coo = Mdl_sparse.Coo
module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md

(* Nonzero signed half-integers in [-2, 2]. *)
let signed_half prng =
  let v = float_of_int (1 + Prng.int prng 4) /. 2.0 in
  if Prng.bool prng then v else -.v

(* Positive half-integers in (0, 2]. *)
let rate prng = float_of_int (1 + Prng.int prng 4) /. 2.0

let coo prng ~rows ~cols ~nnz =
  let c = Coo.create ~rows ~cols in
  for _ = 1 to nnz do
    Coo.add c (Prng.int prng rows) (Prng.int prng cols) (signed_half prng)
  done;
  c

let symmetrise swap m =
  let c = Coo.create ~rows:(Csr.rows m) ~cols:(Csr.cols m) in
  Csr.iter
    (fun i j v ->
      Coo.add c i j (v /. 2.0);
      Coo.add c (swap i) (swap j) (v /. 2.0))
    m;
  Csr.of_coo c

let swap_last_two n s =
  if n < 2 then s else if s = n - 1 then n - 2 else if s = n - 2 then n - 1 else s

let rate_matrix prng (spec : Spec.chain) =
  let n = max 2 spec.states in
  let c = Coo.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    Coo.add c i ((i + 1) mod n) 1.0
  done;
  for _ = 1 to spec.extra do
    Coo.add c (Prng.int prng n) (Prng.int prng n) (rate prng)
  done;
  let m = Csr.of_coo c in
  if spec.planted then symmetrise (swap_last_two n) m else m

let ctmc prng spec = Mdl_ctmc.Ctmc.of_rates (rate_matrix prng spec)

let md_of_csr r =
  if Csr.rows r <> Csr.cols r then invalid_arg "Gen_chain.md_of_csr: not square";
  let n = Csr.rows r in
  let md = Md.create ~sizes:[| n |] in
  let entries = ref [] in
  Csr.iter (fun i j v -> entries := (i, j, Md.scalar_sum md v) :: !entries) r;
  let root = Md.add_node md ~level:1 !entries in
  Md.set_root md root;
  md
