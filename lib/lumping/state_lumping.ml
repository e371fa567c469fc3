module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Floatx = Mdl_util.Floatx

type mode = Ordinary | Exact

(* Accumulate, for splitter class [c], the nonzero sums
   sum_{j in c} m(s, j) per state s, where [m] is R for exact keys over
   the transpose, or R^T for ordinary keys (columns of R).  [m] must be
   the matrix whose row [j] lists the states touched by member [j]. *)
let class_sums m (perm, first, len) =
  let acc = Hashtbl.create 64 in
  for i = first to first + len - 1 do
    Csr.iter_row m perm.(i) (fun s v ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc s) in
        Hashtbl.replace acc s (prev +. v))
  done;
  Hashtbl.fold (fun s v l -> if v <> 0.0 then (s, v) :: l else l) acc []

let walk_matrix mode r = match mode with Ordinary -> Csr.transpose r | Exact -> r

let refiner_spec ?eps mode r =
  if Csr.rows r <> Csr.cols r then invalid_arg "State_lumping.refiner_spec: not square";
  (* Ordinary: K(R, s, C) = R(s, C) = sum over j in C of R(s, j); the
     touched states of splitter C are the predecessors of C, found by
     walking columns of R, i.e. rows of R^T.  Exact: K(R, s, C) =
     R(C, s); touched states are successors, rows of R itself.  Keys are
     grouped through the quantized representative — compare_approx is
     not transitive and must not order a sort (see {!Mdl_util.Floatx}). *)
  let walk = walk_matrix mode r in
  {
    Refiner.size = Csr.rows r;
    key_compare =
      (fun a b -> Float.compare (Floatx.quantize ?eps a) (Floatx.quantize ?eps b));
    splitter_keys = (fun c -> class_sums walk c);
  }

let float_spec ?eps mode r =
  if Csr.rows r <> Csr.cols r then invalid_arg "State_lumping.float_spec: not square";
  let n = Csr.rows r in
  let walk = walk_matrix mode r in
  (* Accumulate splitter sums into dense per-state scratch instead of a
     hashtable: [acc] holds running sums, [touched] the states hit this
     pass.  Both are reset state-by-state after emission, so a pass
     costs O(touched), not O(n).  The same drop rule as [class_sums]
     applies (exact 0.0 sums are not emitted; the engine quantizes the
     emitted keys inline). *)
  let acc = Array.make n 0.0 in
  let seen = Array.make n false in
  let touched = Array.make n 0 in
  let fsplitter_keys (perm, first, len) buf =
    let nt = ref 0 in
    for i = first to first + len - 1 do
      Csr.iter_row walk perm.(i) (fun s v ->
          if not seen.(s) then begin
            seen.(s) <- true;
            touched.(!nt) <- s;
            incr nt
          end;
          acc.(s) <- acc.(s) +. v)
    done;
    for t = 0 to !nt - 1 do
      let s = touched.(t) in
      let v = acc.(s) in
      if v <> 0.0 then Refiner.emit buf s v;
      acc.(s) <- 0.0;
      seen.(s) <- false
    done
  in
  { Refiner.fsize = n; feps = eps; fsplitter_keys }

let coarsest ?eps ?stats mode r ~initial =
  if Csr.rows r <> Csr.cols r then invalid_arg "State_lumping.coarsest: not square";
  Refiner.comp_lumping_float ?stats (float_spec ?eps mode r) ~initial

let initial_partition ?eps mode mrp =
  let n = Mdl_ctmc.Mrp.size mrp in
  let q = Floatx.quantize ?eps in
  match mode with
  | Ordinary ->
      let rewards = Mdl_ctmc.Mrp.rewards mrp in
      Partition.group_by n (fun s -> q rewards.(s)) Float.compare
  | Exact ->
      let pi = Mdl_ctmc.Mrp.initial mrp in
      let exit s = Mdl_ctmc.Ctmc.exit_rate (Mdl_ctmc.Mrp.ctmc mrp) s in
      let pair_cmp (a1, a2) (b1, b2) =
        let c = Float.compare a1 b1 in
        if c <> 0 then c else Float.compare a2 b2
      in
      Partition.group_by n (fun s -> (q pi.(s), q (exit s))) pair_cmp

let coarsest_mrp ?eps mode mrp =
  let r = Mdl_ctmc.Ctmc.rates (Mdl_ctmc.Mrp.ctmc mrp) in
  coarsest ?eps mode r ~initial:(initial_partition ?eps mode mrp)
