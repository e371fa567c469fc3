module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Floatx = Mdl_util.Floatx

(* R(s, C') for every class C', as a dense array over class ids. *)
let row_class_sums r p s =
  let sums = Array.make (Partition.num_classes p) 0.0 in
  Csr.iter_row r s (fun j v ->
      let c = Partition.class_of p j in
      sums.(c) <- sums.(c) +. v);
  sums

let vector_constant_on_classes v p =
  let ok = ref true in
  for c = 0 to Partition.num_classes p - 1 do
    let members = Partition.elements p c in
    let v0 = v.(members.(0)) in
    Array.iter (fun s -> if not (Floatx.approx_eq v0 v.(s)) then ok := false) members
  done;
  !ok

let ordinary ?rewards r p =
  if Csr.rows r <> Partition.size p then
    invalid_arg "Check.ordinary: partition size mismatch";
  let rewards_ok =
    match rewards with None -> true | Some rv -> vector_constant_on_classes rv p
  in
  rewards_ok
  &&
  let ok = ref true in
  for c = 0 to Partition.num_classes p - 1 do
    let members = Partition.elements p c in
    let reference = row_class_sums r p members.(0) in
    Array.iter
      (fun s ->
        let sums = row_class_sums r p s in
        Array.iteri
          (fun c' v -> if not (Floatx.approx_eq v reference.(c')) then ok := false)
          sums)
      members
  done;
  !ok

let exact ?initial r p =
  if Csr.rows r <> Partition.size p then invalid_arg "Check.exact: partition size mismatch";
  let initial_ok =
    match initial with None -> true | Some pi -> vector_constant_on_classes pi p
  in
  initial_ok
  && vector_constant_on_classes (Csr.row_sums r) p
  &&
  let rt = Csr.transpose r in
  let ok = ref true in
  for c = 0 to Partition.num_classes p - 1 do
    let members = Partition.elements p c in
    (* R(C', s) over classes C' is the class-sum of column s of R, i.e. of
       row s of the transpose. *)
    let reference = row_class_sums rt p members.(0) in
    Array.iter
      (fun s ->
        let sums = row_class_sums rt p s in
        Array.iteri
          (fun c' v -> if not (Floatx.approx_eq v reference.(c')) then ok := false)
          sums)
      members
  done;
  !ok
