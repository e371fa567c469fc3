(* Unit and property tests for Mdl_sparse. *)

module Vec = Mdl_sparse.Vec
module Coo = Mdl_sparse.Coo
module Csr = Mdl_sparse.Csr
module Ordering = Mdl_sparse.Ordering

let matrix_testable =
  Alcotest.testable Csr.pp (fun a b -> Csr.approx_equal a b)

let test_coo_basics () =
  let c = Coo.create ~rows:3 ~cols:4 in
  Coo.add c 0 1 2.0;
  Coo.add c 2 3 1.5;
  Coo.add c 0 1 0.0;
  (* zero ignored *)
  Alcotest.(check int) "nnz" 2 (Coo.nnz c);
  Alcotest.check_raises "row oob"
    (Invalid_argument "Coo.add: (3,0) out of bounds for 3x4") (fun () -> Coo.add c 3 0 1.0)

let test_csr_duplicate_folding () =
  let m = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 5.0) ] in
  Alcotest.(check int) "nnz after fold" 2 (Csr.nnz m);
  Alcotest.(check (float 1e-12)) "folded value" 3.0 (Csr.get m 0 0)

let test_csr_cancellation () =
  let m = Csr.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.0); (0, 0, -1.0) ] in
  Alcotest.(check int) "cancelled entry dropped" 0 (Csr.nnz m)

let test_csr_get () =
  let m = Csr.of_dense [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 3.0; 0.0 |] |] in
  Alcotest.(check (float 0.0)) "get (0,2)" 2.0 (Csr.get m 0 2);
  Alcotest.(check (float 0.0)) "get absent" 0.0 (Csr.get m 1 0);
  Alcotest.check_raises "oob" (Invalid_argument "Csr.get: index out of bounds") (fun () ->
      ignore (Csr.get m 2 0))

let test_csr_sums () =
  let m = Csr.of_dense [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (float 1e-12)) "row sum 0" 3.0 (Csr.row_sum m 0);
  Alcotest.(check bool) "row sums" true (Vec.approx_equal (Csr.row_sums m) [| 3.0; 7.0 |]);
  Alcotest.(check bool) "col sums" true (Vec.approx_equal (Csr.col_sums m) [| 4.0; 6.0 |])

let test_csr_transpose () =
  let m = Csr.of_dense [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 3.0; 4.0 |] |] in
  let mt = Csr.transpose m in
  Alcotest.(check int) "rows" 3 (Csr.rows mt);
  Alcotest.(check (float 0.0)) "entry" 4.0 (Csr.get mt 2 1);
  Alcotest.check matrix_testable "double transpose" m (Csr.transpose mt)

let test_csr_mul_vec () =
  let m = Csr.of_dense [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "A x" true
    (Vec.approx_equal (Csr.mul_vec m [| 1.0; 1.0 |]) [| 3.0; 7.0 |]);
  Alcotest.(check bool) "x A" true
    (Vec.approx_equal (Csr.vec_mul [| 1.0; 1.0 |] m) [| 4.0; 6.0 |]);
  Alcotest.check_raises "dim" (Invalid_argument "Csr.mul_vec: dimension mismatch")
    (fun () -> ignore (Csr.mul_vec m [| 1.0 |]))

let test_csr_add_scale_map () =
  let a = Csr.of_dense [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let b = Csr.of_dense [| [| 0.0; 5.0 |]; [| 0.0; -2.0 |] |] in
  let s = Csr.add a b in
  Alcotest.(check (float 0.0)) "add" 5.0 (Csr.get s 0 1);
  Alcotest.(check int) "add cancels" 2 (Csr.nnz s);
  let d = Csr.scale 2.0 a in
  Alcotest.(check (float 0.0)) "scale" 4.0 (Csr.get d 1 1);
  let z = Csr.scale 0.0 a in
  Alcotest.(check int) "scale by zero empties" 0 (Csr.nnz z);
  let m = Csr.map (fun v -> v -. 1.0) a in
  Alcotest.(check int) "map drops zeros" 1 (Csr.nnz m)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] in
  let y = [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 6.0 (Vec.dot x y);
  Vec.axpy ~alpha:2.0 x y;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal y [| 3.0; 5.0; 7.0 |]);
  Vec.normalize1 y;
  Alcotest.(check (float 1e-12)) "normalize" 1.0 (Vec.sum y);
  Alcotest.(check (float 1e-12)) "norm_inf" 3.0 (Vec.norm_inf x);
  Alcotest.check_raises "dot dim"
    (Invalid_argument "Vec.dot: dimension mismatch (3 vs 1)") (fun () ->
      ignore (Vec.dot x [| 1.0 |]))

let test_matrix_market_roundtrip () =
  let m =
    Csr.of_triplets ~rows:3 ~cols:4 [ (0, 1, 1.5); (2, 3, -2.25); (1, 0, 1e-17) ]
  in
  let s = Mdl_sparse.Matrix_market.to_string m in
  let m' = Mdl_sparse.Matrix_market.of_string s in
  Alcotest.check matrix_testable "roundtrip" m m';
  Alcotest.(check int) "dims preserved" 4 (Csr.cols m')

let test_matrix_market_rejects_garbage () =
  let reject name s =
    match Mdl_sparse.Matrix_market.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Failure")
  in
  reject "empty" "";
  reject "bad header" "%%MatrixMarket matrix coordinate complex general\n1 1 0\n";
  reject "bad size" "%%MatrixMarket matrix coordinate real general\n1 x\n";
  reject "oob entry" "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
  reject "count mismatch" "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"

let test_matrix_market_file_roundtrip () =
  let path = Filename.temp_file "mdlump" ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Csr.of_triplets ~rows:3 ~cols:3 [ (0, 2, 1.25); (1, 1, -4.0) ] in
      Mdl_sparse.Matrix_market.write_file m path;
      Alcotest.check matrix_testable "file roundtrip" m
        (Mdl_sparse.Matrix_market.read_file path))

let test_of_entry_iter_basics () =
  let m =
    Csr.of_entry_iter ~rows:2 ~cols:3 (fun f ->
        f 1 2 4.0;
        f 0 0 1.0;
        f 1 2 (-4.0);
        f 0 2 2.5;
        f 0 0 0.5)
  in
  Alcotest.(check int) "nnz (duplicates folded, cancellation dropped)" 2 (Csr.nnz m);
  Alcotest.(check (float 0.0)) "folded value" 1.5 (Csr.get m 0 0);
  Alcotest.(check (float 0.0)) "plain value" 2.5 (Csr.get m 0 2);
  Alcotest.check_raises "oob entry"
    (Invalid_argument "Csr.of_entry_iter: (2,0) out of bounds for 2x3") (fun () ->
      ignore (Csr.of_entry_iter ~rows:2 ~cols:3 (fun f -> f 2 0 1.0)));
  let calls = ref 0 in
  Alcotest.check_raises "non-repeatable iterator"
    (Invalid_argument "Csr.of_entry_iter: iteration is not repeatable") (fun () ->
      ignore
        (Csr.of_entry_iter ~rows:1 ~cols:1 (fun f ->
             incr calls;
             if !calls = 2 then f 0 0 1.0)))

let test_csr_permute () =
  let m = Csr.of_dense [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 0.0; 3.0 |]; [| 4.0; 0.0; 5.0 |] |] in
  let perm = [| 2; 0; 1 |] in
  let b = Csr.permute m ~perm in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "B(%d,%d) = A(perm i, perm j)" i j)
        (Csr.get m perm.(i) perm.(j))
        (Csr.get b i j)
    done
  done;
  Alcotest.check_raises "not square" (Invalid_argument "Csr.permute: matrix is not square")
    (fun () ->
      ignore (Csr.permute (Csr.of_dense [| [| 1.0; 2.0 |] |]) ~perm:[| 0 |]));
  Alcotest.check_raises "duplicate index" (Invalid_argument "Csr.permute: not a permutation")
    (fun () -> ignore (Csr.permute m ~perm:[| 0; 0; 1 |]))

let test_csr_diagonal () =
  let m = Csr.of_dense [| [| 1.5; 2.0 |]; [| 0.0; 0.0 |] |] in
  Alcotest.(check bool) "diagonal" true
    (Vec.approx_equal (Csr.diagonal m) [| 1.5; 0.0 |]);
  Alcotest.check_raises "not square"
    (Invalid_argument "Csr.diagonal: matrix is not square") (fun () ->
      ignore (Csr.diagonal (Csr.of_dense [| [| 1.0; 2.0 |] |])))

let test_gather_scatter () =
  let x = [| 10.0; 20.0; 30.0 |] in
  let perm = [| 2; 0; 1 |] in
  Alcotest.(check bool) "gather pulls" true
    (Vec.approx_equal (Vec.gather x perm) [| 30.0; 10.0; 20.0 |]);
  Alcotest.(check bool) "scatter pushes back" true
    (Vec.approx_equal (Vec.scatter (Vec.gather x perm) perm) x);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.gather: permutation length mismatch (2 vs 3)") (fun () ->
      ignore (Vec.gather x [| 0; 1 |]))

(* A path graph relabelled at random: reverse Cuthill–McKee must
   recover a bandwidth-1 ordering (the path itself). *)
let test_rcm_path_bandwidth () =
  let n = 9 in
  let labels = [| 4; 7; 0; 8; 2; 6; 1; 5; 3 |] in
  let triplets =
    List.concat
      (List.init (n - 1) (fun i ->
           [ (labels.(i), labels.(i + 1), 1.0); (labels.(i + 1), labels.(i), 2.0) ]))
  in
  let m = Csr.of_triplets ~rows:n ~cols:n triplets in
  let perm = Ordering.rcm m in
  let sorted = Array.copy perm in
  Array.sort compare sorted;
  Alcotest.(check bool) "perm is a permutation" true
    (sorted = Array.init n Fun.id);
  Alcotest.(check int) "path reordered to bandwidth 1" 1
    (Ordering.bandwidth (Csr.permute m ~perm))

let test_ordering_inverse () =
  let perm = [| 3; 1; 0; 2 |] in
  let inv = Ordering.inverse perm in
  Array.iteri (fun k o -> Alcotest.(check int) "inv(perm k) = k" k inv.(o)) perm;
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Ordering.inverse: not a permutation") (fun () ->
      ignore (Ordering.inverse [| 0; 0 |]))

let test_identity () =
  let i3 = Csr.identity 3 in
  let x = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "I x = x" true (Vec.approx_equal (Csr.mul_vec i3 x) x)

(* Random sparse matrix generator for property tests. *)
let gen_csr =
  let open QCheck.Gen in
  let* rows = int_range 1 8 in
  let* cols = int_range 1 8 in
  let* n = int_range 0 20 in
  let+ triplets =
    list_size (return n)
      (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
         (map (fun k -> float_of_int k /. 2.0) (int_range (-6) 6)))
  in
  (rows, cols, triplets)

let arb_csr = QCheck.make ~print:(fun (r, c, t) ->
    Printf.sprintf "%dx%d %s" r c
      (String.concat ";" (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
    gen_csr

(* Random square matrix + shuffle seed, for permutation properties. *)
let gen_square =
  let open QCheck.Gen in
  let* n = int_range 1 10 in
  let* nt = int_range 0 30 in
  let* triplets =
    list_size (return nt)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
         (map (fun k -> float_of_int k /. 2.0) (int_range (-6) 6)))
  in
  let+ seed = small_nat in
  (n, triplets, seed)

let arb_square =
  QCheck.make
    ~print:(fun (n, t, seed) ->
      Printf.sprintf "%dx%d seed %d %s" n n seed
        (String.concat ";"
           (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
    gen_square

let random_perm n seed =
  let prng = Mdl_util.Prng.of_seed seed in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Mdl_util.Prng.int prng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* Reverse Cuthill–McKee as it was written before the adjacency became
   a merge of sorted neighbour lists: per-vertex sort with polymorphic
   compare, a list sort per visit, a [Queue], and each component's root
   found by a scan of every state.  [Ordering.rcm] must return the same
   permutation, element for element.  With [~roots:`Stable_sort] each
   root is instead the first vertex not yet enqueued in the order
   [Array.stable_sort] gives all vertices by degree: the order
   [Ordering.rcm] takes from a counting sort. *)
let reference_rcm ?(roots = `Scan) m =
  let n = Csr.rows m in
  let nbrs = Array.make n [] in
  Csr.iter
    (fun i j _ ->
      if i <> j then begin
        nbrs.(i) <- j :: nbrs.(i);
        nbrs.(j) <- i :: nbrs.(j)
      end)
    m;
  let adj = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) nbrs in
  let deg i = Array.length adj.(i) in
  let order = Array.make n 0 and pos = ref 0 in
  let enqueued = Array.make n false in
  let queue = Queue.create () in
  let visit u =
    order.(!pos) <- u;
    incr pos;
    let fresh = List.filter (fun v -> not enqueued.(v)) (Array.to_list adj.(u)) in
    List.iter (fun v -> enqueued.(v) <- true) fresh;
    List.iter
      (fun v -> Queue.add v queue)
      (List.sort (fun a b -> if deg a <> deg b then compare (deg a) (deg b) else compare a b)
         fresh)
  in
  let by_degree = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (deg a) (deg b)) by_degree;
  for _ = 0 to n - 1 do
    if !pos < n && Queue.is_empty queue then begin
      let root = ref (-1) in
      (match roots with
      | `Scan ->
          for v = n - 1 downto 0 do
            if not enqueued.(v) && (!root < 0 || deg v <= deg !root) then root := v
          done
      | `Stable_sort ->
          let k = ref 0 in
          while enqueued.(by_degree.(!k)) do
            incr k
          done;
          root := by_degree.(!k));
      enqueued.(!root) <- true;
      Queue.add !root queue
    end;
    if not (Queue.is_empty queue) then visit (Queue.pop queue)
  done;
  Array.init n (fun k -> order.(n - 1 - k))

(* A random square pattern with a hub joined to a random subset of the
   states, so some visits enqueue more than the 24 neighbours the
   insertion sort handles. *)
let hub_matrix seed =
  let prng = Mdl_util.Prng.of_seed seed in
  let n = 1 + Mdl_util.Prng.int prng 80 in
  let hub = Mdl_util.Prng.int prng n in
  let triplets = ref [] in
  for v = 0 to n - 1 do
    if Mdl_util.Prng.int prng 3 > 0 then
      triplets :=
        (if Mdl_util.Prng.int prng 2 = 0 then (hub, v, 1.0) else (v, hub, 1.0)) :: !triplets
  done;
  for _ = 1 to Mdl_util.Prng.int prng (2 * n) do
    triplets := (Mdl_util.Prng.int prng n, Mdl_util.Prng.int prng n, 0.5) :: !triplets
  done;
  Csr.of_triplets ~rows:n ~cols:n !triplets

(* A random square pattern on up to 300 states with at most n/2
   entries, a quarter of them self loops: most states are isolated and
   the rest form many small components, so [rcm] picks many roots. *)
let components_matrix seed =
  let prng = Mdl_util.Prng.of_seed seed in
  let n = 1 + Mdl_util.Prng.int prng 300 in
  let triplets =
    List.init (Mdl_util.Prng.int prng ((n / 2) + 1)) (fun _ ->
        let i = Mdl_util.Prng.int prng n in
        let j = if Mdl_util.Prng.int prng 4 = 0 then i else Mdl_util.Prng.int prng n in
        (i, j, 1.0))
  in
  Csr.of_triplets ~rows:n ~cols:n triplets

(* The direct-loop kernels against the same sums written with
   [Csr.iter_row] closures: equal to the bit. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let kernels_match_closure_forms m =
  let rows = Csr.rows m and cols = Csr.cols m in
  let row_sum i =
    let acc = ref 0.0 in
    Csr.iter_row m i (fun _ v -> acc := !acc +. v);
    !acc
  in
  let x = Array.init cols (fun j -> float_of_int (j + 1) /. 3.0) in
  let mul_vec =
    Array.init rows (fun i ->
        let acc = ref 0.0 in
        Csr.iter_row m i (fun j v -> acc := !acc +. (v *. x.(j)));
        !acc)
  in
  let y = Array.init rows (fun i -> float_of_int (i - 2) /. 3.0) in
  let vec_mul = Array.make cols 0.0 in
  for i = 0 to rows - 1 do
    if y.(i) <> 0.0 then
      Csr.iter_row m i (fun j v -> vec_mul.(j) <- vec_mul.(j) +. (y.(i) *. v))
  done;
  let transposed = ref [] in
  Csr.iter (fun i j v -> transposed := (j, i, v) :: !transposed) m;
  bits_equal (Csr.row_sums m) (Array.init rows row_sum)
  && bits_equal (Array.init rows (Csr.row_sum m)) (Array.init rows row_sum)
  && bits_equal (Csr.mul_vec m x) mul_vec
  && bits_equal (Csr.vec_mul y m) vec_mul
  && Csr.equal (Csr.transpose m) (Csr.of_triplets ~rows:cols ~cols:rows !transposed)
  && (rows <> cols
     || bits_equal (Csr.diagonal m) (Array.init rows (fun i -> Csr.get m i i)))

let qcheck_tests =
  let open QCheck in
  [
    (* The halves value alphabet keeps duplicate sums exact, and both
       constructors fold duplicates in emission order, so the two builds
       must agree bit-for-bit — structure and values. *)
    Test.make ~count:300 ~name:"of_entry_iter equals of_coo exactly" arb_csr
      (fun (r, c, t) ->
        let via_coo = Csr.of_triplets ~rows:r ~cols:c t in
        let via_iter =
          Csr.of_entry_iter ~rows:r ~cols:c (fun f ->
              List.iter (fun (i, j, v) -> f i j v) t)
        in
        Csr.equal via_coo via_iter);
    Test.make ~count:300 ~name:"permute relabels entries" arb_square
      (fun (n, t, seed) ->
        let m = Csr.of_triplets ~rows:n ~cols:n t in
        let perm = random_perm n seed in
        let b = Csr.permute m ~perm in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Csr.get b i j <> Csr.get m perm.(i) perm.(j) then ok := false
          done
        done;
        !ok);
    Test.make ~count:300 ~name:"permute by inverse roundtrips" arb_square
      (fun (n, t, seed) ->
        let m = Csr.of_triplets ~rows:n ~cols:n t in
        let perm = random_perm n seed in
        Csr.equal m (Csr.permute (Csr.permute m ~perm) ~perm:(Ordering.inverse perm)));
    Test.make ~count:300 ~name:"rcm returns a valid permutation" arb_square
      (fun (n, t, _) ->
        let m = Csr.of_triplets ~rows:n ~cols:n t in
        let perm = Ordering.rcm m in
        let sorted = Array.copy perm in
        Array.sort compare sorted;
        sorted = Array.init n Fun.id);
    Test.make ~count:300 ~name:"rcm never worsens a path's bandwidth to > 1"
      (int_range 2 40) (fun n ->
        (* Any relabelled path graph must come back to bandwidth 1. *)
        let labels = random_perm n (n * 31 + 7) in
        let triplets =
          List.concat
            (List.init (n - 1) (fun i ->
                 [
                   (labels.(i), labels.(i + 1), 1.0);
                   (labels.(i + 1), labels.(i), 1.0);
                 ]))
        in
        let m = Csr.of_triplets ~rows:n ~cols:n triplets in
        Ordering.bandwidth (Csr.permute m ~perm:(Ordering.rcm m)) = 1);
    Test.make ~count:300 ~name:"rcm matches the reference ordering" arb_square
      (fun (n, t, _) ->
        let m = Csr.of_triplets ~rows:n ~cols:n t in
        Ordering.rcm m = reference_rcm m);
    Test.make ~count:300 ~name:"rcm matches the reference ordering around a hub"
      (make ~print:string_of_int Gen.(int_range 0 99_999))
      (fun seed ->
        let m = hub_matrix seed in
        Ordering.rcm m = reference_rcm m);
    Test.make ~count:300 ~name:"rcm matches the reference ordering on many components"
      (make ~print:string_of_int Gen.(int_range 0 99_999))
      (fun seed ->
        let m = components_matrix seed in
        Ordering.rcm m = reference_rcm m);
    Test.make ~count:300 ~name:"rcm roots follow the stable sort by degree"
      (make ~print:string_of_int Gen.(int_range 0 99_999))
      (fun seed ->
        let m = components_matrix seed in
        Ordering.rcm m = reference_rcm ~roots:`Stable_sort m);
    Test.make ~count:300 ~name:"flat kernels match their closure forms bit for bit"
      arb_csr (fun (r, c, t) -> kernels_match_closure_forms (Csr.of_triplets ~rows:r ~cols:c t));
    Test.make ~count:300 ~name:"infinity norms match Float.max folds bit for bit"
      (pair (small_list (float_range (-4.0) 4.0)) (int_range 0 3))
      (fun (l, nans) ->
        (* [nans] entries replaced by NaN (at the front, so later finite
           entries must not clear it). *)
        let a = Array.of_list l in
        Array.iteri (fun i _ -> if i < nans then a.(i) <- nan) a;
        let b = Array.map (fun v -> v /. 2.0) a in
        let fold f = Array.fold_left (fun acc v -> Float.max acc (Float.abs (f v))) 0.0 in
        let bits = Int64.bits_of_float in
        bits (Vec.norm_inf a) = bits (fold Fun.id a)
        && bits (Vec.diff_inf a b)
           = bits (fold Fun.id (Array.map2 (fun x y -> x -. y) a b)));
    Test.make ~count:300 ~name:"scatter inverts gather" arb_square
      (fun (n, _, seed) ->
        let perm = random_perm n seed in
        let x = Array.init n (fun i -> float_of_int (i + 1) /. 2.0) in
        Vec.scatter (Vec.gather x perm) perm = x
        && Vec.gather (Vec.scatter x perm) perm = x);
    Test.make ~count:200 ~name:"matrix market roundtrips any csr" arb_csr
      (fun (r, c, t) ->
        let m = Csr.of_triplets ~rows:r ~cols:c t in
        Csr.approx_equal m
          (Mdl_sparse.Matrix_market.of_string (Mdl_sparse.Matrix_market.to_string m)));
    Test.make ~count:100 ~name:"matrix market write_file/read_file roundtrip"
      QCheck.(triple (int_range 1 12) (int_range 1 12) small_nat)
      (fun (rows, cols, seed) ->
        let prng = Mdl_util.Prng.of_seed seed in
        let nnz = Mdl_util.Prng.int prng (rows * cols) in
        let coo = Mdl_oracle.Gen_chain.coo prng ~rows ~cols ~nnz in
        let m = Csr.of_coo coo in
        let path = Filename.temp_file "mdlump_mm" ".mtx" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Mdl_sparse.Matrix_market.write_file m path;
            Csr.approx_equal m (Mdl_sparse.Matrix_market.read_file path)));
    Test.make ~count:300 ~name:"transpose involutive" arb_csr (fun (r, c, t) ->
        let m = Csr.of_triplets ~rows:r ~cols:c t in
        Csr.approx_equal m (Csr.transpose (Csr.transpose m)));
    Test.make ~count:300 ~name:"mul_vec agrees with dense" arb_csr (fun (r, c, t) ->
        let m = Csr.of_triplets ~rows:r ~cols:c t in
        let d = Csr.to_dense m in
        let x = Array.init c (fun j -> float_of_int (j + 1)) in
        let expected =
          Array.init r (fun i ->
              let acc = ref 0.0 in
              for j = 0 to c - 1 do
                acc := !acc +. (d.(i).(j) *. x.(j))
              done;
              !acc)
        in
        Vec.approx_equal (Csr.mul_vec m x) expected);
    Test.make ~count:300 ~name:"vec_mul is mul_vec of transpose" arb_csr
      (fun (r, c, t) ->
        let m = Csr.of_triplets ~rows:r ~cols:c t in
        let x = Array.init r (fun i -> float_of_int i -. 2.0) in
        Vec.approx_equal (Csr.vec_mul x m) (Csr.mul_vec (Csr.transpose m) x));
    Test.make ~count:300 ~name:"row_sums match col_sums of transpose" arb_csr
      (fun (r, c, t) ->
        let m = Csr.of_triplets ~rows:r ~cols:c t in
        Vec.approx_equal (Csr.row_sums m) (Csr.col_sums (Csr.transpose m)));
    Test.make ~count:300 ~name:"add commutes" (pair arb_csr arb_csr)
      (fun ((r, c, t1), (_, _, t2)) ->
        let t2 = List.filter (fun (i, j, _) -> i < r && j < c) t2 in
        let a = Csr.of_triplets ~rows:r ~cols:c t1 in
        let b = Csr.of_triplets ~rows:r ~cols:c t2 in
        Csr.approx_equal (Csr.add a b) (Csr.add b a));
  ]

let tests =
  [
    Alcotest.test_case "coo basics" `Quick test_coo_basics;
    Alcotest.test_case "csr duplicate folding" `Quick test_csr_duplicate_folding;
    Alcotest.test_case "csr cancellation" `Quick test_csr_cancellation;
    Alcotest.test_case "csr get" `Quick test_csr_get;
    Alcotest.test_case "csr sums" `Quick test_csr_sums;
    Alcotest.test_case "csr transpose" `Quick test_csr_transpose;
    Alcotest.test_case "csr mul_vec" `Quick test_csr_mul_vec;
    Alcotest.test_case "csr add/scale/map" `Quick test_csr_add_scale_map;
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "of_entry_iter basics" `Quick test_of_entry_iter_basics;
    Alcotest.test_case "csr permute" `Quick test_csr_permute;
    Alcotest.test_case "csr diagonal" `Quick test_csr_diagonal;
    Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
    Alcotest.test_case "rcm path bandwidth" `Quick test_rcm_path_bandwidth;
    Alcotest.test_case "ordering inverse" `Quick test_ordering_inverse;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "matrix market roundtrip" `Quick test_matrix_market_roundtrip;
    Alcotest.test_case "matrix market rejects garbage" `Quick
      test_matrix_market_rejects_garbage;
    Alcotest.test_case "matrix market file roundtrip" `Quick
      test_matrix_market_file_roundtrip;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
