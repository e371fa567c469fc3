type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

let rows t = t.rows

let cols t = t.cols

let nnz t = Array.length t.values

let raw t = (t.row_ptr, t.col_idx, t.values)

let of_coo coo =
  let rows = Coo.rows coo and cols = Coo.cols coo in
  let n = Coo.nnz coo in
  (* Collect triplets, sort lexicographically by (row, col), then fold
     duplicates in a single pass. *)
  let tr = Array.make n (0, 0, 0.0) in
  let k = ref 0 in
  Coo.iter
    (fun i j v ->
      tr.(!k) <- (i, j, v);
      incr k)
    coo;
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    tr;
  let out_i = Mdl_util.Dynarray.create () in
  let out_j = Mdl_util.Dynarray.create () in
  let out_v = Mdl_util.Dynarray.create () in
  let flush i j v =
    if v <> 0.0 then begin
      Mdl_util.Dynarray.push out_i i;
      Mdl_util.Dynarray.push out_j j;
      Mdl_util.Dynarray.push out_v v
    end
  in
  let rec fold k cur_i cur_j acc =
    if k >= n then flush cur_i cur_j acc
    else
      let i, j, v = tr.(k) in
      if i = cur_i && j = cur_j then fold (k + 1) cur_i cur_j (acc +. v)
      else begin
        flush cur_i cur_j acc;
        fold (k + 1) i j v
      end
  in
  if n > 0 then begin
    let i0, j0, v0 = tr.(0) in
    fold 1 i0 j0 v0
  end;
  let m = Mdl_util.Dynarray.length out_v in
  let col_idx = Array.make m 0 in
  let values = Array.make m 0.0 in
  let row_ptr = Array.make (rows + 1) 0 in
  for k = 0 to m - 1 do
    col_idx.(k) <- Mdl_util.Dynarray.get out_j k;
    values.(k) <- Mdl_util.Dynarray.get out_v k;
    let i = Mdl_util.Dynarray.get out_i k in
    row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
  done;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_triplets ~rows ~cols triplets = of_coo (Coo.of_triplets ~rows ~cols triplets)

(* Stable in-place sort of the parallel (cols, vals) segment
   [lo, lo + len) by column.  Ties keep their arrival order, so
   duplicate folding sums values deterministically in emission order.
   Short rows use a dual-array insertion sort; longer ones go through a
   stable index merge sort.  The annotations make the array accesses
   float- and int-specific: a generic array read boxes the float. *)
let sort_row_segment (cols : int array) (vals : float array) lo len =
  if len > 1 then
    if len <= 24 then
      for k = lo + 1 to lo + len - 1 do
        let c = cols.(k) and v = vals.(k) in
        let i = ref (k - 1) in
        while !i >= lo && cols.(!i) > c do
          cols.(!i + 1) <- cols.(!i);
          vals.(!i + 1) <- vals.(!i);
          decr i
        done;
        cols.(!i + 1) <- c;
        vals.(!i + 1) <- v
      done
    else begin
      let idx = Array.init len (fun t -> lo + t) in
      Mdl_util.Sortx.sort_by (fun a b -> compare cols.(a) cols.(b)) idx;
      let sc = Array.map (fun k -> cols.(k)) idx in
      let sv = Array.map (fun k -> vals.(k)) idx in
      Array.blit sc 0 cols lo len;
      Array.blit sv 0 vals lo len
    end

(* Order each row's columns, fold duplicates, drop entries that cancel
   to exactly 0., compacting in place: the write cursor never overtakes
   the read cursor because earlier rows only shrink. *)
let of_row_slots ~rows ~cols (base : int array) (col_idx : int array) (values : float array)
    =
  let padded = Array.length col_idx in
  if
    rows < 0 || cols < 0
    || Array.length base <> rows + 1
    || base.(0) <> 0
    || base.(rows) <> padded
    || Array.length values <> padded
  then invalid_arg "Csr.of_row_slots: slot layout does not match the arrays";
  let row_ptr = Array.make (rows + 1) 0 in
  let w = ref 0 in
  for i = 0 to rows - 1 do
    let lo = base.(i) and hi = base.(i + 1) in
    if hi < lo then invalid_arg "Csr.of_row_slots: decreasing row offsets";
    for k = lo to hi - 1 do
      let c = col_idx.(k) in
      if c < 0 || c >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_row_slots: (%d,%d) out of bounds for %dx%d" i c rows cols)
    done;
    sort_row_segment col_idx values lo (hi - lo);
    let r = ref lo in
    while !r < hi do
      let c = col_idx.(!r) in
      let acc = ref values.(!r) in
      incr r;
      while !r < hi && col_idx.(!r) = c do
        acc := !acc +. values.(!r);
        incr r
      done;
      if !acc <> 0.0 then begin
        col_idx.(!w) <- c;
        values.(!w) <- !acc;
        incr w
      end
    done;
    row_ptr.(i + 1) <- !w
  done;
  let m = !w in
  {
    rows;
    cols;
    row_ptr;
    col_idx = (if m = padded then col_idx else Array.sub col_idx 0 m);
    values = (if m = padded then values else Array.sub values 0 m);
  }

let of_entry_iter ~rows ~cols iter =
  if rows < 0 || cols < 0 then invalid_arg "Csr.of_entry_iter: negative dimension";
  (* Pass 1: count the (possibly duplicate) nonzero entries per row and
     turn the counts into row offsets of the padded layout. *)
  let base = Array.make (rows + 1) 0 in
  iter (fun i j v ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_entry_iter: (%d,%d) out of bounds for %dx%d" i j rows
             cols);
      if v <> 0.0 then base.(i + 1) <- base.(i + 1) + 1);
  for i = 0 to rows - 1 do
    base.(i + 1) <- base.(i + 1) + base.(i)
  done;
  let padded = base.(rows) in
  let col_idx = Array.make padded 0 in
  let values = Array.make padded 0.0 in
  (* Pass 2: fill each row's slots in emission order. *)
  let next = Array.sub base 0 rows in
  iter (fun i j v ->
      if v <> 0.0 then begin
        let k = next.(i) in
        if k >= base.(i + 1) then
          invalid_arg "Csr.of_entry_iter: iteration is not repeatable";
        col_idx.(k) <- j;
        values.(k) <- v;
        next.(i) <- k + 1
      end);
  for i = 0 to rows - 1 do
    if next.(i) <> base.(i + 1) then
      invalid_arg "Csr.of_entry_iter: iteration is not repeatable"
  done;
  of_row_slots ~rows ~cols base col_idx values

let of_dense d =
  let rows = Array.length d in
  let cols = if rows = 0 then 0 else Array.length d.(0) in
  let coo = Coo.create ~rows ~cols in
  Array.iteri
    (fun i row ->
      if Array.length row <> cols then invalid_arg "Csr.of_dense: ragged input";
      Array.iteri (fun j v -> if v <> 0.0 then Coo.add coo i j v) row)
    d;
  of_coo coo

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let iter f t =
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(k) t.values.(k)
    done
  done

let iter_pattern f t =
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(k)
    done
  done

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Csr.get: index out of bounds";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      result := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* The kernels below index the arrays directly instead of going through
   [iter_row]: a float handed to a closure is boxed, one allocation per
   stored entry. *)
let row_sum t i =
  let acc = ref 0.0 in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    acc := !acc +. t.values.(k)
  done;
  !acc

let row_sums t =
  let sums = Array.make t.rows 0.0 in
  for i = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. t.values.(k)
    done;
    sums.(i) <- !acc
  done;
  sums

let col_sums t =
  let sums = Array.make t.cols 0.0 in
  iter (fun _ j v -> sums.(j) <- sums.(j) +. v) t;
  sums

let to_coo t =
  let coo = Coo.create ~rows:t.rows ~cols:t.cols in
  iter (fun i j v -> Coo.add coo i j v) t;
  coo

let transpose t =
  (* Count-then-fill: walking the rows in order drops each entry into
     its column bucket with source rows already increasing, so the
     transposed rows come out sorted with no extra sort. *)
  let row_ptr = Array.make (t.cols + 1) 0 in
  Array.iter (fun j -> row_ptr.(j + 1) <- row_ptr.(j + 1) + 1) t.col_idx;
  for j = 0 to t.cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j + 1) + row_ptr.(j)
  done;
  let m = nnz t in
  let col_idx = Array.make m 0 in
  let values = Array.make m 0.0 in
  let next = Array.sub row_ptr 0 t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      let w = next.(j) in
      col_idx.(w) <- i;
      values.(w) <- t.values.(k);
      next.(j) <- w + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

let permute t ~perm =
  if t.rows <> t.cols then invalid_arg "Csr.permute: matrix is not square";
  let n = t.rows in
  if Array.length perm <> n then invalid_arg "Csr.permute: permutation length mismatch";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun k o ->
      if o < 0 || o >= n || inv.(o) >= 0 then
        invalid_arg "Csr.permute: not a permutation";
      inv.(o) <- k)
    perm;
  let row_ptr = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let o = perm.(k) in
    row_ptr.(k + 1) <- row_ptr.(k) + (t.row_ptr.(o + 1) - t.row_ptr.(o))
  done;
  let m = nnz t in
  let col_idx = Array.make m 0 in
  let values = Array.make m 0.0 in
  for k = 0 to n - 1 do
    let o = perm.(k) in
    let lo = t.row_ptr.(o) in
    for s = lo to t.row_ptr.(o + 1) - 1 do
      let d = row_ptr.(k) + s - lo in
      col_idx.(d) <- inv.(t.col_idx.(s));
      values.(d) <- t.values.(s)
    done;
    sort_row_segment col_idx values row_ptr.(k) (row_ptr.(k + 1) - row_ptr.(k))
  done;
  { rows = n; cols = n; row_ptr; col_idx; values }

let diagonal t =
  if t.rows <> t.cols then invalid_arg "Csr.diagonal: matrix is not square";
  let d = Array.make t.rows 0.0 in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if t.col_idx.(k) = i then d.(i) <- t.values.(k)
    done
  done;
  d

let scale alpha t =
  if alpha = 0.0 then of_coo (Coo.create ~rows:t.rows ~cols:t.cols)
  else { t with values = Array.map (fun v -> alpha *. v) t.values }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Csr.add: dimension mismatch";
  let coo = to_coo a in
  iter (fun i j v -> Coo.add coo i j v) b;
  of_coo coo

let map f t =
  let coo = Coo.create ~rows:t.rows ~cols:t.cols in
  iter (fun i j v -> Coo.add coo i j (f v)) t;
  of_coo coo

let mul_vec t x =
  if Array.length x <> t.cols then invalid_arg "Csr.mul_vec: dimension mismatch";
  let y = Array.make t.rows 0.0 in
  for i = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    y.(i) <- !acc
  done;
  y

let vec_mul_into x t (y : Vec.t) =
  if Array.length x <> t.rows || Array.length y <> t.cols then
    invalid_arg "Csr.vec_mul_into: dimension mismatch";
  if x == y then invalid_arg "Csr.vec_mul_into: x and y are the same vector";
  Array.fill y 0 t.cols 0.0;
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        y.(j) <- y.(j) +. (xi *. t.values.(k))
      done
  done

let vec_mul x t =
  if Array.length x <> t.rows then invalid_arg "Csr.vec_mul: dimension mismatch";
  let y = Array.make t.cols 0.0 in
  vec_mul_into x t y;
  y

(* Gauss–Seidel on [x Q = 0], compiled once per solve: row [j] of the
   plan holds the rates into [j] from the other states, sources
   ascending, and [neg_diag.(j)] is [-. Q(j,j)].  Self loops are left
   out when the plan is built, so the sweep never tests for one. *)
type sweep_plan = {
  in_ptr : int array; (* length n+1 *)
  src : int array;
  rate : float array;
  neg_diag : float array; (* length n *)
}

let sweep_plan t ~diag =
  let n = t.rows in
  if t.cols <> n then invalid_arg "Csr.sweep_plan: matrix is not square";
  if Array.length diag <> n then invalid_arg "Csr.sweep_plan: diagonal length mismatch";
  (* Count-then-fill as in [transpose]: walking the rows in order drops
     each rate into its target's bucket with sources already
     ascending. *)
  let in_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if j <> i then in_ptr.(j + 1) <- in_ptr.(j + 1) + 1
    done
  done;
  for j = 0 to n - 1 do
    in_ptr.(j + 1) <- in_ptr.(j + 1) + in_ptr.(j)
  done;
  let m = in_ptr.(n) in
  let src = Array.make m 0 and rate = Array.make m 0.0 in
  let next = Array.sub in_ptr 0 n in
  for i = 0 to n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if j <> i then begin
        let w = next.(j) in
        src.(w) <- i;
        rate.(w) <- t.values.(k);
        next.(j) <- w + 1
      end
    done
  done;
  let neg_diag = Array.make n 0.0 in
  for j = 0 to n - 1 do
    neg_diag.(j) <- -.diag.(j)
  done;
  { in_ptr; src; rate; neg_diag }

let sor_sweep p ~relax (x : Vec.t) =
  let n = Array.length p.neg_diag in
  if Array.length x <> n then
    invalid_arg "Csr.sor_sweep: vector length does not match the plan";
  let in_ptr = p.in_ptr and src = p.src and rate = p.rate and neg_diag = p.neg_diag in
  let plain = relax = 1.0 and keep = 1.0 -. relax in
  let sum = ref 0.0 and comp = ref 0.0 in
  for j = 0 to n - 1 do
    (* Every read is in range by construction: [in_ptr] holds [n + 1]
       nondecreasing offsets from 0 to the length of [src] and [rate],
       every [src] entry is a row of the square [n]-state matrix, and
       [neg_diag] and [x] hold [n] entries. *)
    let incoming = ref 0.0 in
    for k = Array.unsafe_get in_ptr j to Array.unsafe_get in_ptr (j + 1) - 1 do
      let xi = Array.unsafe_get x (Array.unsafe_get src k) in
      incoming := !incoming +. (xi *. Array.unsafe_get rate k)
    done;
    let gs = !incoming /. Array.unsafe_get neg_diag j in
    let xj = if plain then gs else (keep *. Array.unsafe_get x j) +. (relax *. gs) in
    Array.unsafe_set x j xj;
    (* [Floatx.sum_kahan]'s step: [x.(j)] is final once written, so this
       is the compensated sum of the new iterate in index order. *)
    let y = xj -. !comp in
    let s = !sum +. y in
    comp := s -. !sum -. y;
    sum := s
  done;
  !sum

let gs_sweep t ~denom ~constant ~active x =
  let n = t.rows in
  if
    t.cols <> n
    || Array.length denom <> n
    || Array.length constant <> n
    || Array.length active <> n
    || Array.length x <> n
  then invalid_arg "Csr.gs_sweep: dimension mismatch";
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = 0 to n - 1 do
    if active.(i) then begin
      let acc = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_idx.(k) in
        if j <> i then acc := !acc +. (values.(k) *. x.(j))
      done;
      x.(i) <- (constant.(i) +. !acc) /. denom.(i)
    end
  done

let to_dense t =
  let d = Array.make_matrix t.rows t.cols 0.0 in
  iter (fun i j v -> d.(i).(j) <- v) t;
  d

let approx_equal ?eps a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  iter (fun i j v -> if not (Mdl_util.Floatx.approx_eq ?eps v (get b i j)) then ok := false) a;
  iter (fun i j v -> if not (Mdl_util.Floatx.approx_eq ?eps v (get a i j)) then ok := false) b;
  !ok

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && a.row_ptr = b.row_ptr && a.col_idx = b.col_idx
  &&
  let n = Array.length a.values in
  let rec loop k =
    k >= n
    || Int64.bits_of_float a.values.(k) = Int64.bits_of_float b.values.(k) && loop (k + 1)
  in
  loop 0

let hash t =
  let h = ref (Mdl_util.Hashx.combine t.rows t.cols) in
  iter
    (fun i j v ->
      h := Mdl_util.Hashx.combine (Mdl_util.Hashx.combine (Mdl_util.Hashx.combine !h i) j) (Mdl_util.Hashx.float v))
    t;
  !h

let identity n =
  if n < 0 then invalid_arg "Csr.identity: negative dimension";
  {
    rows = n;
    cols = n;
    row_ptr = Array.init (n + 1) Fun.id;
    col_idx = Array.init n Fun.id;
    values = Array.make n 1.0;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%dx%d, %d nnz" t.rows t.cols (nnz t);
  iter (fun i j v -> Format.fprintf ppf "@,(%d,%d) = %g" i j v) t;
  Format.fprintf ppf "@]"
