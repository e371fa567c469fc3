let fail fn what = invalid_arg (Printf.sprintf "Md_vector.%s: %s" fn what)

let check_levels md levels fn = if Md.levels md <> levels then fail fn "level count mismatch"

let check_size n x fn = if Array.length x <> n then fail fn "vector size mismatch"

(* Co-walk the diagram with row/column MDD cursors, accumulating path
   offsets; [emit] is called once per terminal path with the final
   (row index, column index, rate).  Paths are visited, and their
   coefficients multiplied, in {!Md.iter_entries} order. *)
let co_walk md mdd emit =
  let nlevels = Md.levels md in
  let rec walk id row_node col_node row_off col_off coeff =
    if Md.node_level md id > nlevels then emit row_off col_off coeff
    else
      (* Entries come row by row, so the row arc is looked up once per row. *)
      let row = ref (-1) and row_arc = ref None in
      Md.iter_node_entries md id (fun r c sum ->
          if r <> !row then begin
            row := r;
            row_arc := Mdd.arc mdd row_node r
          end;
          match !row_arc with
          | None -> ()
          | Some (ro, row_child) -> (
              match Mdd.arc mdd col_node c with
              | None -> ()
              | Some (co, col_child) ->
                  List.iter
                    (fun (child, w) ->
                      walk child row_child col_child (row_off + ro) (col_off + co)
                        (coeff *. w))
                    (Formal_sum.terms sum)))
  in
  walk (Md.root md) (Mdd.root mdd) (Mdd.root mdd) 0 0 1.0

let vec_mul_mdd md mdd x =
  check_levels md (Mdd.levels mdd) "vec_mul_mdd";
  check_size (Mdd.count mdd) x "vec_mul_mdd";
  let y = Array.make (Mdd.count mdd) 0.0 in
  co_walk md mdd (fun i j v -> if x.(i) <> 0.0 then y.(j) <- y.(j) +. (x.(i) *. v));
  y

let mul_vec_mdd md mdd x =
  check_levels md (Mdd.levels mdd) "mul_vec_mdd";
  check_size (Mdd.count mdd) x "mul_vec_mdd";
  let y = Array.make (Mdd.count mdd) 0.0 in
  co_walk md mdd (fun i j v -> if x.(j) <> 0.0 then y.(i) <- y.(i) +. (v *. x.(j)));
  y

let row_sums_mdd md mdd =
  check_levels md (Mdd.levels mdd) "row_sums_mdd";
  let sums = Array.make (Mdd.count mdd) 0.0 in
  co_walk md mdd (fun i _ v -> sums.(i) <- sums.(i) +. v);
  sums

let to_csr md ss =
  check_levels md (Statespace.levels ss) "to_csr";
  Statespace.iter
    (fun _ s ->
      Array.iteri
        (fun k v -> if v < 0 || v >= Md.size md (k + 1) then fail "to_csr" "substate out of range")
        s)
    ss;
  let n = Statespace.size ss in
  (* The co-walk emits the entries of [Md.iter_entries] restricted to
     [ss], in the same order and with the same products, straight into
     the two-pass count-then-fill constructor. *)
  Mdl_sparse.Csr.of_entry_iter ~rows:n ~cols:n (co_walk md (Mdd.of_statespace ss))

let diag_mdd md mdd =
  check_levels md (Mdd.levels mdd) "diag_mdd";
  let d = Array.make (Mdd.count mdd) 0.0 in
  co_walk md mdd (fun i j v -> if i = j then d.(i) <- d.(i) +. v);
  d
