let fail fn what = invalid_arg (Printf.sprintf "Md_vector.%s: %s" fn what)

let check_levels md ss fn =
  if Md.levels md <> Statespace.levels ss then fail fn "level count mismatch"

let check_size ss x fn = if Array.length x <> Statespace.size ss then fail fn "vector size mismatch"

(* Co-walk the diagram with row/column cursors over the state space,
   accumulating path offsets; [emit] is called once per terminal path
   with the final (row index, column index, rate).  Paths are visited,
   and their coefficients multiplied, in {!Md.iter_entries} order. *)
let co_walk md ss emit =
  let nlevels = Md.levels md in
  let rec walk id row_node col_node row_off col_off coeff =
    if Md.node_level md id > nlevels then emit row_off col_off coeff
    else
      (* Entries come row by row, so the row arc is looked up once per row. *)
      let row = ref (-1) and row_arc = ref None in
      Md.iter_node_entries md id (fun r c sum ->
          if r <> !row then begin
            row := r;
            row_arc := Statespace.arc ss row_node r
          end;
          match !row_arc with
          | None -> ()
          | Some (ro, row_child) -> (
              match Statespace.arc ss col_node c with
              | None -> ()
              | Some (co, col_child) ->
                  List.iter
                    (fun (child, w) ->
                      walk child row_child col_child (row_off + ro) (col_off + co)
                        (coeff *. w))
                    (Formal_sum.terms sum)))
  in
  walk (Md.root md) (Statespace.root ss) (Statespace.root ss) 0 0 1.0

let vec_mul md ss x =
  check_levels md ss "vec_mul";
  check_size ss x "vec_mul";
  let y = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i j v -> if x.(i) <> 0.0 then y.(j) <- y.(j) +. (x.(i) *. v));
  y

let row_sums md ss =
  check_levels md ss "row_sums";
  let sums = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i _ v -> sums.(i) <- sums.(i) +. v);
  sums

let to_csr md ss =
  check_levels md ss "to_csr";
  for l = 1 to Statespace.levels ss do
    List.iter
      (fun v -> if v < 0 || v >= Md.size md l then fail "to_csr" "substate out of range")
      (Statespace.local_states ss l)
  done;
  let n = Statespace.size ss in
  (* The co-walk emits the entries of [Md.iter_entries] restricted to
     [ss], in the same order and with the same products, straight into
     the two-pass count-then-fill constructor. *)
  Mdl_sparse.Csr.of_entry_iter ~rows:n ~cols:n (co_walk md ss)

let diag md ss =
  check_levels md ss "diag";
  let d = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i j v -> if i = j then d.(i) <- d.(i) +. v);
  d
