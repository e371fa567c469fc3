module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Csr = Mdl_sparse.Csr
module Floatx = Mdl_util.Floatx

type violation = { check : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.check v.detail

let flat_index sizes tuple =
  let acc = ref 0 in
  for l = 0 to Array.length sizes - 1 do
    acc := (!acc * sizes.(l)) + tuple.(l)
  done;
  !acc

(* Canonical content of a node: the full entry list in iteration order
   (rows ascending, columns ascending within a row).  Two live nodes
   with equal content violate quasi-reduction. *)
let node_entries md id =
  let acc = ref [] in
  Md.iter_node_entries md id (fun r c s -> acc := (r, c, s) :: !acc);
  List.rev !acc

let same_content a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1, c1, s1) (r2, c2, s2) -> r1 = r2 && c1 = c2 && Formal_sum.equal s1 s2)
       a b

let md m =
  let violations = ref [] in
  let add check fmt = Printf.ksprintf (fun detail -> violations := { check; detail } :: !violations) fmt in
  (match try Some (Md.root m) with Invalid_argument _ -> None with
  | None -> add "root" "no root set"
  | Some r ->
      if Md.node_level m r <> 1 then
        add "root" "root node is at level %d, not 1" (Md.node_level m r);
      let levels = Md.levels m in
      let live = Md.live_nodes m in
      (* Level-respecting edges and coefficient sanity. *)
      Array.iteri
        (fun li ids ->
          let l = li + 1 in
          List.iter
            (fun id ->
              if Md.node_level m id <> l then
                add "edges" "node %d listed live at level %d but stored at level %d" id l
                  (Md.node_level m id);
              Md.iter_node_entries m id (fun row col s ->
                  List.iter
                    (fun (child, w) ->
                      let cl = Md.node_level m child in
                      if cl <> l + 1 then
                        add "edges"
                          "node %d entry (%d,%d): child %d at level %d, expected %d" id
                          row col child cl (l + 1);
                      if l = levels && child <> Md.terminal m then
                        add "edges" "node %d entry (%d,%d): bottom-level child %d is not the terminal"
                          id row col child;
                      if not (Float.is_finite w) then
                        add "coeff" "node %d entry (%d,%d): non-finite coefficient %h" id
                          row col w;
                      if w < 0.0 then
                        add "coeff" "node %d entry (%d,%d): negative rate %g" id row col w)
                    (Formal_sum.terms s)))
            ids)
        live;
      (* Quasi-reduction: pairwise structural distinctness per level. *)
      Array.iteri
        (fun li ids ->
          let arr = Array.of_list ids in
          let contents = Array.map (node_entries m) arr in
          for i = 0 to Array.length arr - 1 do
            for j = i + 1 to Array.length arr - 1 do
              if same_content contents.(i) contents.(j) then
                add "quasi-reduced" "level %d: live nodes %d and %d are structurally equal"
                  (li + 1) arr.(i) arr.(j)
            done
          done)
        live;
      (* Row-sum consistency: the encoded matrix must agree between the
         flattening path (Md.to_csr, COO folding) and an independent
         accumulation over root-to-terminal paths. *)
      if Md.potential_space_size m <= 1 lsl 16 then begin
        let sizes = Md.sizes m in
        let flat = Md.to_csr m in
        let n = Csr.rows flat in
        let sums = Array.make n 0.0 in
        Md.iter_entries m (fun ~row ~col:_ v ->
            let i = flat_index sizes row in
            sums.(i) <- sums.(i) +. v);
        for i = 0 to n - 1 do
          let direct = Csr.row_sum flat i in
          if not (Floatx.approx_eq sums.(i) direct) then
            add "row-sum" "flat row %d: path sum %.17g <> CSR row sum %.17g" i sums.(i)
              direct
        done
      end);
  List.rev !violations

let assert_valid m =
  match md m with
  | [] -> ()
  | vs ->
      invalid_arg
        (Printf.sprintf "Invariants.assert_valid: %s"
           (String.concat "; "
              (List.map (fun v -> Printf.sprintf "[%s] %s" v.check v.detail) vs)))
