module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Dynarray = Mdl_util.Dynarray

type event = {
  label : string;
  rate : float;
  locals : Csr.t array;
}

type t = {
  level_sizes : int array;
  event_list : event list;
}

let make ~sizes events =
  if Array.length sizes = 0 then invalid_arg "Kronecker.make: no levels";
  Array.iter (fun n -> if n <= 0 then invalid_arg "Kronecker.make: non-positive level size") sizes;
  List.iter
    (fun e ->
      if e.rate <= 0.0 then
        invalid_arg (Printf.sprintf "Kronecker.make: event %s has non-positive rate" e.label);
      if not (Float.is_finite e.rate) then
        invalid_arg (Printf.sprintf "Kronecker.make: event %s has non-finite rate" e.label);
      if Array.length e.locals <> Array.length sizes then
        invalid_arg (Printf.sprintf "Kronecker.make: event %s has wrong level count" e.label);
      Array.iteri
        (fun i w ->
          if Csr.rows w <> sizes.(i) || Csr.cols w <> sizes.(i) then
            invalid_arg
              (Printf.sprintf "Kronecker.make: event %s level %d matrix has wrong size"
                 e.label (i + 1));
          Csr.iter
            (fun _ _ v ->
              if v < 0.0 then
                invalid_arg
                  (Printf.sprintf "Kronecker.make: event %s has a negative entry" e.label);
              if not (Float.is_finite v) then
                invalid_arg
                  (Printf.sprintf "Kronecker.make: event %s has a non-finite entry" e.label))
            w)
        e.locals)
    events;
  { level_sizes = Array.copy sizes; event_list = events }

let sizes t = Array.copy t.level_sizes

let events t = t.event_list

let num_events t = List.length t.event_list

let potential_size t = Array.fold_left ( * ) 1 t.level_sizes

let identity_local n = Csr.identity n

(* A level's suffixes, each an event's chain from that level down, are
   numbered in creation order, equal suffixes sharing a number. *)
module Suffix_table = Hashtbl.Make (struct
  type t = Csr.t * int

  let equal (a, i) (b, j) = i = j && Csr.equal a b

  let hash (w, i) = Mdl_util.Hashx.combine (Csr.hash w) i
end)

module Sum_table = Hashtbl.Make (Formal_sum)

let rec add child x = function
  | [] -> [ (child, x) ]
  | (c, p) :: rest when c = child -> (c, p +. x) :: rest
  | term :: rest -> term :: add child x rest

let to_md t =
  let sizes = t.level_sizes in
  let nlevels = Array.length sizes in
  let md = Md.create ~sizes in
  let suffixes = Array.init nlevels (fun _ -> Dynarray.create ()) in
  let numbers = Array.init nlevels (fun _ -> Suffix_table.create 16) in
  let rec suffix e l =
    if l > nlevels then Md.terminal md
    else
      let child = suffix e (l + 1) and w = e.locals.(l - 1) in
      let key = (w, child) in
      match Suffix_table.find_opt numbers.(l - 1) key with
      | Some s -> s
      | None ->
          let s = Dynarray.length suffixes.(l - 1) in
          Dynarray.push suffixes.(l - 1) (w, child);
          Suffix_table.add numbers.(l - 1) key s;
          s
  in
  let memo = Array.init nlevels (fun _ -> Sum_table.create 16) in
  (* [build l terms] commits the level-[l] node of [sum_k c_k W_k (X)
     child_k] over [terms = (W_k, child_k, c_k)], each entry summed in
     list order, divided by [gamma], its first coefficient in row-major
     order; it returns the node and [gamma]. *)
  let rec build l terms =
    let n = sizes.(l - 1) in
    let acc = Array.make n [] in
    let gamma = ref 0.0 and inv = ref 1.0 in
    let row r =
      let cols = ref [] in
      List.iter
        (fun (w, child, c) ->
          Csr.iter_row w r (fun col v ->
              let x = c *. v in
              if x <> 0.0 then begin
                if acc.(col) = [] then cols := col :: !cols;
                acc.(col) <- add child x acc.(col)
              end))
        terms;
      List.sort Int.compare !cols
      |> List.filter_map (fun col ->
             let sum = Formal_sum.of_list acc.(col) in
             acc.(col) <- [];
             let id, y =
               match Formal_sum.terms sum with
               | [ (s, x) ] ->
                   let id, g = node (l + 1) (Formal_sum.singleton s 1.0) in
                   (id, x *. g)
               | _ -> node (l + 1) sum
             in
             if !gamma = 0.0 && y <> 0.0 then begin
               gamma := y;
               inv := 1.0 /. y
             end;
             let s = Formal_sum.singleton id (!inv *. y) in
             if Formal_sum.is_empty s then None else Some (col, s))
      |> Array.of_list
    in
    let rows = Array.init n row in
    (Md.add_node_sorted_rows md ~level:l rows, if !gamma = 0.0 then 1.0 else !gamma)
  (* [node l sum]: the node of a sum of level-[l] suffixes. *)
  and node l sum =
    if l > nlevels then (Md.terminal md, 1.0)
    else
      match Sum_table.find_opt memo.(l - 1) sum with
      | Some r -> r
      | None ->
          let term (s, c) =
            let w, child = Dynarray.get suffixes.(l - 1) s in
            (w, child, c)
          in
          let r = build l (List.map term (Formal_sum.terms sum)) in
          Sum_table.add memo.(l - 1) sum r;
          r
  in
  (* An event with an all-zero local matrix at some level adds the zero
     matrix and is left out: kept, it would leave entries on the empty
     node.  The root sums each entry over the events in reverse list
     order, a node below over its suffixes in ascending number, and the
     root, committed divided like every node, is then multiplied back by
     its factor: the float order and node ids the golden diagrams in the
     tests pin. *)
  let root, gamma =
    build 1
      (List.fold_left
         (fun acc e ->
           if Array.exists (fun w -> Csr.nnz w = 0) e.locals then acc
           else (e.locals.(0), suffix e 2, e.rate) :: acc)
         [] t.event_list)
  in
  let rescaled r =
    Array.of_list (List.map (fun (c, s) -> (c, Formal_sum.scale gamma s)) (Md.node_row md root r))
  in
  Md.set_root md
    (if gamma = 1.0 then root
     else Md.add_node_sorted_rows md ~level:1 (Array.init sizes.(0) rescaled));
  md

let vec_mul t x =
  let n = potential_size t in
  if Array.length x <> n then invalid_arg "Kronecker.vec_mul: vector size mismatch";
  let nlevels = Array.length t.level_sizes in
  let y = Array.make n 0.0 in
  let scratch_in = Array.make (Array.fold_left max 1 t.level_sizes) 0.0 in
  List.iter
    (fun e ->
      (* z := x * (W_e^1 (X) ... (X) W_e^L) by applying one factor at a
         time (perfect shuffle): factor l acts on the l-th mixed-radix
         digit with stride nright. *)
      let z = ref (Array.copy x) in
      let nright = Array.make nlevels 1 in
      for l = nlevels - 2 downto 0 do
        nright.(l) <- nright.(l + 1) * t.level_sizes.(l + 1)
      done;
      for l = 0 to nlevels - 1 do
        let nl = t.level_sizes.(l) in
        let stride = nright.(l) in
        let w = e.locals.(l) in
        let next = Array.make n 0.0 in
        let nleft = n / (nl * stride) in
        for il = 0 to nleft - 1 do
          for ir = 0 to stride - 1 do
            let base = (il * nl * stride) + ir in
            for d = 0 to nl - 1 do
              scratch_in.(d) <- !z.(base + (d * stride))
            done;
            (* row-vector times W: next digit j accumulates scratch_in(i) * W(i,j) *)
            for i = 0 to nl - 1 do
              let xi = scratch_in.(i) in
              if xi <> 0.0 then
                Csr.iter_row w i (fun j v ->
                    next.(base + (j * stride)) <- next.(base + (j * stride)) +. (xi *. v))
            done
          done
        done;
        z := next
      done;
      Mdl_sparse.Vec.axpy ~alpha:e.rate !z y)
    t.event_list;
  y

let to_csr t =
  let n = potential_size t in
  if n > 1 lsl 22 then invalid_arg "Kronecker.to_csr: potential space too large";
  let coo = Coo.create ~rows:n ~cols:n in
  let nlevels = Array.length t.level_sizes in
  List.iter
    (fun e ->
      (* Enumerate the nonzeros of the Kronecker product of the event's
         local matrices. *)
      let rec expand level row col coeff =
        if level > nlevels then Coo.add coo row col (e.rate *. coeff)
        else
          let nl = t.level_sizes.(level - 1) in
          ignore nl;
          Csr.iter
            (fun r c v ->
              expand (level + 1)
                ((row * t.level_sizes.(level - 1)) + r)
                ((col * t.level_sizes.(level - 1)) + c)
                (coeff *. v))
            e.locals.(level - 1)
      in
      expand 1 0 0 1.0)
    t.event_list;
  Csr.of_coo coo
