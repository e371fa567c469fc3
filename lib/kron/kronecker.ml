module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

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
          let _, _, values = Csr.raw w in
          for k = 0 to Array.length values - 1 do
            let v = values.(k) in
            if v < 0.0 then
              invalid_arg
                (Printf.sprintf "Kronecker.make: event %s has a negative entry" e.label);
            if not (Float.is_finite v) then
              invalid_arg
                (Printf.sprintf "Kronecker.make: event %s has a non-finite entry" e.label)
          done)
        e.locals)
    events;
  { level_sizes = Array.copy sizes; event_list = events }

let sizes t = Array.copy t.level_sizes

let events t = t.event_list

let num_events t = List.length t.event_list

let potential_size t = Array.fold_left ( * ) 1 t.level_sizes

let identity_local n = Csr.identity n

(* A level's suffixes, each an event's chain from that level down, are
   numbered in creation order, equal suffixes sharing a number.  A key
   hashes in O(1), from its local matrix's dimension, entry count and
   first few entries; equality stays exact, and the identity matrices
   the events share meet it by physical equality. *)
let hash_local w =
  let _, col_idx, values = Csr.raw w in
  let h = ref (Hashx.combine (Csr.rows w) (Array.length values)) in
  for k = 0 to min 4 (Array.length values) - 1 do
    h := Hashx.combine (Hashx.combine !h col_idx.(k)) (Hashx.float values.(k))
  done;
  !h

module Suffix_table = Hashtbl.Make (struct
  type t = Csr.t * int

  let equal (a, i) (b, j) = i = j && (a == b || Csr.equal a b)

  let hash (w, i) = Hashx.combine (hash_local w) i
end)

module Sum_table = Hashtbl.Make (Formal_sum)

(* One level's scratch for [to_md]'s node builder.  A row accumulates in
   a pool of cells: each touched column heads a list of (child, sum)
   cells in ascending child order, each sum added in term order.  A
   build recurses only into deeper levels, so no two builds of one level
   overlap and the scratch is reset per row. *)
type scratch = {
  head : int array; (* column -> its first cell, or -1 *)
  touched : int array; (* the row's touched columns, [ntouched] of them *)
  mutable ntouched : int;
  mutable child : int array; (* cell -> child (suffix number below) *)
  mutable sum : float array; (* cell -> its sum *)
  mutable next : int array; (* cell -> the column's next cell, or -1 *)
  mutable ncells : int;
}

let scratch n =
  {
    head = Array.make n (-1);
    touched = Array.make n 0;
    ntouched = 0;
    child = Array.make 64 0;
    sum = Array.make 64 0.0;
    next = Array.make 64 0;
    ncells = 0;
  }

(* A fresh cell of [child] before [next]; its sum is the caller's to set. *)
let new_cell sc child next =
  let k = sc.ncells in
  if k = Array.length sc.child then begin
    let grow a fill =
      let b = Array.make (2 * k) fill in
      Array.blit a 0 b 0 k;
      b
    in
    sc.child <- grow sc.child 0;
    sc.sum <- grow sc.sum 0.0;
    sc.next <- grow sc.next 0
  end;
  sc.child.(k) <- child;
  sc.next.(k) <- next;
  sc.ncells <- k + 1;
  k

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
  (* An event with an all-zero local matrix at some level adds the zero
     matrix and is left out: kept, it would leave entries on the empty
     node.  The root sums each entry over the events in reverse list
     order, a node below over its suffixes in ascending number.  Every
     suffix is numbered here, before the first node is built. *)
  let roots =
    Array.of_list
      (List.fold_left
         (fun acc e ->
           if Array.exists (fun w -> Csr.nnz w = 0) e.locals then acc
           else (e.locals.(0), suffix e 2, e.rate) :: acc)
         [] t.event_list)
  in
  (* The node of one suffix at coefficient 1, and its factor, per level
     and suffix number ([-1]: not built yet); the node of any other sum
     of suffixes, by the sum. *)
  let single_id = Array.map (fun d -> Array.make (Dynarray.length d) (-1)) suffixes in
  let single_gamma = Array.map (fun d -> Array.make (Dynarray.length d) 1.0) suffixes in
  let memo = Array.init nlevels (fun _ -> Sum_table.create 16) in
  let scratches = Array.map scratch sizes in
  let term l (s, c) =
    let w, child = Dynarray.get suffixes.(l - 1) s in
    (w, child, c)
  in
  (* [build l terms] commits the level-[l] node of [sum_k c_k W_k (X)
     child_k] over [terms = (W_k, child_k, c_k)], each entry summed in
     term order, divided by [gamma], its first coefficient in row-major
     order; it returns the node and [gamma]. *)
  let rec build l terms =
    let n = sizes.(l - 1) and sc = scratches.(l - 1) in
    let nterms = Array.length terms in
    let row_ptrs = Array.map (fun (w, _, _) -> let p, _, _ = Csr.raw w in p) terms in
    let cols = Array.map (fun (w, _, _) -> let _, c, _ = Csr.raw w in c) terms in
    let vals = Array.map (fun (w, _, _) -> let _, _, v = Csr.raw w in v) terms in
    let kids = Array.map (fun (_, child, _) -> child) terms in
    let coeffs = Array.map (fun (_, _, c) -> c) terms in
    let gamma = ref 0.0 and inv = ref 1.0 in
    let rows = Array.make n [||] in
    for r = 0 to n - 1 do
      sc.ncells <- 0;
      sc.ntouched <- 0;
      for k = 0 to nterms - 1 do
        let ci = cols.(k) and vs = vals.(k) and child = kids.(k) and c = coeffs.(k) in
        for p = row_ptrs.(k).(r) to row_ptrs.(k).(r + 1) - 1 do
          let x = c *. vs.(p) in
          if x <> 0.0 then begin
            let col = ci.(p) in
            let prev = ref (-1) and cur = ref sc.head.(col) in
            while !cur >= 0 && sc.child.(!cur) < child do
              prev := !cur;
              cur := sc.next.(!cur)
            done;
            if !cur >= 0 && sc.child.(!cur) = child then sc.sum.(!cur) <- sc.sum.(!cur) +. x
            else begin
              let cell = new_cell sc child !cur in
              sc.sum.(cell) <- x;
              if !prev >= 0 then sc.next.(!prev) <- cell
              else begin
                if !cur < 0 then begin
                  sc.touched.(sc.ntouched) <- col;
                  sc.ntouched <- sc.ntouched + 1
                end;
                sc.head.(col) <- cell
              end
            end
          end
        done
      done;
      Mdl_util.Sortx.sort_int_prefix sc.touched sc.ntouched;
      let entries = Array.make sc.ntouched (0, Formal_sum.empty) and m = ref 0 in
      for i = 0 to sc.ntouched - 1 do
        let col = sc.touched.(i) in
        let first = sc.head.(col) in
        sc.head.(col) <- -1;
        let cells = ref 0 and nonzero = ref 0 and last = ref (-1) and cell = ref first in
        while !cell >= 0 do
          incr cells;
          if sc.sum.(!cell) <> 0.0 then begin
            incr nonzero;
            last := !cell
          end;
          cell := sc.next.(!cell)
        done;
        let id = ref (Md.terminal md) and y = ref 1.0 in
        if !nonzero = 1 then begin
          let s = sc.child.(!last) and x = sc.sum.(!last) in
          let g =
            if l = nlevels then 1.0
            else begin
              if single_id.(l).(s) < 0 then begin
                let nid, g = build (l + 1) [| term (l + 1) (s, 1.0) |] in
                single_id.(l).(s) <- nid;
                single_gamma.(l).(s) <- g
              end;
              id := single_id.(l).(s);
              single_gamma.(l).(s)
            end
          in
          y := x *. g
        end
        else begin
          let ids = Array.make !cells 0 and sums = Array.make !cells 0.0 in
          let cell = ref first in
          for j = 0 to !cells - 1 do
            ids.(j) <- sc.child.(!cell);
            sums.(j) <- sc.sum.(!cell);
            cell := sc.next.(!cell)
          done;
          let nid, g = node (l + 1) (Formal_sum.of_slots ids sums 0) in
          id := nid;
          y := g
        end;
        if !gamma = 0.0 && !y <> 0.0 then begin
          gamma := !y;
          inv := 1.0 /. !y
        end;
        let s = Formal_sum.singleton !id (!inv *. !y) in
        if not (Formal_sum.is_empty s) then begin
          entries.(!m) <- (col, s);
          incr m
        end
      done;
      rows.(r) <- (if !m = sc.ntouched then entries else Array.sub entries 0 !m)
    done;
    (Md.add_node_sorted_rows md ~level:l rows, if !gamma = 0.0 then 1.0 else !gamma)
  (* [node l sum]: the node of a sum of level-[l] suffixes that is not one
     suffix at coefficient 1. *)
  and node l sum =
    if l > nlevels then (Md.terminal md, 1.0)
    else
      match Sum_table.find_opt memo.(l - 1) sum with
      | Some r -> r
      | None ->
          let r = build l (Array.map (term l) (sum :> (int * float) array)) in
          Sum_table.add memo.(l - 1) sum r;
          r
  in
  (* The root, committed divided like every node, is then multiplied
     back by its factor: the float order and node ids the golden
     diagrams in the tests pin. *)
  let root, gamma = build 1 roots in
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
