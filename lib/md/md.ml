module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type node_id = int

type node = {
  level : int;
  rows : (int * Formal_sum.t) array array; (* row -> entries sorted by col *)
  kids : node_id array;
      (* distinct children, in first-appearance order over (row, entry,
         term): what [live_nodes] walks *)
}

(* Structural identity of node contents, used for hash-consing
   (quasi-reduction): equal level and equal rows with bit-exact
   coefficient equality ([kids] is derived from [rows]). *)
module Node_key = struct
  type t = node

  let equal a b =
    a.level = b.level
    && Array.length a.rows = Array.length b.rows
    && Array.for_all2
         (fun ra rb ->
           Array.length ra = Array.length rb
           && Array.for_all2
                (fun (c1, s1) (c2, s2) -> c1 = c2 && Formal_sum.equal s1 s2)
                ra rb)
         a.rows b.rows

  let hash n =
    Array.fold_left
      (fun h row ->
        Array.fold_left
          (fun h (c, s) -> Hashx.combine (Hashx.combine h c) (Formal_sum.hash s))
          (Hashx.combine h (Array.length row))
          row)
      n.level n.rows
end

module Cons_table = Hashtbl.Make (Node_key)

type t = {
  nlevels : int;
  level_sizes : int array;
  nodes : node Dynarray.t; (* id -> node; id 0 is the terminal *)
  cons : node_id Cons_table.t;
  mutable root_id : node_id option;
  mutable seen : int array; (* id -> stamp, scratch of [distinct_children] *)
  mutable stamp : int;
}

let create ~sizes =
  if Array.length sizes = 0 then invalid_arg "Md.create: no levels";
  Array.iter (fun s -> if s <= 0 then invalid_arg "Md.create: non-positive level size") sizes;
  let nodes = Dynarray.create () in
  (* Terminal node: the 1x1 identity scalar at conceptual level L+1. *)
  Dynarray.push nodes { level = Array.length sizes + 1; rows = [||]; kids = [||] };
  {
    nlevels = Array.length sizes;
    level_sizes = Array.copy sizes;
    nodes;
    cons = Cons_table.create 256;
    root_id = None;
    seen = [||];
    stamp = 0;
  }

let levels t = t.nlevels

let size t l =
  if l < 1 || l > t.nlevels then invalid_arg "Md.size: level out of range";
  t.level_sizes.(l - 1)

let sizes t = Array.copy t.level_sizes

let terminal _t = 0

let node t id =
  if id < 0 || id >= Dynarray.length t.nodes then invalid_arg "Md: invalid node id";
  Dynarray.get t.nodes id

let node_level t id = (node t id).level

(* Children exist before their parents, so every id met is below the
   store's length. *)
let distinct_children t rows =
  let n = Dynarray.length t.nodes in
  if Array.length t.seen < n then t.seen <- Array.make (max n (2 * Array.length t.seen)) 0;
  t.stamp <- t.stamp + 1;
  let seen = t.seen and stamp = t.stamp in
  let kids = Dynarray.create () in
  Array.iter
    (Array.iter (fun (_, s) ->
         Array.iter
           (fun (child, _) ->
             if seen.(child) <> stamp then begin
               seen.(child) <- stamp;
               Dynarray.push kids child
             end)
           (s : Formal_sum.t :> (int * float) array)))
    rows;
  Dynarray.to_array kids

(* Hash-cons a candidate (built with no [kids]): an existing equal node
   keeps its id, a new one is stored with its children recorded. *)
let intern t candidate =
  match Cons_table.find_opt t.cons candidate with
  | Some id -> id
  | None ->
      let nd = { candidate with kids = distinct_children t candidate.rows } in
      let id = Dynarray.length t.nodes in
      Dynarray.push t.nodes nd;
      Cons_table.add t.cons nd id;
      id

let add_node t ~level entries =
  if level < 1 || level > t.nlevels then invalid_arg "Md.add_node: level out of range";
  let n = t.level_sizes.(level - 1) in
  (* Combine duplicate positions and validate. *)
  let by_pos = Hashtbl.create (List.length entries) in
  List.iter
    (fun (r, c, s) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg
          (Printf.sprintf "Md.add_node: entry (%d,%d) out of range for level %d (size %d)"
             r c level n);
      List.iter
        (fun child ->
          let cl = node_level t child in
          if cl <> level + 1 then
            invalid_arg
              (Printf.sprintf
                 "Md.add_node: child %d has level %d, expected %d" child cl (level + 1)))
        (Formal_sum.children s);
      let prev = Option.value ~default:Formal_sum.empty (Hashtbl.find_opt by_pos (r, c)) in
      Hashtbl.replace by_pos (r, c) (Formal_sum.add prev s))
    entries;
  let rows = Array.make n [] in
  Hashtbl.iter
    (fun (r, c) s -> if not (Formal_sum.is_empty s) then rows.(r) <- (c, s) :: rows.(r))
    by_pos;
  let rows =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (c1, _) (c2, _) -> compare c1 c2) a;
        a)
      rows
  in
  intern t { level; rows; kids = [||] }

(* Import a node of [src] into [t] verbatim, remapping child references.
   The fast path of the incremental lumped rebuild: the source node's
   rows are already combined, validated and column-sorted, and remapping
   preserves column order, so the Hashtbl/validation/sort work of
   [add_node] is skipped.  Children may merge under [remap]
   (Formal_sum.map_children combines them); entries whose sum cancels
   away are dropped.  The result is still hash-consed, so importing a
   node twice (or importing a node equal to an [add_node] product)
   yields one id. *)
let import_node t ~level src src_id remap =
  if level < 1 || level > t.nlevels then
    invalid_arg "Md.import_node: level out of range";
  let nd = node src src_id in
  if Array.length nd.rows <> t.level_sizes.(level - 1) then
    invalid_arg "Md.import_node: node size does not match the target level";
  let rows =
    Array.map
      (fun row ->
        Array.of_list
          (List.filter_map
             (fun (c, s) ->
               let s = Formal_sum.map_children remap s in
               if Formal_sum.is_empty s then None else Some (c, s))
             (Array.to_list row)))
      nd.rows
  in
  intern t { level; rows; kids = [||] }

(* Raw constructor used by the incremental rebuild: the caller has
   already combined duplicate positions, dropped empty sums and sorted
   each row by column, so only the level/dimension checks and the
   hash-consing lookup remain. *)
let add_node_sorted_rows t ~level rows =
  if level < 1 || level > t.nlevels then
    invalid_arg "Md.add_node_sorted_rows: level out of range";
  if Array.length rows <> t.level_sizes.(level - 1) then
    invalid_arg "Md.add_node_sorted_rows: row count does not match the level size";
  intern t { level; rows; kids = [||] }

(* Structural equality of rooted diagrams.  Node ids are store-local and
   the canonical term order of a formal sum follows the local ids, so
   terms are matched by recursive child equality, not positionally.
   Quasi-reduction makes the matching unique: two distinct ids of one
   store cannot both be structurally equal to the same node of the other
   (they would be structurally equal to each other and hence hash-consed
   to one id), so [for_all exists] over equal-length term lists is a
   bijection check. *)
let equal a b =
  a.nlevels = b.nlevels
  && a.level_sizes = b.level_sizes
  &&
  match (a.root_id, b.root_id) with
  | None, None -> true
  | None, Some _ | Some _, None -> false
  | Some ra, Some rb ->
      let memo : (node_id * node_id, bool) Hashtbl.t = Hashtbl.create 64 in
      let rec eq ia ib =
        if ia = 0 || ib = 0 then ia = ib
        else
          match Hashtbl.find_opt memo (ia, ib) with
          | Some r -> r
          | None ->
              let na = node a ia and nb = node b ib in
              let r =
                na.level = nb.level
                && Array.length na.rows = Array.length nb.rows
                && Array.for_all2
                     (fun rowa rowb ->
                       Array.length rowa = Array.length rowb
                       && Array.for_all2
                            (fun (c1, s1) (c2, s2) -> c1 = c2 && sum_eq s1 s2)
                            rowa rowb)
                     na.rows nb.rows
              in
              Hashtbl.add memo (ia, ib) r;
              r
      and sum_eq sa sb =
        let ta = Formal_sum.terms sa and tb = Formal_sum.terms sb in
        List.length ta = List.length tb
        && List.for_all
             (fun (ca, wa) ->
               List.exists (fun (cb, wb) -> Float.equal wa wb && eq ca cb) tb)
             ta
      in
      eq ra rb

let scalar_sum t v = Formal_sum.singleton (terminal t) v

let set_root t id =
  if node_level t id <> 1 then invalid_arg "Md.set_root: node is not at level 1";
  t.root_id <- Some id

let root t =
  match t.root_id with
  | Some id -> id
  | None -> invalid_arg "Md.root: no root set"

let node_row t id r =
  let nd = node t id in
  if r < 0 || r >= Array.length nd.rows then invalid_arg "Md.node_row: row out of range";
  Array.to_list nd.rows.(r)

let node_rows t id = (node t id).rows

let node_children t id =
  let kids = Array.copy (node t id).kids in
  Array.sort Int.compare kids;
  kids

let iter_node_entries t id f =
  let nd = node t id in
  Array.iteri (fun r row -> Array.iter (fun (c, s) -> f r c s) row) nd.rows

let node_nnz t id =
  let nd = node t id in
  Array.fold_left (fun acc row -> acc + Array.length row) 0 nd.rows

(* Depth-first preorder from the root over each node's recorded
   children: the order a walk over every (row, entry, term) would visit
   them in, since a child's later appearances find it visited. *)
let live_nodes t =
  let r = root t in
  let per_level = Array.make t.nlevels [] in
  let visited = Bytes.make (Dynarray.length t.nodes) '\000' in
  let rec visit id =
    if Bytes.get visited id = '\000' then begin
      Bytes.set visited id '\001';
      let nd = Dynarray.get t.nodes id in
      if nd.level <= t.nlevels then begin
        per_level.(nd.level - 1) <- id :: per_level.(nd.level - 1);
        Array.iter visit nd.kids
      end
    end
  in
  visit r;
  Array.map List.rev per_level

let num_live_nodes t = Array.fold_left (fun acc l -> acc + List.length l) 0 (live_nodes t)

let iter_entries t f =
  let l = t.nlevels in
  let row_buf = Array.make l 0 and col_buf = Array.make l 0 in
  let rec walk id coeff =
    let nd = node t id in
    if nd.level > l then f ~row:row_buf ~col:col_buf coeff
    else
      Array.iteri
        (fun r row ->
          row_buf.(nd.level - 1) <- r;
          Array.iter
            (fun (c, s) ->
              col_buf.(nd.level - 1) <- c;
              List.iter
                (fun (child, w) -> walk child (coeff *. w))
                (Formal_sum.terms s))
            row)
        nd.rows
  in
  walk (root t) 1.0

let potential_space_size t = Array.fold_left ( * ) 1 t.level_sizes

let to_csr t =
  let n = potential_space_size t in
  if n > 1 lsl 22 then invalid_arg "Md.to_csr: product space too large to flatten";
  let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
  let index tuple =
    let acc = ref 0 in
    for l = 0 to t.nlevels - 1 do
      acc := (!acc * t.level_sizes.(l)) + tuple.(l)
    done;
    !acc
  in
  iter_entries t (fun ~row ~col v -> Mdl_sparse.Coo.add coo (index row) (index col) v);
  Mdl_sparse.Csr.of_coo coo

let memory_bytes t =
  let live = live_nodes t in
  let bytes = ref 0 in
  Array.iter
    (List.iter (fun id ->
         let nd = node t id in
         bytes := !bytes + (8 * Array.length nd.rows) + 16;
         Array.iter
           (fun row ->
             Array.iter
               (fun (_, s) -> bytes := !bytes + 8 + (16 * Formal_sum.num_terms s))
               row)
           nd.rows))
    live;
  !bytes

let stats t =
  let live = live_nodes t in
  let counts = Array.map List.length live in
  let entries =
    Array.map (fun ids -> List.fold_left (fun acc id -> acc + node_nnz t id) 0 ids) live
  in
  (counts, entries)

let pp ppf t =
  let live = live_nodes t in
  Format.fprintf ppf "@[<v>MD with %d levels, %d live nodes" t.nlevels (num_live_nodes t);
  Array.iteri
    (fun i ids ->
      Format.fprintf ppf "@,level %d (|S|=%d): %d nodes" (i + 1) t.level_sizes.(i)
        (List.length ids);
      List.iter
        (fun id ->
          Format.fprintf ppf "@,  R%d:" id;
          iter_node_entries t id (fun r c s ->
              Format.fprintf ppf "@,    (%d,%d) = %a" r c Formal_sum.pp s))
        ids)
    live;
  Format.fprintf ppf "@]"
