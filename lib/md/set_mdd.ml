module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type t = int

(* id 0 = Zero (empty set), id 1 = One (the terminal below the bottom
   level); ids >= 2 are proper nodes. *)
let zero = 0

let one = 1

type node_data = {
  level : int;
  arcs : (int * int) array; (* (local state, child id), sorted, child <> Zero *)
}

module Key = struct
  type t = node_data

  let equal a b = a.level = b.level && a.arcs = b.arcs

  let hash n =
    Array.fold_left
      (fun h (s, c) -> Hashx.combine (Hashx.combine h s) c)
      n.level n.arcs
end

module Cons = Hashtbl.Make (Key)

type man = {
  nlevels : int;
  nodes : node_data Dynarray.t; (* data for id i at index i-2 *)
  cons : int Cons.t;
  union_cache : (int * int, int) Hashtbl.t;
  count_cache : (int, int) Hashtbl.t;
}

let manager ~levels =
  if levels < 1 then invalid_arg "Set_mdd.manager: levels must be >= 1";
  {
    nlevels = levels;
    nodes = Dynarray.create ();
    cons = Cons.create 1024;
    union_cache = Hashtbl.create 1024;
    count_cache = Hashtbl.create 1024;
  }

let empty _m = zero

let is_empty t = t = zero

let equal (a : t) b = a = b

let data m id = Dynarray.get m.nodes (id - 2)

let mk m level arcs =
  if Array.length arcs = 0 then zero
  else begin
    let candidate = { level; arcs } in
    match Cons.find_opt m.cons candidate with
    | Some id -> id
    | None ->
        let id = Dynarray.length m.nodes + 2 in
        Dynarray.push m.nodes candidate;
        Cons.add m.cons candidate id;
        id
  end

let singleton m tuple =
  if Array.length tuple <> m.nlevels then
    invalid_arg "Set_mdd.singleton: tuple length mismatch";
  Array.iter
    (fun s -> if s < 0 then invalid_arg "Set_mdd.singleton: negative substate")
    tuple;
  let rec build level =
    if level > m.nlevels then one
    else mk m level [| (tuple.(level - 1), build (level + 1)) |]
  in
  build 1

let rec union m a b =
  if a = b then a
  else if a = zero then b
  else if b = zero then a
  else if a = one || b = one then one (* both at the terminal level *)
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.union_cache key with
    | Some r -> r
    | None ->
        let da = data m a and db = data m b in
        assert (da.level = db.level);
        (* merge the sorted arc arrays *)
        let out = Dynarray.create () in
        let na = Array.length da.arcs and nb = Array.length db.arcs in
        let i = ref 0 and j = ref 0 in
        while !i < na || !j < nb do
          if !i >= na then begin
            Dynarray.push out db.arcs.(!j);
            incr j
          end
          else if !j >= nb then begin
            Dynarray.push out da.arcs.(!i);
            incr i
          end
          else begin
            let sa, ca = da.arcs.(!i) and sb, cb = db.arcs.(!j) in
            if sa < sb then begin
              Dynarray.push out (sa, ca);
              incr i
            end
            else if sb < sa then begin
              Dynarray.push out (sb, cb);
              incr j
            end
            else begin
              Dynarray.push out (sa, union m ca cb);
              incr i;
              incr j
            end
          end
        done;
        let r = mk m da.level (Dynarray.to_array out) in
        Hashtbl.add m.union_cache key r;
        r
  end

let rec count m t =
  if t = zero then 0
  else if t = one then 1
  else
    match Hashtbl.find_opt m.count_cache t with
    | Some n -> n
    | None ->
        let n =
          Array.fold_left (fun acc (_, c) -> acc + count m c) 0 (data m t).arcs
        in
        Hashtbl.add m.count_cache t n;
        n

let num_nodes m = Dynarray.length m.nodes

(* The image of node [id] under the events [es], the one image kernel of
   saturation: for each event [e] and each arc [(v, child)] whose
   relation [rels.(e) level v] is non-empty, [below e child] is unioned
   into the child of every target. *)
let node_image m rels below es id =
  let d = data m id in
  let acc : (int, t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Array.iter
        (fun (v, child) ->
          let targets = rels.(e) d.level v in
          if Array.length targets > 0 then begin
            let child' = below e child in
            if child' <> zero then
              Array.iter
                (fun v' ->
                  let prev = Option.value ~default:zero (Hashtbl.find_opt acc v') in
                  Hashtbl.replace acc v' (union m prev child'))
                targets
          end)
        d.arcs)
    es;
  let arcs = Array.of_list (Hashtbl.fold (fun v c l -> (v, c) :: l) acc []) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) arcs;
  mk m d.level arcs

let saturation m ~rels ~tops s =
  let nevents = Array.length rels in
  if Array.length tops <> nevents then
    invalid_arg "Set_mdd.saturation: rels/tops length mismatch";
  Array.iter
    (fun top ->
      if top < 1 || top > m.nlevels then
        invalid_arg "Set_mdd.saturation: top level out of range")
    tops;
  (* events indexed by top level *)
  let by_top = Array.make (m.nlevels + 1) [] in
  Array.iteri (fun e top -> by_top.(top) <- e :: by_top.(top)) tops;
  let sat_cache : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let img_cache : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* Saturate [id]: saturate children bottom-up, then fire the events
     whose top is this node's level until a local fixpoint.  The firing
     handles the top-level transition itself and recurses only into
     strictly deeper levels (img_below), so the recursion is
     level-decreasing and self-loop events cannot re-enter the node
     under saturation. *)
  let rec saturate id =
    if id = zero || id = one then id
    else
      match Hashtbl.find_opt sat_cache id with
      | Some r -> r
      | None ->
          let d = data m id in
          let base =
            mk m d.level (Array.map (fun (v, c) -> (v, saturate c)) d.arcs)
          in
          let rec fire n =
            let n' = union m n (node_image m rels img_below by_top.(d.level) n) in
            if n' = n then n else fire n'
          in
          let r = fire base in
          Hashtbl.add sat_cache id r;
          Hashtbl.replace sat_cache r r;
          r
  (* Saturated image of event [e] applied to [id] (a saturated node one
     level below the firing level) and everything deeper. *)
  and img_below e id =
    if id = zero || id = one then id
    else
      match Hashtbl.find_opt img_cache (e, id) with
      | Some r -> r
      | None ->
          (* saturate the image: new substates may enable events rooted
             at this level or below *)
          let r = saturate (node_image m rels img_below [ e ] id) in
          Hashtbl.add img_cache (e, id) r;
          r
  in
  saturate s

let to_statespace m t =
  if t = zero then invalid_arg "Set_mdd.to_statespace: empty set";
  Statespace.of_dag ~levels:m.nlevels (fun id -> (data m id).arcs) t
