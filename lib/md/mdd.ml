module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type node = int

type node_data = {
  arcs : (int * int * int) array; (* (local state, offset, child id), sorted *)
  total : int; (* states below this node *)
}

type t = {
  nlevels : int;
  nodes : node_data Dynarray.t; (* id 0 is the terminal *)
  root_id : node;
  size : int;
}

module Key = struct
  type t = (int * int * int) array

  let equal (a : t) b = a = b

  let hash a =
    Array.fold_left
      (fun h (s, o, c) -> Hashx.combine (Hashx.combine (Hashx.combine h s) o) c)
      (Array.length a) a
end

module Cons = Hashtbl.Make (Key)

let of_statespace ss =
  let n = Statespace.size ss in
  let nlevels = Statespace.levels ss in
  (* Statespace tuples are already lexicographically sorted. *)
  let tuple i = Statespace.tuple ss i in
  let nodes = Dynarray.create () in
  Dynarray.push nodes { arcs = [||]; total = 1 };
  let cons = Cons.create 256 in
  let mk arcs total =
    match Cons.find_opt cons arcs with
    | Some id -> id
    | None ->
        let id = Dynarray.length nodes in
        Dynarray.push nodes { arcs; total };
        Cons.add cons arcs id;
        id
  in
  (* Build the sub-diagram for tuples[lo..hi) at [level]; the range is
     contiguous because the tuples are sorted. *)
  let rec build level lo hi =
    if level > nlevels then 0
    else begin
      let arcs = Dynarray.create () in
      let offset = ref 0 in
      let glo = ref lo in
      while !glo < hi do
        let v = (tuple !glo).(level - 1) in
        let ghi = ref !glo in
        while !ghi < hi && (tuple !ghi).(level - 1) = v do
          incr ghi
        done;
        let child = build (level + 1) !glo !ghi in
        Dynarray.push arcs (v, !offset, child);
        offset := !offset + (!ghi - !glo);
        glo := !ghi
      done;
      mk (Dynarray.to_array arcs) (hi - lo)
    end
  in
  let root_id = build 1 0 n in
  { nlevels; nodes; root_id; size = n }

let levels t = t.nlevels

let count t = t.size

let num_nodes t = Dynarray.length t.nodes - 1

let root t = t.root_id

let data t id = Dynarray.get t.nodes id

let arc t id s =
  let arcs = (data t id).arcs in
  let lo = ref 0 and hi = ref (Array.length arcs - 1) in
  let result = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v, o, c = arcs.(mid) in
    if v = s then begin
      result := Some (o, c);
      lo := !hi + 1
    end
    else if v < s then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let index t tuple =
  if Array.length tuple <> t.nlevels then invalid_arg "Mdd.index: tuple length mismatch";
  let rec walk level id acc =
    if level > t.nlevels then Some acc
    else
      match arc t id tuple.(level - 1) with
      | None -> None
      | Some (offset, child) -> walk (level + 1) child (acc + offset)
  in
  walk 1 t.root_id 0

let iter t f =
  let buf = Array.make t.nlevels 0 in
  let idx = ref 0 in
  let rec walk level id =
    if level > t.nlevels then begin
      f !idx buf;
      incr idx
    end
    else
      Array.iter
        (fun (v, _, child) ->
          buf.(level - 1) <- v;
          walk (level + 1) child)
        (data t id).arcs
  in
  walk 1 t.root_id
