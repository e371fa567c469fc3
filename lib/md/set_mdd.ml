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

  (* Monomorphic: hash-consing compares every candidate node. *)
  let equal a b =
    a.level = b.level
    &&
    let n = Array.length a.arcs in
    n = Array.length b.arcs
    &&
    let i = ref 0 in
    while
      !i < n
      &&
      let sa, ca = Array.unsafe_get a.arcs !i and sb, cb = Array.unsafe_get b.arcs !i in
      sa = sb && ca = cb
    do
      incr i
    done;
    !i = n

  let hash n =
    Array.fold_left
      (fun h (s, c) -> Hashx.combine (Hashx.combine h s) c)
      n.level n.arcs
end

module Cons = Hashtbl.Make (Key)

(* Tables keyed by one int: a node id, or two ints packed by [pack].
   [Hashtbl.Make] picks a bucket by the hash's low bits, so the hash is
   the high half of a multiplicative mix. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k = (k * 0x2545f4914f6cdd1d) lsr 31
end)

(* Node ids, and event numbers, stay below [max_id], so two of them pack
   into one int. *)
let max_id = 1 lsl 31

let pack a b = (a lsl 31) lor b

type man = {
  nlevels : int;
  nodes : node_data Dynarray.t; (* data for id i at index i-2 *)
  cons : int Cons.t;
  union_cache : int Itbl.t; (* [pack a b], a < b *)
  count_cache : int Itbl.t;
}

let manager ~levels =
  if levels < 1 then invalid_arg "Set_mdd.manager: levels must be >= 1";
  {
    nlevels = levels;
    nodes = Dynarray.create ();
    cons = Cons.create 1024;
    union_cache = Itbl.create 1024;
    count_cache = Itbl.create 1024;
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
        if id >= max_id then failwith "Set_mdd: node store full";
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
    let key = if a < b then pack a b else pack b a in
    match Itbl.find_opt m.union_cache key with
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
        Itbl.add m.union_cache key r;
        r
  end

let rec count m t =
  if t = zero then 0
  else if t = one then 1
  else
    match Itbl.find_opt m.count_cache t with
    | Some n -> n
    | None ->
        let n =
          Array.fold_left (fun acc (_, c) -> acc + count m c) 0 (data m t).arcs
        in
        Itbl.add m.count_cache t n;
        n

let num_nodes m = Dynarray.length m.nodes

let saturation m ~rels ~tops ~bots s =
  let nevents = Array.length rels in
  if Array.length tops <> nevents then
    invalid_arg "Set_mdd.saturation: rels/tops length mismatch";
  if Array.length bots <> nevents then
    invalid_arg "Set_mdd.saturation: rels/bots length mismatch";
  if nevents >= max_id then invalid_arg "Set_mdd.saturation: too many events";
  Array.iteri
    (fun e top ->
      if top < 1 || top > m.nlevels then
        invalid_arg "Set_mdd.saturation: top level out of range";
      if bots.(e) < top || bots.(e) > m.nlevels then
        invalid_arg "Set_mdd.saturation: bottom level out of range")
    tops;
  (* events indexed by top level *)
  let by_top =
    Array.init (m.nlevels + 1) (fun l ->
        Array.of_list (List.filter (fun e -> tops.(e) = l) (List.init nevents Fun.id)))
  in
  let sat_cache = Itbl.create 1024 in
  let img_cache = Itbl.create 1024 in
  (* One image accumulator per level: [slots.(l).(v)] is the child
     gathered so far for local state [v] (Zero: none yet), and the first
     [ntouched.(l)] entries of [touched.(l)] are the states that have
     one; both arrays have the same length.  An image at level [l]
     recurses only into strictly deeper levels, so no two images ever
     share a buffer. *)
  let slots = Array.make (m.nlevels + 1) [||] in
  let touched = Array.make (m.nlevels + 1) [||] in
  let ntouched = Array.make (m.nlevels + 1) 0 in
  let add level v c =
    if v >= Array.length slots.(level) then begin
      let len = max (v + 1) (2 * Array.length slots.(level)) in
      let grow a = Array.append a (Array.make (len - Array.length a) zero) in
      slots.(level) <- grow slots.(level);
      touched.(level) <- grow touched.(level)
    end;
    let sl = slots.(level) in
    let prev = sl.(v) in
    if prev = zero then begin
      touched.(level).(ntouched.(level)) <- v;
      ntouched.(level) <- ntouched.(level) + 1;
      sl.(v) <- c
    end
    else sl.(v) <- union m prev c
  in
  let collect level =
    let n = ntouched.(level) in
    ntouched.(level) <- 0;
    let ts = Array.sub touched.(level) 0 n in
    Array.sort Int.compare ts;
    let sl = slots.(level) in
    mk m level
      (Array.map
         (fun v ->
           let c = sl.(v) in
           sl.(v) <- zero;
           (v, c))
         ts)
  in
  (* The image of node [id] under the events [es], the one image kernel
     of saturation: for each event [e] and each arc [(v, child)] whose
     relation [rels.(e) level v] is non-empty, the image of [child]
     under [e] is unioned into the child of every target.  Arcs that
     [prev] has too are skipped: their image is already in the node.
     At or below the event's bottom level the image of [child] is
     [child] itself (a saturated node, and the event is identity
     beneath). *)
  let rec node_image es ~prev id =
    let d = data m id in
    let level = d.level and arcs = d.arcs in
    let parcs = if prev = zero then [||] else (data m prev).arcs in
    let np = Array.length parcs in
    let j = ref 0 in
    for i = 0 to Array.length arcs - 1 do
      let v, child = arcs.(i) in
      while !j < np && fst parcs.(!j) < v do
        incr j
      done;
      if not (!j < np && fst parcs.(!j) = v && snd parcs.(!j) = child) then
        for x = 0 to Array.length es - 1 do
          let e = es.(x) in
          let targets = rels.(e) level v in
          if Array.length targets > 0 then begin
            let child' = if level >= bots.(e) then child else img_below e child in
            if child' <> zero then
              for y = 0 to Array.length targets - 1 do
                add level targets.(y) child'
              done
          end
        done
    done;
    collect level
  (* Saturate [id]: saturate children bottom-up, then fire the events
     whose top is this node's level until a local fixpoint.  Each round
     fires only the arcs that are new since the previous round.  The
     firing handles the top-level transition itself and recurses only
     into strictly deeper levels (img_below), so the recursion is
     level-decreasing and self-loop events cannot re-enter the node
     under saturation. *)
  and saturate id =
    if id = zero || id = one then id
    else
      match Itbl.find_opt sat_cache id with
      | Some r -> r
      | None ->
          let d = data m id in
          let base =
            mk m d.level (Array.map (fun (v, c) -> (v, saturate c)) d.arcs)
          in
          let rec fire prev n =
            let n' = union m n (node_image by_top.(d.level) ~prev n) in
            if n' = n then n else fire n n'
          in
          let r = fire zero base in
          Itbl.add sat_cache id r;
          Itbl.replace sat_cache r r;
          r
  (* Saturated image of event [e] applied to [id] (a saturated node one
     level below the firing level) and everything deeper. *)
  and img_below e id =
    if id = zero || id = one then id
    else
      let key = pack e id in
      match Itbl.find_opt img_cache key with
      | Some r -> r
      | None ->
          (* saturate the image: new substates may enable events rooted
             at this level or below *)
          let r = saturate (node_image [| e |] ~prev:zero id) in
          Itbl.add img_cache key r;
          r
  in
  saturate s

let to_statespace m t =
  if t = zero then invalid_arg "Set_mdd.to_statespace: empty set";
  Statespace.of_dag ~levels:m.nlevels (fun id -> (data m id).arcs) t
