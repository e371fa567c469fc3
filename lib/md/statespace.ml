module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type node = int

(* A node's arcs in parallel arrays sorted by local state: arc [i] leads
   on [labels.(i)] to [children.(i)], and [offsets.(i)] counts the
   states below the arcs before it. *)
type node_data = {
  level : int;
  labels : int array;
  offsets : int array;
  children : node array;
  count : int; (* states below this node *)
}

type t = {
  nlevels : int;
  nodes : node_data array; (* id 0 is the terminal, below level [nlevels] *)
  root : node;
}

let terminal = 0

(* Lexicographic order on tuples of equal length.  A top-level loop on
   [int] keeps the comparison monomorphic and allocation-free: sorting
   hundreds of thousands of tuples calls it millions of times. *)
let compare_tuples (a : int array) (b : int array) =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  if !i = n then 0 else Int.compare a.(!i) b.(!i)

let int_array_equal a b = Array.length a = Array.length b && compare_tuples a b = 0

(* ---- construction: one shared node per distinct (level, arcs) ---- *)

module Cons = Hashtbl.Make (struct
  type t = int * int array * node array

  let equal (l, a, c) (l', a', c') = l = l' && int_array_equal a a' && int_array_equal c c'

  let hash (l, a, c) = Hashx.combine (Hashx.combine l (Hashx.int_array a)) (Hashx.int_array c)
end)

type builder = {
  b_levels : int;
  data : node_data Dynarray.t;
  cons : node Cons.t;
}

let builder levels =
  let data = Dynarray.create () in
  Dynarray.push data
    { level = levels + 1; labels = [||]; offsets = [||]; children = [||]; count = 1 };
  { b_levels = levels; data; cons = Cons.create 64 }

(* The node at [level] with arcs [labels] (strictly increasing) to
   [children]; offsets and the count follow from the children's
   counts. *)
let mk b level labels children =
  let key = (level, labels, children) in
  match Cons.find_opt b.cons key with
  | Some id -> id
  | None ->
      let offsets = Array.make (Array.length labels) 0 in
      let count = ref 0 in
      Array.iteri
        (fun i c ->
          offsets.(i) <- !count;
          count := !count + (Dynarray.get b.data c).count)
        children;
      let id = Dynarray.length b.data in
      Dynarray.push b.data { level; labels; offsets; children; count = !count };
      Cons.add b.cons key id;
      id

let finish b root = { nlevels = b.b_levels; nodes = Dynarray.to_array b.data; root }

(* A node's arcs as (local state, child) pairs. *)
let pairs_of d = Array.map2 (fun v c -> (v, c)) d.labels d.children

let by_label (a, _) (b, _) = Int.compare a b

(* The node at [level] over [pairs], (local state, child) arcs sorted by
   local state: arcs on one local state lead to the union of their
   children.  The union of two nodes is the node over both arc arrays,
   memoised on the (unordered) pair in [unions]. *)
let rec united b unions level pairs =
  let labels = Dynarray.create () and children = Dynarray.create () in
  Array.iter
    (fun (v, c) ->
      let k = Dynarray.length labels in
      if k > 0 && Dynarray.get labels (k - 1) = v then
        Dynarray.set children (k - 1) (union b unions (Dynarray.get children (k - 1)) c)
      else begin
        Dynarray.push labels v;
        Dynarray.push children c
      end)
    pairs;
  mk b level (Dynarray.to_array labels) (Dynarray.to_array children)

and union b unions x y =
  if x = y then x
  else
    let key = (min x y, max x y) in
    match Hashtbl.find_opt unions key with
    | Some u -> u
    | None ->
        let dx = Dynarray.get b.data x and dy = Dynarray.get b.data y in
        let pairs = Array.append (pairs_of dx) (pairs_of dy) in
        Array.stable_sort by_label pairs;
        let u = united b unions dx.level pairs in
        Hashtbl.add unions key u;
        u

(* Convert a DAG whose nodes are named by ints, once per name:
   [arcs level n] lists node [n]'s (local state, child name) arcs sorted
   by local state, and arcs on one local state lead to the union of
   their children. *)
let rec convert ~levels arcs root =
  let b = builder levels in
  let memo = Hashtbl.create 64 and unions = Hashtbl.create 16 in
  let rec conv level n =
    if level > levels then terminal
    else
      match Hashtbl.find_opt memo n with
      | Some id -> id
      | None ->
          let pairs = Array.map (fun (v, c) -> (v, conv (level + 1) c)) (arcs level n) in
          let id = united b unions level pairs in
          Hashtbl.add memo n id;
          id
  in
  let root = conv 1 root in
  if Hashtbl.length unions = 0 then finish b root
  else
    (* A union leaves the nodes it absorbed behind in [b]; copying the
       root's DAG keeps only the reachable ones. *)
    convert ~levels (fun _ n -> pairs_of (Dynarray.get b.data n)) root

(* Sort the tuples, drop adjacent duplicates and build the shared nodes
   over the survivors: the tuples of one prefix form a contiguous range.
   Merge sort rather than [Array.sort]'s heap sort: stability does not
   matter, but it makes about half the comparisons, fewer still on
   partly sorted input. *)
let of_tuples ~levels tuples =
  if tuples = [] then invalid_arg "Statespace.of_tuples: empty state space";
  let arr = Array.of_list tuples in
  Array.iter
    (fun s ->
      if Array.length s <> levels then
        invalid_arg "Statespace.of_tuples: tuple of wrong length")
    arr;
  Array.stable_sort compare_tuples arr;
  let kept = ref 0 in
  Array.iteri
    (fun i s ->
      if i = 0 || compare_tuples arr.(!kept - 1) s <> 0 then begin
        arr.(!kept) <- s;
        incr kept
      end)
    arr;
  let b = builder levels in
  let rec build level lo hi =
    if level > levels then terminal
    else begin
      let labels = Dynarray.create () and children = Dynarray.create () in
      let i = ref lo in
      while !i < hi do
        let v = arr.(!i).(level - 1) in
        let j = ref (!i + 1) in
        while !j < hi && arr.(!j).(level - 1) = v do
          incr j
        done;
        Dynarray.push labels v;
        Dynarray.push children (build (level + 1) !i !j);
        i := !j
      done;
      mk b level (Dynarray.to_array labels) (Dynarray.to_array children)
    end
  in
  finish b (build 1 0 !kept)

let of_dag ~levels arcs root =
  convert ~levels
    (fun _ n ->
      let pairs = arcs n in
      if Array.length pairs = 0 then invalid_arg "Statespace.of_dag: node without arcs";
      Array.iteri
        (fun i (v, _) ->
          if i > 0 && v <= fst pairs.(i - 1) then
            invalid_arg "Statespace.of_dag: arcs not strictly increasing")
        pairs;
      pairs)
    root

let relabel t f =
  convert ~levels:t.nlevels
    (fun level n ->
      let d = t.nodes.(n) in
      let pairs = Array.mapi (fun i v -> (f level v, d.children.(i))) d.labels in
      Array.stable_sort by_label pairs;
      pairs)
    t.root

let merge_levels t l ~width =
  if l < 1 || l >= t.nlevels then invalid_arg "Statespace.merge_levels: level out of range";
  convert ~levels:(t.nlevels - 1)
    (fun level n ->
      let d = t.nodes.(n) in
      if level <> l then pairs_of d
      else
        (* Arc [(v, c)] then [c]'s arc [(w, g)] is the arc
           [(v * width + w, g)]: increasing in [v], then in [w]. *)
        Array.concat
          (List.init (Array.length d.labels) (fun i ->
               Array.map
                 (fun (w, g) ->
                   if w < 0 || w >= width then
                     invalid_arg "Statespace.merge_levels: substate outside 0 .. width-1";
                   ((d.labels.(i) * width) + w, g))
                 (pairs_of t.nodes.(d.children.(i))))))
    t.root

(* ---- queries ---- *)

let levels t = t.nlevels

let size t = t.nodes.(t.root).count

let num_nodes t = Array.length t.nodes - 1

let root t = t.root

(* Position of the arc labelled [v] in [d], or [-1]. *)
let arc_pos d v =
  let labels = d.labels in
  let lo = ref 0 and hi = ref (Array.length labels - 1) and pos = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = labels.(mid) in
    if x = v then begin
      pos := mid;
      lo := !hi + 1
    end
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !pos

let iter_arcs t n f =
  let d = t.nodes.(n) in
  for i = 0 to Array.length d.labels - 1 do
    f d.labels.(i) d.offsets.(i) d.children.(i)
  done

let index t s =
  if Array.length s <> t.nlevels then None
  else
    let rec walk level n acc =
      if level > t.nlevels then Some acc
      else
        let d = t.nodes.(n) in
        let i = arc_pos d s.(level - 1) in
        if i < 0 then None else walk (level + 1) d.children.(i) (acc + d.offsets.(i))
    in
    walk 1 t.root 0

let tuple t i =
  if i < 0 || i >= size t then invalid_arg "Statespace.tuple: index out of bounds";
  let s = Array.make t.nlevels 0 in
  let n = ref t.root and rest = ref i in
  for level = 1 to t.nlevels do
    let d = t.nodes.(!n) in
    (* the last arc whose offset is at most [rest] *)
    let lo = ref 0 and hi = ref (Array.length d.offsets - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) lsr 1 in
      if d.offsets.(mid) <= !rest then lo := mid else hi := mid - 1
    done;
    s.(level - 1) <- d.labels.(!lo);
    rest := !rest - d.offsets.(!lo);
    n := d.children.(!lo)
  done;
  s

let iter f t =
  let buf = Array.make t.nlevels 0 in
  let idx = ref 0 in
  let rec walk level n =
    if level > t.nlevels then begin
      f !idx buf;
      incr idx
    end
    else begin
      let d = t.nodes.(n) in
      Array.iteri
        (fun i v ->
          buf.(level - 1) <- v;
          walk (level + 1) d.children.(i))
        d.labels
    end
  in
  walk 1 t.root

let local_states t l =
  if l < 1 || l > t.nlevels then invalid_arg "Statespace.local_states: level out of range";
  (* Labels are local-state indices, small and dense: mark them in an
     array over their range (a node's arcs are sorted, so its first and
     last labels bound it) and read the marks back from the top, so the
     list comes out ascending. *)
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun d ->
      let k = Array.length d.labels in
      if d.level = l && k > 0 then begin
        if d.labels.(0) < !lo then lo := d.labels.(0);
        if d.labels.(k - 1) > !hi then hi := d.labels.(k - 1)
      end)
    t.nodes;
  let lo = !lo and hi = !hi in
  if lo > hi then []
  else begin
    let seen = Array.make (hi - lo + 1) false in
    Array.iter
      (fun d -> if d.level = l then Array.iter (fun v -> seen.(v - lo) <- true) d.labels)
      t.nodes;
    let acc = ref [] in
    for v = hi downto lo do
      if seen.(v - lo) then acc := v :: !acc
    done;
    !acc
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>%d states over %d levels" (size t) t.nlevels;
  if size t <= 64 then
    iter
      (fun i s ->
        Format.fprintf ppf "@,%d: (%s)" i
          (String.concat "," (List.map string_of_int (Array.to_list s))))
      t;
  Format.fprintf ppf "@]"
