(* Fill-reducing orderings of sparse matrices.  Only the structure of
   the matrix matters here; values are ignored. *)

(* Symmetrised adjacency of a square matrix as a compact CSR pattern:
   neighbours of [i] are [adj.(off.(i)) .. adj.(off.(i+1) - 1)], sorted,
   deduplicated, self-loops dropped.  Filling the out- and in-neighbour
   lists in row-major order leaves each of them sorted (and duplicate
   free, as a CSR row is), so one merge per vertex gives the union. *)
let adjacency m =
  let n = Csr.rows m in
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  Csr.iter_pattern
    (fun i j ->
      if i <> j then begin
        out_off.(i + 1) <- out_off.(i + 1) + 1;
        in_off.(j + 1) <- in_off.(j + 1) + 1
      end)
    m;
  for i = 0 to n - 1 do
    out_off.(i + 1) <- out_off.(i + 1) + out_off.(i);
    in_off.(i + 1) <- in_off.(i + 1) + in_off.(i)
  done;
  let outs = Array.make out_off.(n) 0 and ins = Array.make in_off.(n) 0 in
  let out_next = Array.sub out_off 0 n and in_next = Array.sub in_off 0 n in
  Csr.iter_pattern
    (fun i j ->
      if i <> j then begin
        outs.(out_next.(i)) <- j;
        out_next.(i) <- out_next.(i) + 1;
        ins.(in_next.(j)) <- i;
        in_next.(j) <- in_next.(j) + 1
      end)
    m;
  let adj = Array.make (out_off.(n) + in_off.(n)) 0 in
  let off = Array.make (n + 1) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    let a = ref out_off.(i) and b = ref in_off.(i) in
    let a_end = out_off.(i + 1) and b_end = in_off.(i + 1) in
    while !a < a_end || !b < b_end do
      let u =
        if !b >= b_end || (!a < a_end && outs.(!a) < ins.(!b)) then outs.(!a) else ins.(!b)
      in
      if !a < a_end && outs.(!a) = u then incr a;
      if !b < b_end && ins.(!b) = u then incr b;
      adj.(!w) <- u;
      incr w
    done;
    off.(i + 1) <- !w
  done;
  (off, Array.sub adj 0 !w)

let rcm m =
  if Csr.rows m <> Csr.cols m then invalid_arg "Ordering.rcm: matrix is not square";
  let n = Csr.rows m in
  let off, adj = adjacency m in
  let deg i = off.(i + 1) - off.(i) in
  (* [order] doubles as the BFS queue: vertices are visited in the order
     they are enqueued, so [order.(head .. tail - 1)] is the queue. *)
  let order = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let enqueued = Array.make n false in
  let enqueue v =
    enqueued.(v) <- true;
    order.(!tail) <- v;
    incr tail
  in
  (* Neighbours of a visited vertex join the queue lowest-degree first
     (George & Liu), ties by index: they arrive in index order, so a
     stable sort by degree of the appended run gives that order. *)
  let visit u =
    let first = !tail in
    for k = off.(u) to off.(u + 1) - 1 do
      let v = adj.(k) in
      if not enqueued.(v) then enqueue v
    done;
    let len = !tail - first in
    if len <= 24 then
      for k = first + 1 to !tail - 1 do
        let v = order.(k) in
        let i = ref (k - 1) in
        while !i >= first && deg order.(!i) > deg v do
          order.(!i + 1) <- order.(!i);
          decr i
        done;
        order.(!i + 1) <- v
      done
    else begin
      let run = Array.sub order first len in
      Mdl_util.Sortx.sort_by (fun a b -> compare (deg a) (deg b)) run;
      Array.blit run 0 order first len
    end
  in
  (* One BFS per connected component, rooted at the unvisited vertex of
     minimum degree, ties to the lowest index (a cheap stand-in for a
     pseudo-peripheral root): the next vertex not yet enqueued in
     (degree, index) order, found by a cursor that only moves forward.
     A counting sort by degree gives that order: it places each
     degree's vertices in index order. *)
  let max_deg = ref 0 in
  for i = 0 to n - 1 do
    max_deg := max !max_deg (deg i)
  done;
  let start = Array.make (!max_deg + 2) 0 in
  for i = 0 to n - 1 do
    start.(deg i + 1) <- start.(deg i + 1) + 1
  done;
  for d = 1 to !max_deg + 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let by_degree = Array.make n 0 in
  for i = 0 to n - 1 do
    by_degree.(start.(deg i)) <- i;
    start.(deg i) <- start.(deg i) + 1
  done;
  let cursor = ref 0 in
  while !head < n do
    if !head = !tail then begin
      while enqueued.(by_degree.(!cursor)) do
        incr cursor
      done;
      enqueue by_degree.(!cursor)
    end;
    let u = order.(!head) in
    incr head;
    visit u
  done;
  (* Reverse Cuthill–McKee: flip the BFS order. *)
  Array.init n (fun k -> order.(n - 1 - k))

let inverse perm =
  let n = Array.length perm in
  let inv = Array.make n (-1) in
  Array.iteri
    (fun k o ->
      if o < 0 || o >= n || inv.(o) >= 0 then
        invalid_arg "Ordering.inverse: not a permutation";
      inv.(o) <- k)
    perm;
  inv

let bandwidth m =
  let b = ref 0 in
  Csr.iter_pattern (fun i j -> b := max !b (abs (i - j))) m;
  !b
