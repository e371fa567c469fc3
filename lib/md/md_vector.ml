let fail fn what = invalid_arg (Printf.sprintf "Md_vector.%s: %s" fn what)

type t = {
  md : Md.t;
  md_root : Md.node_id;
  nlevels : int;
  size : int;
  root : int; (* the state space's root node *)
  (* For each state-space node, indexed by local state: the arc's offset
     ([-1] when the node has no arc on it) and its child node. *)
  offsets : int array array;
  children : int array array;
  (* [scale.(l)]: the product of the coefficients on the path above a
     level-[l] node.  The walk passes coefficients through it, so that
     no float crosses a call. *)
  scale : float array;
}

let create md ss =
  if Md.levels md <> Statespace.levels ss then fail "create" "level count mismatch";
  let nlevels = Md.levels md in
  let nodes = Statespace.num_nodes ss + 1 in
  let offsets = Array.make nodes [||] and children = Array.make nodes [||] in
  let rec fill level (n : Statespace.node) =
    (* Every level has at least one local state, so an empty table
       marks a node not yet filled. *)
    if level <= nlevels && Array.length offsets.((n :> int)) = 0 then begin
      let width = Md.size md level in
      let off = Array.make width (-1) and kid = Array.make width 0 in
      offsets.((n :> int)) <- off;
      children.((n :> int)) <- kid;
      Statespace.iter_arcs ss n (fun v o child ->
          if v < 0 || v >= width then fail "create" "substate out of range";
          off.(v) <- o;
          kid.(v) <- (child :> int);
          fill (level + 1) child)
    end
  in
  let root = Statespace.root ss in
  fill 1 root;
  {
    md;
    md_root = Md.root md;
    nlevels;
    size = Statespace.size ss;
    root = (root :> int);
    offsets;
    children;
    scale = Array.make (nlevels + 2) 1.0;
  }

(* What the walk does with each path's (row index [i], column index [j],
   product [v]), and which of its buffer arguments it uses:
   - [Product]: [ys.(j) += xs.(i) * v], skipping rows where [xs.(i) = 0];
   - [Row_sums]: [ys.(i) += v];
   - [Diag]: [ys.(i) += v] when [i = j];
   - [Count]: [is.(i + 1) += 1] when [v <> 0];
   - [Fill]: slot [is.(i)] of [js] and [ys] gets [(j, v)] when [v <> 0],
     and [is.(i)] moves on. *)
type op = Product | Row_sums | Diag | Count | Fill

(* The bottom level: the loop over a level-[L] node's entries, with the
   path's product read once from [scale]. *)
let bottom t op (xs : float array) (ys : float array) (is : int array) (js : int array) id
    rn cn ro co =
  let s = t.scale.(t.nlevels) in
  let rows = Md.node_rows t.md id in
  let roffs = t.offsets.(rn) and coffs = t.offsets.(cn) in
  for r = 0 to Array.length rows - 1 do
    let roff = roffs.(r) in
    if roff >= 0 then begin
      let i = ro + roff and row = rows.(r) in
      if op <> Product || xs.(i) <> 0.0 then
        for k = 0 to Array.length row - 1 do
          let c, sum = row.(k) in
          let coff = coffs.(c) in
          if coff >= 0 then begin
            let j = co + coff and terms = (sum :> (int * float) array) in
            for m = 0 to Array.length terms - 1 do
              let _, w = terms.(m) in
              let v = s *. w in
              match op with
              | Product -> ys.(j) <- ys.(j) +. (xs.(i) *. v)
              | Row_sums -> ys.(i) <- ys.(i) +. v
              | Diag -> if i = j then ys.(i) <- ys.(i) +. v
              | Count -> if v <> 0.0 then is.(i + 1) <- is.(i + 1) + 1
              | Fill ->
                  if v <> 0.0 then begin
                    let p = is.(i) in
                    js.(p) <- j;
                    ys.(p) <- v;
                    is.(i) <- p + 1
                  end
            done
          end
        done
    end
  done

(* Co-walk the diagram from node [id] at [level] with a row cursor [rn]
   and a column cursor [cn] over the state space, [ro] and [co] the
   offsets accumulated above.  Paths are visited, and their coefficients
   multiplied, in {!Md.iter_entries} order; unreachable rows and columns
   are pruned where their arc is missing. *)
let rec walk t op xs ys is js level id rn cn ro co =
  if level = t.nlevels then bottom t op xs ys is js id rn cn ro co
  else begin
    let s = t.scale.(level) in
    let rows = Md.node_rows t.md id in
    let roffs = t.offsets.(rn) and rkids = t.children.(rn) in
    let coffs = t.offsets.(cn) and ckids = t.children.(cn) in
    for r = 0 to Array.length rows - 1 do
      let roff = roffs.(r) in
      if roff >= 0 then begin
        let row = rows.(r) and rchild = rkids.(r) in
        for k = 0 to Array.length row - 1 do
          let c, sum = row.(k) in
          let coff = coffs.(c) in
          if coff >= 0 then begin
            let terms = (sum :> (int * float) array) in
            for m = 0 to Array.length terms - 1 do
              let child, w = terms.(m) in
              t.scale.(level + 1) <- s *. w;
              walk t op xs ys is js (level + 1) child rchild ckids.(c) (ro + roff)
                (co + coff)
            done
          end
        done
      end
    done
  end

let run t op xs ys is js = walk t op xs ys is js 1 t.md_root t.root t.root 0 0

let vec_mul_into t x y =
  if Array.length x <> t.size || Array.length y <> t.size then
    fail "vec_mul_into" "vector size mismatch";
  if x == y then fail "vec_mul_into" "x and y are the same vector";
  Array.fill y 0 t.size 0.0;
  run t Product x y [||] [||]

let row_sums t =
  let sums = Array.make t.size 0.0 in
  run t Row_sums [||] sums [||] [||];
  sums

let diag t =
  let d = Array.make t.size 0.0 in
  run t Diag [||] d [||] [||];
  d

let to_csr t =
  let n = t.size in
  (* The count-then-fill construction of [Csr.of_entry_iter], with the
     walk as the entry producer: the entries of [Md.iter_entries]
     restricted to the state space, in the same order and with the same
     products. *)
  let base = Array.make (n + 1) 0 in
  run t Count [||] [||] base [||];
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i + 1) + base.(i)
  done;
  let col_idx = Array.make base.(n) 0 and values = Array.make base.(n) 0.0 in
  run t Fill [||] values (Array.sub base 0 n) col_idx;
  Mdl_sparse.Csr.of_row_slots ~rows:n ~cols:n base col_idx values
