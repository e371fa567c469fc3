module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Floatx = Mdl_util.Floatx
module Hashx = Mdl_util.Hashx

type choice = Formal_sums | Expanded_matrices

type t = Sum of Formal_sum.t | Matrix of Csr.t

let quantize ?eps = function
  | Sum s -> Sum (Formal_sum.quantize ?eps s)
  | Matrix m -> Matrix (Csr.map (Floatx.quantize ?eps) m)

let compare_matrices_exact a b =
  let c = Int.compare (Csr.rows a) (Csr.rows b) in
  if c <> 0 then c
  else
    let c = Int.compare (Csr.cols a) (Csr.cols b) in
    if c <> 0 then c
    else begin
      (* Both matrices are in canonical (row-major sorted) form; compare
         entry streams. *)
      let entries m =
        let acc = ref [] in
        Csr.iter (fun i j v -> acc := (i, j, v) :: !acc) m;
        List.rev !acc
      in
      let rec loop ea eb =
        match (ea, eb) with
        | [], [] -> 0
        | [], _ -> -1
        | _, [] -> 1
        | (i1, j1, v1) :: ra, (i2, j2, v2) :: rb ->
            let c = compare (i1, j1) (i2, j2) in
            if c <> 0 then c
            else
              let c = Float.compare v1 v2 in
              if c <> 0 then c else loop ra rb
      in
      loop (entries a) (entries b)
    end

let compare_exact a b =
  match (a, b) with
  | Sum sa, Sum sb -> Formal_sum.compare sa sb
  | Matrix ma, Matrix mb -> compare_matrices_exact ma mb
  | Sum _, Matrix _ -> -1
  | Matrix _, Sum _ -> 1

let compare ?eps a b = compare_exact (quantize ?eps a) (quantize ?eps b)

let equal a b =
  match (a, b) with
  | Sum sa, Sum sb -> Formal_sum.equal sa sb
  | Matrix ma, Matrix mb -> Csr.equal ma mb
  | Sum _, Matrix _ | Matrix _, Sum _ -> false

let hash = function
  | Sum s -> Hashx.combine 1 (Formal_sum.hash s)
  | Matrix m -> Hashx.combine 2 (Csr.hash m)

type context = {
  md : Md.t;
  flattened : (Md.node_id, Csr.t) Hashtbl.t;
}

let make_context md = { md; flattened = Hashtbl.create 64 }

(* Flatten a node to the real matrix it represents over the suffix
   product space (memoised).  The terminal flattens to the 1x1 [1]. *)
let rec flatten ctx id =
  match Hashtbl.find_opt ctx.flattened id with
  | Some m -> m
  | None ->
      let level = Md.node_level ctx.md id in
      let m =
        if level > Md.levels ctx.md then Csr.identity 1
        else begin
          let n = Md.size ctx.md level in
          let suffix =
            let acc = ref 1 in
            for l = level + 1 to Md.levels ctx.md do
              acc := !acc * Md.size ctx.md l
            done;
            !acc
          in
          let dim = n * suffix in
          let coo = Coo.create ~rows:dim ~cols:dim in
          Md.iter_node_entries ctx.md id (fun r c s ->
              List.iter
                (fun (child, w) ->
                  let block = flatten ctx child in
                  Csr.iter
                    (fun br bc v ->
                      Coo.add coo ((r * suffix) + br) ((c * suffix) + bc) (w *. v))
                    block)
                (Formal_sum.terms s));
          Csr.of_coo coo
        end
      in
      Hashtbl.add ctx.flattened id m;
      m

let expand ctx sum =
  (* sum_{n3} r * R_{n3} as an actual matrix. *)
  match Formal_sum.terms sum with
  | [] -> Csr.of_coo (Coo.create ~rows:0 ~cols:0)
  | (child0, w0) :: rest ->
      List.fold_left
        (fun acc (child, w) -> Csr.add acc (Csr.scale w (flatten ctx child)))
        (Csr.scale w0 (flatten ctx child0))
        rest

let eval_keys ?eps ?skip ?pool ?(par_threshold = 1024) ctx choice mode node
    (perm, first, len) =
  (* Accumulate formal sums per touched state: over columns of the
     splitter for ordinary lumping (row sums R_n(s, C)), over rows for
     exact lumping (column sums R_n(C, s)).  States for which [skip]
     holds are not accumulated at all: a state alone in its class can
     never be split off, so its key — however expensive — can only ever
     be compared against itself. *)
  let acc : (int, Formal_sum.t) Hashtbl.t = Hashtbl.create 32 in
  let skip = match skip with Some f -> f | None -> fun _ -> false in
  let touch s sum =
    let prev = Option.value ~default:Formal_sum.empty (Hashtbl.find_opt acc s) in
    Hashtbl.replace acc s (Formal_sum.add prev sum)
  in
  let entries i =
    match mode with
    | Mdl_lumping.State_lumping.Ordinary -> Md.node_col ctx.md node perm.(i)
    | Mdl_lumping.State_lumping.Exact -> Md.node_row ctx.md node perm.(i)
  in
  (match pool with
  | Some pool when Mdl_util.Domain_pool.size pool > 1 && len >= par_threshold ->
      (* Collect raw (state, contribution) pairs per contiguous member
         chunk in walk order on the pool, then replay [touch] chunk by
         chunk on this domain.  [Formal_sum.add] is float addition —
         not associative — so merging per-domain *accumulated* sums
         would perturb the result; only replaying the contributions in
         member order reproduces the sequential sums bit for bit.
         Chunk boundaries cannot matter: the concatenation of chunks in
         index order is exactly the member walk 0..len-1, whatever the
         chunk count or which domain collected each chunk. *)
      let tasks = min len (4 * Mdl_util.Domain_pool.size pool) in
      let chunks = Array.make tasks [] in
      Mdl_util.Domain_pool.run pool ~n:tasks (fun ci ->
          let lo, hi = Mdl_util.Domain_pool.split ~n:len ~tasks ci in
          let out = ref [] in
          for i = first + lo to first + hi - 1 do
            List.iter (fun (s, sum) -> if not (skip s) then out := (s, sum) :: !out) (entries i)
          done;
          chunks.(ci) <- List.rev !out);
      Array.iter (fun chunk -> List.iter (fun (s, sum) -> touch s sum) chunk) chunks
  | _ ->
      for i = first to first + len - 1 do
        List.iter (fun (s, sum) -> if not (skip s) then touch s sum) (entries i)
      done);
  (* Quantize at emission: every consumer downstream (gid interning,
     the reference engine's exact compare) then sees the same canonical
     key, and a sum whose coefficients all quantize away is dropped here
     exactly like the implicit zero key of an untouched state.  Emission order
     is pinned to what the historical list-building fold produced — the
     reverse of [Hashtbl] iteration order — so the interned gid ranks
     (first appearance over these arrays) are unchanged. *)
  let cap = Hashtbl.length acc in
  let tmp_s = Array.make (max cap 1) 0 in
  let tmp_k = Array.make (max cap 1) (Sum Formal_sum.empty) in
  let m = ref 0 in
  Hashtbl.iter
    (fun s sum ->
      let sum = Formal_sum.quantize ?eps sum in
      if not (Formal_sum.is_empty sum) then begin
        let key =
          match choice with
          | Formal_sums -> Sum sum
          | Expanded_matrices -> Matrix (Csr.map (Floatx.quantize ?eps) (expand ctx sum))
        in
        tmp_s.(!m) <- s;
        tmp_k.(!m) <- key;
        incr m
      end)
    acc;
  let m = !m in
  ( Array.init m (fun i -> tmp_s.(m - 1 - i)),
    Array.init m (fun i -> tmp_k.(m - 1 - i)) )

let splitter_keys ?eps ?skip ctx choice mode node slice =
  let states, keys = eval_keys ?eps ?skip ctx choice mode node slice in
  List.init (Array.length states) (fun i -> (states.(i), keys.(i)))
