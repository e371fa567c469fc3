module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Floatx = Mdl_util.Floatx
module Hashx = Mdl_util.Hashx

type choice = Formal_sums | Expanded_matrices

type t = Sum of Formal_sum.t | Matrix of Csr.t

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
  cols : (Md.node_id, (int * Formal_sum.t) array array) Hashtbl.t;
}

let make_context md = { md; flattened = Hashtbl.create 64; cols = Hashtbl.create 16 }

let node_cols ctx id =
  match Hashtbl.find_opt ctx.cols id with
  | Some cols -> cols
  | None ->
      let rows = Md.node_rows ctx.md id in
      let n = Array.length rows in
      let acc = Array.make n [] in
      (* Walk rows in reverse so each column list ends up ascending. *)
      for r = n - 1 downto 0 do
        Array.iter (fun (col, s) -> acc.(col) <- (r, s) :: acc.(col)) rows.(r)
      done;
      let cols = Array.map Array.of_list acc in
      Hashtbl.add ctx.cols id cols;
      cols

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

let eval_keys ?skip ctx choice mode node (perm, first, len) =
  (* Accumulate formal sums per touched state: over columns of the
     splitter for ordinary lumping (row sums R_n(s, C)), over rows for
     exact lumping (column sums R_n(C, s)).  States for which [skip]
     holds are not accumulated at all: a state alone in its class can
     never be split off, so its key — however expensive — can only ever
     be compared against itself. *)
  let acc : (int, Formal_sum.t) Hashtbl.t = Hashtbl.create 32 in
  let skip = match skip with Some f -> f | None -> fun _ -> false in
  let lines =
    match mode with
    | Mdl_lumping.State_lumping.Ordinary -> node_cols ctx node
    | Mdl_lumping.State_lumping.Exact -> Md.node_rows ctx.md node
  in
  for i = first to first + len - 1 do
    Array.iter
      (fun (s, sum) ->
        if not (skip s) then
          let prev = Option.value ~default:Formal_sum.empty (Hashtbl.find_opt acc s) in
          Hashtbl.replace acc s (Formal_sum.add prev sum))
      lines.(perm.(i))
  done;
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
      let sum = Formal_sum.quantize sum in
      if not (Formal_sum.is_empty sum) then begin
        let key =
          match choice with
          | Formal_sums -> Sum sum
          | Expanded_matrices -> Matrix (Csr.map Floatx.quantize (expand ctx sum))
        in
        tmp_s.(!m) <- s;
        tmp_k.(!m) <- key;
        incr m
      end)
    acc;
  let m = !m in
  ( Array.init m (fun i -> tmp_s.(m - 1 - i)),
    Array.init m (fun i -> tmp_k.(m - 1 - i)) )

let splitter_keys ?skip ctx choice mode node slice =
  let states, keys = eval_keys ?skip ctx choice mode node slice in
  List.init (Array.length states) (fun i -> (states.(i), keys.(i)))

(* ---- the level key: every live node's key at once ---- *)

module Sortx = Mdl_util.Sortx

(* One live node's lines — its columns in ordinary mode, its rows in
   exact mode — in flat arrays.  Line [l]'s entries are
   [line_start.(l) .. line_start.(l + 1) - 1], each touching the state
   [ent_state.(e)] (the row of a column entry, the column of a row
   entry) in ascending order; entry [e]'s terms are
   [term_start.(e) .. term_start.(e + 1) - 1], each a dense child slot
   (the child's rank in [children], ascending ids) and a coefficient. *)
type node_lines = {
  children : int array;
  line_start : int array;
  ent_state : int array;
  term_start : int array;
  term_slot : int array;
  term_coeff : float array;
}

type lines = {
  size : int;
  nodes : node_lines array; (* the level's live nodes, in live order *)
  slot_base : int array; (* node -> offset of its slots among the level's *)
}

let compile_node md mode node =
  let rows = Md.node_rows md node in
  let n = Array.length rows in
  let children = Md.node_children md node in
  let by_row = mode = Mdl_lumping.State_lumping.Exact in
  let line_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun r row ->
      Array.iter
        (fun (c, _) ->
          let l = if by_row then r else c in
          line_start.(l + 1) <- line_start.(l + 1) + 1)
        row)
    rows;
  for l = 0 to n - 1 do
    line_start.(l + 1) <- line_start.(l + 1) + line_start.(l)
  done;
  let nent = line_start.(n) in
  let next = Array.sub line_start 0 n in
  let ent_state = Array.make nent 0 in
  let ent_sum = Array.make nent Formal_sum.empty in
  (* Rows ascending, columns ascending within a row: each line lists
     its states in ascending order. *)
  Array.iteri
    (fun r row ->
      Array.iter
        (fun (c, s) ->
          let l, st = if by_row then (r, c) else (c, r) in
          let e = next.(l) in
          next.(l) <- e + 1;
          ent_state.(e) <- st;
          ent_sum.(e) <- s)
        row)
    rows;
  let term_start = Array.make (nent + 1) 0 in
  for e = 0 to nent - 1 do
    term_start.(e + 1) <- term_start.(e) + Formal_sum.num_terms ent_sum.(e)
  done;
  let term_slot = Array.make term_start.(nent) 0 in
  let term_coeff = Array.make term_start.(nent) 0.0 in
  Array.iteri
    (fun e s ->
      Array.iteri
        (fun k (child, c) ->
          term_slot.(term_start.(e) + k) <- Sortx.find_sorted children child;
          term_coeff.(term_start.(e) + k) <- c)
        (s : Formal_sum.t :> (int * float) array))
    ent_sum;
  { children; line_start; ent_state; term_start; term_slot; term_coeff }

let compile md mode ~level =
  let nodes =
    Array.of_list (List.map (compile_node md mode) (Md.live_nodes md).(level - 1))
  in
  let slot_base = Array.make (Array.length nodes) 0 in
  for i = 1 to Array.length nodes - 1 do
    slot_base.(i) <- slot_base.(i - 1) + Array.length nodes.(i - 1).children
  done;
  { size = Md.size md level; nodes; slot_base }

(* A level key interned from its bits: the terms [off .. off + len - 1]
   of a (tags, coefficients) pair of arrays.  Lookups probe with one
   mutable key pointing into the accumulator's output, so a hit copies
   nothing; a miss stores a copy. *)
type probe = {
  mutable tags : int array;
  mutable coeffs : float array;
  mutable off : int;
  mutable len : int;
}

module Probe_table = Hashtbl.Make (struct
  type t = probe

  (* A loop, not a local recursive function: a closure would be
     allocated per comparison. *)
  let equal a b =
    a.len = b.len
    &&
    let i = ref 0 in
    while
      !i < a.len
      && a.tags.(a.off + !i) = b.tags.(b.off + !i)
      && Int64.equal
           (Int64.bits_of_float a.coeffs.(a.off + !i))
           (Int64.bits_of_float b.coeffs.(b.off + !i))
    do
      incr i
    done;
    !i = a.len

  let hash p =
    let h = ref p.len in
    for i = p.off to p.off + p.len - 1 do
      h :=
        Hashx.combine (Hashx.combine !h p.tags.(i))
          (Int64.to_int (Int64.bits_of_float p.coeffs.(i)))
    done;
    !h
end)

module Key_table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

(* Growable scratch.  [slots] is the dense accumulator of the node being
   walked: one float per (touched state, child of that node), the
   states numbered by first touch ([touched], [tix], valid where
   [tstamp] holds the current walk).  The level key's terms are pushed
   node by node into [t_*] against the state's emitted index ([uix],
   valid where [ustamp] holds the current step, [ustates] the states in
   emission order), then grouped per state into [g_*] by a counting
   sort. *)
type accumulator = {
  keys : int Probe_table.t; (* level key -> gid, never cleared *)
  matrices : int Key_table.t; (* expanded node key -> id, never cleared *)
  probe : probe;
  mutable slots : float array;
  mutable touched : int array;
  mutable tix : int array;
  mutable tstamp : int array;
  mutable walk : int;
  mutable ustates : int array;
  mutable ucount : int array;
  mutable uix : int array;
  mutable ustamp : int array;
  mutable step : int;
  mutable t_u : int array;
  mutable t_tag : int array;
  mutable t_coeff : float array;
  mutable g_tag : int array;
  mutable g_coeff : float array;
}

let accumulator () =
  {
    keys = Probe_table.create 1024;
    matrices = Key_table.create 64;
    probe = { tags = [||]; coeffs = [||]; off = 0; len = 0 };
    slots = [||];
    touched = [||];
    tix = [||];
    tstamp = [||];
    walk = 0;
    ustates = [||];
    ucount = [||];
    uix = [||];
    ustamp = [||];
    step = 0;
    t_u = [||];
    t_tag = [||];
    t_coeff = [||];
    g_tag = [||];
    g_coeff = [||];
  }

let interned acc = Probe_table.length acc.keys

(* State-indexed scratch for a level of [n] states.  Fresh stamps are 0
   and the counters only grow from there, so no stale entry matches. *)
let ensure_states acc n =
  if Array.length acc.touched < n then begin
    acc.touched <- Array.make n 0;
    acc.tix <- Array.make n 0;
    acc.tstamp <- Array.make n 0;
    acc.ustates <- Array.make n 0;
    acc.ucount <- Array.make n 0;
    acc.uix <- Array.make n 0;
    acc.ustamp <- Array.make n 0
  end

let grow_floats a n keep =
  let b = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 keep;
  b

let grow_ints a n keep =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 keep;
  b

(* Sum node [nl]'s lines over the splitter's members into [slots], in
   member order; returns the number of states touched. *)
let walk acc nl skip perm first len =
  acc.walk <- acc.walk + 1;
  let w = acc.walk in
  let nch = Array.length nl.children in
  let nt = ref 0 in
  for i = first to first + len - 1 do
    let l = perm.(i) in
    for e = nl.line_start.(l) to nl.line_start.(l + 1) - 1 do
      let s = nl.ent_state.(e) in
      if not (skip s) then begin
        let t =
          if acc.tstamp.(s) = w then acc.tix.(s)
          else begin
            let t = !nt in
            acc.tstamp.(s) <- w;
            acc.tix.(s) <- t;
            acc.touched.(t) <- s;
            incr nt;
            let need = (t + 1) * nch in
            if Array.length acc.slots < need then
              acc.slots <- grow_floats acc.slots need (t * nch);
            Array.fill acc.slots (t * nch) nch 0.0;
            t
          end
        in
        let slots = acc.slots and base = t * nch in
        for x = nl.term_start.(e) to nl.term_start.(e + 1) - 1 do
          let j = base + nl.term_slot.(x) in
          slots.(j) <- slots.(j) +. nl.term_coeff.(x)
        done
      end
    done
  done;
  !nt

(* Append a term for emitted state [u]; returns its index, where the
   caller writes the coefficient (a float passed as an argument would be
   boxed). *)
let push_term acc nterms u tag =
  let k = !nterms in
  if k = Array.length acc.t_u then begin
    acc.t_u <- grow_ints acc.t_u (k + 1) k;
    acc.t_tag <- grow_ints acc.t_tag (k + 1) k;
    acc.t_coeff <- grow_floats acc.t_coeff (k + 1) k
  end;
  acc.t_u.(k) <- u;
  acc.t_tag.(k) <- tag;
  acc.ucount.(u) <- acc.ucount.(u) + 1;
  nterms := k + 1;
  k

let level_keys ?skip ctx choice lines acc (perm, first, len) =
  let skip = match skip with Some f -> f | None -> fun _ -> false in
  ensure_states acc lines.size;
  acc.step <- acc.step + 1;
  let step = acc.step in
  let nu = ref 0 and nterms = ref 0 in
  (* The state's emitted index, given at its first nonzero node key. *)
  let emitted s =
    if acc.ustamp.(s) = step then acc.uix.(s)
    else begin
      let u = !nu in
      acc.ustamp.(s) <- step;
      acc.uix.(s) <- u;
      acc.ustates.(u) <- s;
      acc.ucount.(u) <- 0;
      incr nu;
      u
    end
  in
  let k = Array.length lines.nodes in
  Array.iteri
    (fun i nl ->
      let nt = walk acc nl skip perm first len in
      let nch = Array.length nl.children in
      for t = 0 to nt - 1 do
        let s = acc.touched.(t) and base = t * nch in
        (* Quantize at emission: a node whose slots all quantize to zero
           contributes nothing, like a node that never touched [s]. *)
        let slots = acc.slots in
        Floatx.quantize_range slots base nch;
        match choice with
        | Formal_sums ->
            for j = 0 to nch - 1 do
              if slots.(base + j) <> 0.0 then begin
                let x = push_term acc nterms (emitted s) (lines.slot_base.(i) + j) in
                acc.t_coeff.(x) <- slots.(base + j)
              end
            done
        | Expanded_matrices ->
            let sum = Formal_sum.of_slots nl.children slots base in
            if not (Formal_sum.is_empty sum) then begin
              let key = Matrix (Csr.map Floatx.quantize (expand ctx sum)) in
              let g =
                match Key_table.find_opt acc.matrices key with
                | Some g -> g
                | None ->
                    let g = Key_table.length acc.matrices in
                    Key_table.add acc.matrices key g;
                    g
              in
              let x = push_term acc nterms (emitted s) (i + (k * g)) in
              acc.t_coeff.(x) <- 1.0
            end
      done)
    lines.nodes;
  (* Group the terms by state (a stable counting sort keeps each
     state's terms in node order, slots ascending: the canonical form),
     then intern each state's terms to its gid. *)
  let n = !nu and m = !nterms in
  let bounds = acc.ucount in
  let total = ref 0 in
  for u = 0 to n - 1 do
    let c = bounds.(u) in
    bounds.(u) <- !total;
    total := !total + c
  done;
  if Array.length acc.g_tag < m then begin
    acc.g_tag <- Array.make (Array.length acc.t_tag) 0;
    acc.g_coeff <- Array.make (Array.length acc.t_coeff) 0.0
  end;
  for x = 0 to m - 1 do
    let u = acc.t_u.(x) in
    let dst = bounds.(u) in
    bounds.(u) <- dst + 1;
    acc.g_tag.(dst) <- acc.t_tag.(x);
    acc.g_coeff.(dst) <- acc.t_coeff.(x)
  done;
  (* [bounds.(u)] now ends state [u]'s terms, which start where state
     [u - 1]'s end. *)
  let probe = acc.probe in
  probe.tags <- acc.g_tag;
  probe.coeffs <- acc.g_coeff;
  let gids =
    Array.init n (fun u ->
        let off = if u = 0 then 0 else bounds.(u - 1) in
        probe.off <- off;
        probe.len <- bounds.(u) - off;
        match Probe_table.find acc.keys probe with
        | g -> g
        | exception Not_found ->
            let g = Probe_table.length acc.keys in
            Probe_table.add acc.keys
              {
                tags = Array.sub probe.tags off probe.len;
                coeffs = Array.sub probe.coeffs off probe.len;
                off = 0;
                len = probe.len;
              }
              g;
            g)
  in
  (Array.sub acc.ustates 0 n, gids)
