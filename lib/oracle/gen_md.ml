module Prng = Mdl_util.Prng
module Coo = Mdl_sparse.Coo
module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Kronecker = Mdl_kron.Kronecker

let rate prng = float_of_int (1 + Prng.int prng 4) /. 2.0

let local_matrix prng ~n ~symmetric =
  let c = Coo.create ~rows:n ~cols:n in
  let nnz = Prng.int prng (2 * n) in
  for _ = 1 to nnz do
    Coo.add c (Prng.int prng n) (Prng.int prng n) (rate prng)
  done;
  let m = Csr.of_coo c in
  if symmetric then Gen_chain.symmetrise (Gen_chain.swap_last_two n) m else m

let ring_matrix n =
  Csr.of_triplets ~rows:n ~cols:n (List.init n (fun i -> (i, (i + 1) mod n, 1.0)))

let kronecker prng (spec : Spec.kron) =
  let sizes = spec.sizes in
  let events =
    List.init spec.events (fun i ->
        {
          Kronecker.label = Printf.sprintf "e%d" i;
          rate = rate prng;
          locals = Array.map (fun n -> local_matrix prng ~n ~symmetric:spec.symmetric) sizes;
        })
  in
  let rings =
    if not spec.ring then []
    else
      List.init (Array.length sizes) (fun l ->
          let locals =
            Array.mapi
              (fun l' n ->
                if l' <> l then Kronecker.identity_local n
                else
                  let r = ring_matrix n in
                  if spec.symmetric then
                    Gen_chain.symmetrise (Gen_chain.swap_last_two n) r
                  else r)
              sizes
          in
          { Kronecker.label = Printf.sprintf "ring%d" (l + 1); rate = 1.0; locals })
  in
  Kronecker.make ~sizes (events @ rings)

let event_chains k =
  let sizes = Kronecker.sizes k in
  let md = Md.create ~sizes in
  let nlevels = Array.length sizes in
  (* Build each event's node chain bottom-up (hash-consing shares equal
     suffixes across events); the level-1 matrices of all events combine
     into the single root node, carrying the event rates as
     coefficients. *)
  let suffix_of (e : Kronecker.event) =
    let rec build level =
      if level > nlevels then Md.terminal md
      else
        let child = build (level + 1) in
        let entries = ref [] in
        Csr.iter
          (fun r c v -> entries := (r, c, Formal_sum.singleton child v) :: !entries)
          e.locals.(level - 1);
        Md.add_node md ~level !entries
    in
    build 2
  in
  let root_entries = ref [] in
  List.iter
    (fun (e : Kronecker.event) ->
      let child = suffix_of e in
      Csr.iter
        (fun r c v ->
          root_entries := (r, c, Formal_sum.singleton child (e.rate *. v)) :: !root_entries)
        e.locals.(0))
    (Kronecker.events k);
  let root = Md.add_node md ~level:1 !root_entries in
  Md.set_root md root;
  md

let kron_md prng spec =
  let k = kronecker prng spec in
  if spec.Spec.merged then Kronecker.to_md k else event_chains k

(* Symmetrise a node's entry list under an involution of its index set:
   each entry (r, c, s) contributes s/2 at (r, c) and s/2 at
   (swap r, swap c); Md.add_node folds coinciding positions. *)
let symmetrise_entries swap entries =
  List.concat_map
    (fun (r, c, s) ->
      let h = Formal_sum.scale 0.5 s in
      [ (r, c, h); (swap r, swap c, h) ])
    entries

let direct prng (spec : Spec.direct) =
  let sizes = spec.sizes in
  let levels = Array.length sizes in
  let md = Md.create ~sizes in
  let pool = ref [| Md.terminal md |] in
  for l = levels downto 1 do
    let n = sizes.(l - 1) in
    let width = if l = 1 then 1 else max 1 spec.width in
    let children = !pool in
    let nodes =
      List.init width (fun _ ->
          let nnz = 1 + Prng.int prng (2 * n) in
          let entries = ref [] in
          for _ = 1 to nnz do
            let r = Prng.int prng n and c = Prng.int prng n in
            let nterms = 1 + Prng.int prng 2 in
            let sum =
              Formal_sum.of_list
                (List.init nterms (fun _ ->
                     (children.(Prng.int prng (Array.length children)), rate prng)))
            in
            entries := (r, c, sum) :: !entries
          done;
          let entries =
            if spec.symmetric && n >= 2 then
              symmetrise_entries (Gen_chain.swap_last_two n) !entries
            else !entries
          in
          Md.add_node md ~level:l entries)
    in
    pool := Array.of_list (List.sort_uniq compare nodes)
  done;
  Md.set_root md !pool.(0);
  md

let of_spec = function
  | Spec.Chain c -> Gen_chain.md_of_csr (Gen_chain.rate_matrix (Prng.of_seed c.seed) c)
  | Spec.Kron k -> kron_md (Prng.of_seed k.seed) k
  | Spec.Direct d -> direct (Prng.of_seed d.seed) d
