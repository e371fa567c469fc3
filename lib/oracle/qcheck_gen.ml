open QCheck

let seed_gen = Gen.int_range 0 1_000_000

let chain_gen =
  Gen.(
    let* states = int_range 2 14 in
    let* extra = int_range 0 (3 * states) in
    let* planted = bool in
    let* seed = seed_gen in
    return { Spec.states; extra; planted; seed })

let shrink_chain (c : Spec.chain) yield =
  Shrink.int c.states (fun states -> if states >= 2 then yield { c with states });
  Shrink.int c.extra (fun extra -> yield { c with extra });
  Shrink.int c.seed (fun seed -> yield { c with seed })

let chain =
  make ~print:(fun c -> Spec.to_string (Chain c)) ~shrink:shrink_chain chain_gen

let sizes_gen max_levels =
  Gen.(array_size (int_range 1 (max 1 max_levels)) (int_range 2 4))

(* Shrink a sizes array: drop a level (keeping >= 1), or shrink one
   level's size toward 2. *)
let shrink_sizes sizes yield =
  let n = Array.length sizes in
  if n > 1 then
    for i = 0 to n - 1 do
      yield (Array.init (n - 1) (fun j -> if j < i then sizes.(j) else sizes.(j + 1)))
    done;
  Array.iteri
    (fun i s ->
      if s > 2 then
        yield
          (Array.mapi (fun j s' -> if i = j then s - 1 else s') sizes))
    sizes

let kron_gen max_levels =
  Gen.(
    let* sizes = sizes_gen max_levels in
    let* events = int_range 1 3 in
    let* symmetric = bool in
    let* merged = bool in
    let* seed = seed_gen in
    return { Spec.sizes; events; symmetric; ring = true; merged; seed })

let shrink_kron (k : Spec.kron) yield =
  shrink_sizes k.sizes (fun sizes -> yield { k with sizes });
  Shrink.int k.events (fun events -> if events >= 1 then yield { k with events });
  if k.merged then yield { k with merged = false };
  Shrink.int k.seed (fun seed -> yield { k with seed })

let kron = make ~print:(fun k -> Spec.to_string (Kron k)) ~shrink:shrink_kron (kron_gen 3)

let direct_gen max_levels =
  Gen.(
    let* sizes = sizes_gen max_levels in
    let* width = int_range 1 3 in
    let* symmetric = bool in
    let* seed = seed_gen in
    return { Spec.sizes; width; symmetric; seed })

let shrink_direct (d : Spec.direct) yield =
  shrink_sizes d.sizes (fun sizes -> yield { d with sizes });
  Shrink.int d.width (fun width -> if width >= 1 then yield { d with width });
  Shrink.int d.seed (fun seed -> yield { d with seed })

let model_gen ?(families = [ `Chain; `Kron; `Direct ]) max_levels =
  Gen.(
    let* family = oneofl families in
    match family with
    | `Chain -> map (fun c -> Spec.Chain c) chain_gen
    | `Kron -> map (fun k -> Spec.Kron k) (kron_gen max_levels)
    | `Direct -> map (fun d -> Spec.Direct d) (direct_gen max_levels))

let shrink_model (m : Spec.model) yield =
  match m with
  | Spec.Chain c -> shrink_chain c (fun c -> yield (Spec.Chain c))
  | Spec.Kron k -> shrink_kron k (fun k -> yield (Spec.Kron k))
  | Spec.Direct d -> shrink_direct d (fun d -> yield (Spec.Direct d))

let model ?(max_levels = 3) () =
  make ~print:Spec.to_string ~shrink:shrink_model (model_gen max_levels)

let md_model ?(max_levels = 3) () =
  make ~print:Spec.to_string ~shrink:shrink_model
    (model_gen ~families:[ `Kron; `Direct ] max_levels)
