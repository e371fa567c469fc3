type t = (int * float) array
(* Invariant: sorted by node id, ids unique, coefficients nonzero. *)

let empty = [||]

let is_empty t = Array.length t = 0

let singleton node coeff = if coeff = 0.0 then empty else [| (node, coeff) |]

let of_list l =
  let a = Array.of_list l in
  Array.sort (fun (n1, _) (n2, _) -> compare n1 n2) a;
  let out = Mdl_util.Dynarray.create () in
  let flush node acc =
    if acc <> 0.0 then Mdl_util.Dynarray.push out (node, acc)
  in
  let n = Array.length a in
  let rec fold k node acc =
    if k >= n then flush node acc
    else
      let node', c = a.(k) in
      if node' = node then fold (k + 1) node (acc +. c)
      else begin
        flush node acc;
        fold (k + 1) node' c
      end
  in
  if n > 0 then begin
    let node0, c0 = a.(0) in
    fold 1 node0 c0
  end;
  Mdl_util.Dynarray.to_array out

let terms t = Array.to_list t

let of_slots ids coeffs off =
  let n = ref 0 in
  for i = 0 to Array.length ids - 1 do
    if coeffs.(off + i) <> 0.0 then incr n
  done;
  let out = Array.make !n (0, 0.0) in
  let k = ref 0 in
  for i = 0 to Array.length ids - 1 do
    let c = coeffs.(off + i) in
    if c <> 0.0 then begin
      out.(!k) <- (ids.(i), c);
      incr k
    end
  done;
  out

let add a b = of_list (terms a @ terms b)

let scale alpha t =
  if alpha = 0.0 then empty else Array.map (fun (n, c) -> (n, alpha *. c)) t

let sum l = of_list (List.concat_map terms l)

let num_terms t = Array.length t

let coeff t node =
  (* Binary search over the sorted term array. *)
  let lo = ref 0 and hi = ref (Array.length t - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let n, c = t.(mid) in
    if n = node then begin
      result := c;
      lo := !hi + 1
    end
    else if n < node then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let children t = Array.to_list (Array.map fst t)

let map_children f t = of_list (List.map (fun (n, c) -> (f n, c)) (terms t))

let equal a b =
  Array.length a = Array.length b
  &&
  let rec loop i =
    i >= Array.length a
    ||
    let n1, c1 = a.(i) and n2, c2 = b.(i) in
    n1 = n2 && Int64.bits_of_float c1 = Int64.bits_of_float c2 && loop (i + 1)
  in
  loop 0

let hash t =
  Array.fold_left
    (fun h (n, c) -> Mdl_util.Hashx.combine (Mdl_util.Hashx.combine h n) (Mdl_util.Hashx.float c))
    (Array.length t) t

let quantize t =
  of_list (List.map (fun (n, c) -> (n, Mdl_util.Floatx.quantize c)) (terms t))

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let n1, c1 = a.(i) and n2, c2 = b.(i) in
      if n1 <> n2 then Stdlib.compare n1 n2
      else
        let c = Float.compare c1 c2 in
        if c <> 0 then c else loop (i + 1)
  in
  loop 0

let compare_approx ?eps a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let n1, c1 = a.(i) and n2, c2 = b.(i) in
      if n1 <> n2 then Stdlib.compare n1 n2
      else
        let c = Mdl_util.Floatx.compare_approx ?eps c1 c2 in
        if c <> 0 then c else loop (i + 1)
  in
  loop 0

let pp ppf t =
  if is_empty t then Format.fprintf ppf "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
      (fun ppf (n, c) -> Format.fprintf ppf "%g*R%d" c n)
      ppf (terms t)
