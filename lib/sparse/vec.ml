type t = float array

let copy = Array.copy

let check_dims a b fn =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" fn (Array.length a)
         (Array.length b))

let dot a b =
  check_dims a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let axpy ~alpha x y =
  check_dims x y "axpy";
  for i = 0 to Array.length x - 1 do
    y.(i) <- (alpha *. x.(i)) +. y.(i)
  done

let scale alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- alpha *. x.(i)
  done

let sum t = Mdl_util.Floatx.sum_kahan t

let normalize1 t =
  let s = sum t in
  if s <= 0.0 then invalid_arg "Vec.normalize1: sum is not positive";
  scale (1.0 /. s) t

(* A comparison instead of [Float.max], which calls into C per element;
   [d <> d] keeps a NaN sticky, as [Float.max] does. *)
let norm_inf t =
  let acc = ref 0.0 in
  for i = 0 to Array.length t - 1 do
    let d = Float.abs t.(i) in
    if d > !acc || d <> d then acc := d
  done;
  !acc

let diff_inf a b =
  check_dims a b "diff_inf";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = Float.abs (a.(i) -. b.(i)) in
    if d > !acc || d <> d then acc := d
  done;
  !acc

let check_perm x perm fn =
  if Array.length perm <> Array.length x then
    invalid_arg
      (Printf.sprintf "Vec.%s: permutation length mismatch (%d vs %d)" fn
         (Array.length perm) (Array.length x))

let gather x perm =
  check_perm x perm "gather";
  Array.map (fun i -> x.(i)) perm

let scatter y perm =
  check_perm y perm "scatter";
  let out = Array.make (Array.length y) 0.0 in
  Array.iteri (fun k i -> out.(i) <- y.(k)) perm;
  out

let approx_equal ?eps a b =
  Array.length a = Array.length b
  &&
  let rec loop i =
    i >= Array.length a || (Mdl_util.Floatx.approx_eq ?eps a.(i) b.(i) && loop (i + 1))
  in
  loop 0
