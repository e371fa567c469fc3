let default_eps = 1e-9

let approx_eq ?(eps = default_eps) a b =
  if a = b then true
  else
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= eps *. scale

let compare_approx ?(eps = default_eps) a b =
  if approx_eq ~eps a b then 0 else compare a b

let[@inline] snap eps x =
  if x = 0.0 then 0.0 (* merge -0.0 with 0.0 *)
  else
    let q = Float.round (x /. eps) in
    if Float.is_finite q then q *. eps else x

let quantize ?(eps = default_eps) x = snap eps x

let quantize_range a off len =
  for i = off to off + len - 1 do
    a.(i) <- snap default_eps a.(i)
  done

let sum_kahan a =
  let sum = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum
