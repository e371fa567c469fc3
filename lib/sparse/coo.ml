module Dynarray = Mdl_util.Dynarray

type t = {
  rows : int;
  cols : int;
  is : int Dynarray.t;
  js : int Dynarray.t;
  vs : float Dynarray.t;
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Coo.create: negative dimension";
  { rows; cols; is = Dynarray.create (); js = Dynarray.create (); vs = Dynarray.create () }

let rows t = t.rows

let cols t = t.cols

let nnz t = Dynarray.length t.vs

let add t i j v =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg
      (Printf.sprintf "Coo.add: (%d,%d) out of bounds for %dx%d" i j t.rows t.cols);
  if v <> 0.0 then begin
    Dynarray.push t.is i;
    Dynarray.push t.js j;
    Dynarray.push t.vs v
  end

let iter f t =
  for k = 0 to nnz t - 1 do
    f (Dynarray.get t.is k) (Dynarray.get t.js k) (Dynarray.get t.vs k)
  done

let of_triplets ~rows ~cols triplets =
  let t = create ~rows ~cols in
  List.iter (fun (i, j, v) -> add t i j v) triplets;
  t
