type t = {
  nlevels : int;
  tuples : int array array; (* index -> tuple, strictly increasing lexicographically *)
}

(* Lexicographic order on tuples of equal length.  A top-level loop on
   [int] keeps the comparison monomorphic and allocation-free: sorting
   hundreds of thousands of tuples calls it millions of times. *)
let compare_tuples (a : int array) (b : int array) =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  if !i = n then 0 else Int.compare a.(!i) b.(!i)

(* Sort [arr] in place, drop adjacent duplicates and copy the survivors,
   so the state space never shares an array with its caller.  Merge sort
   rather than [Array.sort]'s heap sort: stability does not matter, but
   it makes about half the comparisons, fewer still on partly sorted
   input. *)
let of_array ~levels arr =
  Array.iter
    (fun s ->
      if Array.length s <> levels then
        invalid_arg "Statespace.of_tuples: tuple of wrong length")
    arr;
  Array.stable_sort compare_tuples arr;
  let kept = ref 0 in
  Array.iteri
    (fun i s ->
      if i = 0 || compare_tuples arr.(!kept - 1) s <> 0 then begin
        arr.(!kept) <- s;
        incr kept
      end)
    arr;
  { nlevels = levels; tuples = Array.init !kept (fun i -> Array.copy arr.(i)) }

let of_tuples ~levels tuples =
  if tuples = [] then invalid_arg "Statespace.of_tuples: empty state space";
  of_array ~levels (Array.of_list tuples)

let levels t = t.nlevels

let size t = Array.length t.tuples

let index t s =
  if Array.length s <> t.nlevels then None
  else begin
    let lo = ref 0 and hi = ref (Array.length t.tuples) in
    (* invariant: a member lies in [lo, hi) *)
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if compare_tuples t.tuples.(mid) s < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length t.tuples && compare_tuples t.tuples.(!lo) s = 0 then Some !lo
    else None
  end

let tuple t i =
  if i < 0 || i >= size t then invalid_arg "Statespace.tuple: index out of bounds";
  t.tuples.(i)

let iter f t = Array.iteri f t.tuples

let local_states t l =
  if l < 1 || l > t.nlevels then invalid_arg "Statespace.local_states: level out of range";
  let seen = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace seen s.(l - 1) ()) t.tuples;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

module Tuple_table = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && compare_tuples a b = 0

  let hash = Mdl_util.Hashx.int_array
end)

let map t f =
  (* Images collapse heavily under lumping, so distinct images are
     collected by hashing first and only those are sorted. *)
  let distinct = Tuple_table.create 1024 in
  Array.iter (fun s -> Tuple_table.replace distinct (f s) ()) t.tuples;
  let images = Array.of_seq (Tuple_table.to_seq_keys distinct) in
  (* The image may live over a different number of levels (e.g. after
     level merging); infer it from the mapped tuples. *)
  of_array ~levels:(Array.length images.(0)) images

let pp ppf t =
  Format.fprintf ppf "@[<v>%d states over %d levels" (size t) t.nlevels;
  if size t <= 64 then
    iter
      (fun i s ->
        Format.fprintf ppf "@,%d: (%s)" i
          (String.concat "," (List.map string_of_int (Array.to_list s))))
      t;
  Format.fprintf ppf "@]"
