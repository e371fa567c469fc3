type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let check_bounds t i fn =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dynarray.%s: index %d out of bounds [0,%d)" fn i t.len)

let get t i =
  check_bounds t i "get";
  Array.unsafe_get t.data i

let set t i x =
  check_bounds t i "set";
  Array.unsafe_set t.data i x

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Dynarray.pop: empty";
  t.len <- t.len - 1;
  let x = Array.unsafe_get t.data t.len in
  (* Junk-fill the freed slot so the popped element is collectable: a
     reference left in the backing store keeps it alive for as long as
     the dynarray exists (space leak).  A still-live element is the only
     type-correct filler (a [Obj.magic] dummy would crash on unboxed
     float arrays); when the array empties, drop the store entirely. *)
  if t.len > 0 then Array.unsafe_set t.data t.len (Array.unsafe_get t.data 0)
  else t.data <- [||];
  x

let clear t =
  t.len <- 0;
  (* Release the backing store: every slot holds a now-dead reference
     and there is no live element left to junk-fill with. *)
  t.data <- [||]

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p (Array.unsafe_get t.data i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.len

let to_list t = Array.to_list (to_array t)

let of_array a = { data = Array.copy a; len = Array.length a }

let of_list l = of_array (Array.of_list l)

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
