let combine seed h =
  (* The boost::hash_combine mixing constant, truncated to OCaml's native
     int width; good avalanche behaviour for our structural hashes. *)
  seed lxor (h + 0x9e3779b9 + (seed lsl 6) + (seed lsr 2))

let float f = Hashtbl.hash (Int64.bits_of_float f)

let int_array a =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := combine !h a.(i)
  done;
  !h
