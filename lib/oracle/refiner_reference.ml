(* The seed's list-based refinement engine, kept verbatim as the
   differential baseline: the property tests pin the fast in-place
   engine ({!Refiner}) to this one's fixed point, and bench/refine
   measures the speedup against it.  Known inefficiencies are the point
   — do not optimise this file. *)

module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner

(* Group an association list [(state, key)] into lists of states with
   cmp-equal keys. *)
let group_by_key cmp keyed =
  let arr = Array.of_list keyed in
  let by_key (k1, x1) (k2, x2) =
    let c = cmp k1 k2 in
    if c <> 0 then c else compare x1 x2
  in
  Array.sort (fun (x1, k1) (x2, k2) -> by_key (k1, x1) (k2, x2)) arr;
  let groups = ref [] and current = ref [] in
  Array.iteri
    (fun idx (x, k) ->
      (if idx > 0 then
         let _, prev_k = arr.(idx - 1) in
         if cmp prev_k k <> 0 then begin
           groups := Array.of_list (List.rev !current) :: !groups;
           current := []
         end);
      current := x :: !current)
    arr;
  if !current <> [] then groups := Array.of_list (List.rev !current) :: !groups;
  List.rev !groups

let split_by_splitter (spec : _ Refiner.spec) p splitter worklist =
  let keyed = spec.Refiner.splitter_keys (splitter, 0, Array.length splitter) in
  (* Bucket touched states by their (current) class. *)
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun (s, k) ->
      let c = Partition.class_of p s in
      match Hashtbl.find_opt by_class c with
      | Some b -> b := (s, k) :: !b
      | None -> Hashtbl.add by_class c (ref [ (s, k) ]))
    keyed;
  let affected = Hashtbl.fold (fun c b acc -> (c, !b) :: acc) by_class [] in
  List.iter
    (fun (c, touched) ->
      let touched_set = Hashtbl.create (List.length touched) in
      List.iter (fun (s, _) -> Hashtbl.replace touched_set s ()) touched;
      let untouched =
        Array.to_list (Partition.elements p c)
        |> List.filter (fun s -> not (Hashtbl.mem touched_set s))
      in
      let key_groups = group_by_key spec.Refiner.key_compare touched in
      let groups =
        match untouched with [] -> key_groups | _ -> Array.of_list untouched :: key_groups
      in
      if List.length groups > 1 then begin
        let ids = Partition.split p c groups in
        List.iter (fun id -> Queue.add (Partition.elements p id) worklist) ids
      end)
    affected

let comp_lumping (spec : _ Refiner.spec) ~initial =
  if Partition.size initial <> spec.Refiner.size then
    invalid_arg "Refiner_reference.comp_lumping: partition size mismatch";
  let p = Partition.of_class_assignment (Partition.to_class_assignment initial) in
  let worklist = Queue.create () in
  for c = 0 to Partition.num_classes p - 1 do
    Queue.add (Partition.elements p c) worklist
  done;
  while not (Queue.is_empty worklist) do
    let splitter = Queue.pop worklist in
    split_by_splitter spec p splitter worklist
  done;
  p
