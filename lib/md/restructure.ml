let merge_adjacent md l =
  let nlevels = Md.levels md in
  if l < 1 || l >= nlevels then invalid_arg "Restructure.merge_adjacent: bad level";
  let n_low = Md.size md (l + 1) in
  let sizes =
    Array.init (nlevels - 1) (fun i ->
        let level = i + 1 in
        if level < l then Md.size md level
        else if level = l then Md.size md l * n_low
        else Md.size md (level + 1))
  in
  let out = Md.create ~sizes in
  let memo = Hashtbl.create 64 in
  Hashtbl.add memo (Md.terminal md) (Md.terminal out);
  (* New level of an old node: levels above [l] keep their index, the
     merged level absorbs [l+1], deeper levels shift up by one. *)
  let new_level old_level = if old_level <= l then old_level else old_level - 1 in
  let rec convert id =
    match Hashtbl.find_opt memo id with
    | Some id' -> id'
    | None ->
        let level = Md.node_level md id in
        let entries = ref [] in
        if level = l then
          (* Fuse each formal-sum term with the referenced child's
             entries: ((r, r2), (c, c2)) gets the child's sum scaled by
             the term's coefficient. *)
          Md.iter_node_entries md id (fun r c sum ->
              List.iter
                (fun (child, w) ->
                  Md.iter_node_entries md child (fun r2 c2 sum2 ->
                      let fused =
                        Formal_sum.scale w (Formal_sum.map_children convert sum2)
                      in
                      entries :=
                        ((r * n_low) + r2, (c * n_low) + c2, fused) :: !entries))
                (Formal_sum.terms sum))
        else
          Md.iter_node_entries md id (fun r c sum ->
              entries := (r, c, Formal_sum.map_children convert sum) :: !entries);
        let id' = Md.add_node out ~level:(new_level level) !entries in
        Hashtbl.add memo id id';
        id'
  in
  let root = convert (Md.root md) in
  Md.set_root out root;
  out
