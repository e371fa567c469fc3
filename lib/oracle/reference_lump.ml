module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Local_key = Mdl_core.Local_key
module Level_lumping = Mdl_core.Level_lumping
module Compositional = Mdl_core.Compositional

type mode = Mdl_lumping.State_lumping.mode = Ordinary | Exact

(* Keys come out of [Local_key.splitter_keys] quantized and canonical,
   so exact structural comparison is lumping-key equality. *)
let node_spec ctx key mode md node =
  {
    Refiner.size = Md.size md (Md.node_level md node);
    key_compare = Local_key.compare_exact;
    splitter_keys = (fun c -> Local_key.splitter_keys ctx key mode node c);
  }

let level_partition ?(key = Local_key.Formal_sums) mode md ~level ~initial =
  let ctx = Local_key.make_context md in
  let nodes = (Md.live_nodes md).(level - 1) in
  let pass p =
    List.fold_left
      (fun p node ->
        Refiner_reference.comp_lumping (node_spec ctx key mode md node) ~initial:p)
      p nodes
  in
  let rec fix p =
    let p' = pass p in
    if Partition.equal p p' then p' else fix p'
  in
  let p = fix initial in
  (* The canonical numbering [Level_lumping.comp_lumping_level] emits:
     the identity when nothing lumps, first appearance otherwise. *)
  if Partition.num_classes p = Partition.size p then Partition.discrete (Partition.size p)
  else Partition.of_class_assignment (Partition.to_class_assignment p)

let rebuild mode md partitions =
  let out = Md.create ~sizes:(Array.map Partition.num_classes partitions) in
  let node_map = Hashtbl.create 64 in
  Hashtbl.add node_map (Md.terminal md) (Md.terminal out);
  let remap child = Hashtbl.find node_map child in
  let live = Md.live_nodes md in
  for level = Md.levels md downto 1 do
    let p = partitions.(level - 1) in
    List.iter
      (fun node ->
        let entries = ref [] in
        (match mode with
        | Ordinary ->
            (* Representative rows, class-summed columns. *)
            for ci = 0 to Partition.num_classes p - 1 do
              let rep = Partition.representative p ci in
              List.iter
                (fun (c, sum) ->
                  entries :=
                    (ci, Partition.class_of p c, Formal_sum.map_children remap sum)
                    :: !entries)
                (Md.node_row md node rep)
            done
        | Exact ->
            (* Aggregated form: all entries, scaled by 1/|C_row|. *)
            Md.iter_node_entries md node (fun r c sum ->
                let ci = Partition.class_of p r in
                let w = 1.0 /. float_of_int (Partition.class_size p ci) in
                entries :=
                  ( ci,
                    Partition.class_of p c,
                    Formal_sum.scale w (Formal_sum.map_children remap sum) )
                  :: !entries));
        Hashtbl.replace node_map node (Md.add_node out ~level !entries))
      live.(level - 1)
  done;
  Md.set_root out (remap (Md.root md));
  out

let lump ?key mode md ~rewards ~initial =
  let partitions =
    Array.init (Md.levels md) (fun i ->
        let level = i + 1 in
        let p_ini = Level_lumping.initial_partition mode md ~level ~rewards ~initial in
        level_partition ?key mode md ~level ~initial:p_ini)
  in
  { Compositional.lumped = rebuild mode md partitions; partitions }
