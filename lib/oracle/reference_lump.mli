(** A reference implementation of compositional MD lumping (Figure 3),
    for differential testing of {!Mdl_core.Compositional.lump}.

    It follows the paper literally and shares none of the production
    machinery: no splitter-key cache, no gid interning, no ranked or
    counting-sort pipeline, no singleton skip, no memo and no
    incremental rebuild.  Per level it starts from
    {!Mdl_core.Level_lumping.initial_partition}, iterates the list-based
    {!Refiner_reference} over every live node with the paper's key
    ({!Mdl_core.Local_key.splitter_keys}, compared by
    {!Mdl_core.Local_key.compare_exact}) until a pass changes nothing,
    and canonicalises the class numbering the way
    {!Mdl_core.Level_lumping.comp_lumping_level} does.  The lumped
    diagram is then rebuilt from scratch, one {!Mdl_md.Md.add_node} per
    live node. *)

type mode = Mdl_lumping.State_lumping.mode = Ordinary | Exact

val level_partition :
  ?key:Mdl_core.Local_key.choice ->
  mode ->
  Mdl_md.Md.t ->
  level:int ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** The fixed point of [CompLumpingLevel] (Figure 3(a)) from [initial]:
    the coarsest refinement of [initial] that every live node of the
    level leaves stable, canonically numbered.  [key] defaults to
    {!Mdl_core.Local_key.Formal_sums}. *)

val rebuild :
  mode -> Mdl_md.Md.t -> Mdl_partition.Partition.t array -> Mdl_md.Md.t
(** The quotient diagram of [md] under one partition per level, every
    node rebuilt entry by entry through {!Mdl_md.Md.add_node}: ordinary
    mode takes representative rows and class-summed columns, exact mode
    the aggregated form scaled by [1 / |C_row|]. *)

val lump :
  ?key:Mdl_core.Local_key.choice ->
  mode ->
  Mdl_md.Md.t ->
  rewards:Mdl_core.Decomposed.t list ->
  initial:Mdl_core.Decomposed.t ->
  Mdl_core.Compositional.result
(** [CompositionalLump] (Figure 3(b)): {!level_partition} at every level,
    then {!rebuild}.  Must produce the partitions of
    {!Mdl_core.Compositional.lump} on the same arguments and an
    [Md.equal] lumped diagram. *)
