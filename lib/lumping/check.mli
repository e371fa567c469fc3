(** Direct (definition-level) lumpability checkers.

    These evaluate the conditions of Theorem 1 literally on a flat rate
    matrix; they are quadratic-ish and exist to validate the partition
    refinement algorithms and the compositional MD lumping in tests. *)

val ordinary :
  ?rewards:Mdl_sparse.Vec.t ->
  Mdl_sparse.Csr.t ->
  Mdl_partition.Partition.t ->
  bool
(** [ordinary r p] — for all classes [C, C'] and states [s, s_hat] in
    [C]: [R(s, C') = R(s_hat, C')], and, when [rewards] is given,
    [r(s) = r(s_hat)] (Theorem 1(a)). *)

val exact :
  ?initial:Mdl_sparse.Vec.t ->
  Mdl_sparse.Csr.t ->
  Mdl_partition.Partition.t ->
  bool
(** [exact r p] — for all classes [C, C'] and states [s, s_hat] in [C]:
    [R(C', s) = R(C', s_hat)], [R(s, S) = R(s_hat, S)], and, when
    [initial] is given, [pi_ini(s) = pi_ini(s_hat)] (Theorem 1(b)). *)
