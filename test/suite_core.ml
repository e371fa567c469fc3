(* Tests for the paper's core contribution: compositional lumping of
   matrix diagrams (Definitions 3/4, Theorems 3/4, Figures 1-3). *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Ctmc = Mdl_ctmc.Ctmc
module Solver = Mdl_ctmc.Solver
module Check = Mdl_lumping.Check
module State_lumping = Mdl_lumping.State_lumping
module Quotient = Mdl_lumping.Quotient
module Formal_sum = Mdl_md.Formal_sum
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Kronecker = Mdl_kron.Kronecker
module Decomposed = Mdl_core.Decomposed
module Local_key = Mdl_core.Local_key
module Level_lumping = Mdl_core.Level_lumping
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Key_cache = Mdl_core.Key_cache
module Refiner = Mdl_partition.Refiner
module Spec = Mdl_oracle.Spec
module Gen_md = Mdl_oracle.Gen_md
module Reference_lump = Mdl_oracle.Reference_lump

let partition_testable = Alcotest.testable Partition.pp Partition.equal

(* ----- Decomposed functions ----- *)

let test_decomposed_of_level () =
  let sizes = [| 2; 3 |] in
  let d = Decomposed.of_level ~sizes ~level:2 (fun s -> float_of_int (s * s)) in
  Alcotest.(check (float 0.0)) "eval" 4.0 (Decomposed.eval d [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "factor" 1.0 (Decomposed.factor d 2 1);
  Alcotest.(check (float 0.0)) "other level factor" 0.0 (Decomposed.factor d 1 1)

let test_decomposed_point () =
  let sizes = [| 2; 2 |] in
  let d = Decomposed.point ~sizes [| 1; 0 |] in
  Alcotest.(check (float 0.0)) "at point" 1.0 (Decomposed.eval d [| 1; 0 |]);
  Alcotest.(check (float 0.0)) "off point" 0.0 (Decomposed.eval d [| 1; 1 |]);
  Alcotest.(check (float 0.0)) "off point" 0.0 (Decomposed.eval d [| 0; 0 |])

let test_decomposed_constant_and_vector () =
  let sizes = [| 2; 2 |] in
  let d = Decomposed.constant ~sizes 7.0 in
  let ss = Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 1; 1 |] ] in
  Alcotest.(check bool) "vector" true
    (Vec.approx_equal (Decomposed.to_vector d ss) [| 7.0; 7.0 |])

(* ----- single-level MDs: MD lumping must equal flat state lumping ----- *)

let md_of_flat r =
  let n = Csr.rows r in
  let md = Md.create ~sizes:[| n |] in
  let entries = ref [] in
  Csr.iter (fun i j v -> entries := (i, j, Md.scalar_sum md v) :: !entries) r;
  let root = Md.add_node md ~level:1 !entries in
  Md.set_root md root;
  md

let gen_chain =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* triplets =
      list_size (int_range 1 14)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
           (map (fun k -> float_of_int (k + 1)) (int_range 0 1)))
    in
    return (n, triplets))

let arb_chain =
  QCheck.make
    ~print:(fun (n, t) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat ";" (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%g)" i j v) t)))
    gen_chain

let test_single_level_ordinary =
  QCheck.Test.make ~count:150 ~name:"1-level MD lumping = flat ordinary lumping" arb_chain
    (fun (n, t) ->
      let r = Csr.of_triplets ~rows:n ~cols:n t in
      let md = md_of_flat r in
      let flat = State_lumping.coarsest Ordinary r ~initial:(Partition.trivial n) in
      let local =
        Level_lumping.comp_lumping_level Ordinary md ~level:1
          ~initial:(Partition.trivial n)
      in
      Partition.equal flat local)

let test_single_level_exact =
  QCheck.Test.make ~count:150 ~name:"1-level MD lumping = flat exact lumping" arb_chain
    (fun (n, t) ->
      let r = Csr.of_triplets ~rows:n ~cols:n t in
      let md = md_of_flat r in
      let initial =
        Partition.group_by n
          (fun s -> Csr.row_sum r s)
          (fun a b -> Mdl_util.Floatx.compare_approx a b)
      in
      let flat = State_lumping.coarsest Exact r ~initial in
      let local = Level_lumping.comp_lumping_level Exact md ~level:1 ~initial in
      Partition.equal flat local)

(* ----- multi-level: random Kronecker descriptors with symmetries ----- *)

(* Local matrices that commute with a state swap generate lumpable
   levels.  We build each local matrix and then symmetrise it under the
   transposition of the last two states (when the level has >= 2
   states), so that those two states behave identically. *)
let symmetrise n m =
  if n < 2 then m
  else begin
    let swap s = if s = n - 1 then n - 2 else if s = n - 2 then n - 1 else s in
    let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
    Csr.iter
      (fun i j v ->
        Mdl_sparse.Coo.add coo i j (v /. 2.0);
        Mdl_sparse.Coo.add coo (swap i) (swap j) (v /. 2.0))
      m;
    Csr.of_coo coo
  end

let build_symmetric_descriptor (sizes, nevents, seed) =
  let rng_state = Random.State.make [| seed |] in
  let gen_local n =
    let entry =
      QCheck.Gen.(triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 2))
    in
    let l =
      QCheck.Gen.generate1 ~rand:rng_state
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 (n * 2)) entry)
    in
    symmetrise n
      (Csr.of_triplets ~rows:n ~cols:n (List.map (fun (i, j, v) -> (i, j, float_of_int v)) l))
  in
  let events =
    List.init nevents (fun i ->
        {
          Kronecker.label = Printf.sprintf "e%d" i;
          rate = float_of_int (1 + (i mod 2));
          locals = Array.map gen_local sizes;
        })
  in
  Kronecker.make ~sizes events

let gen_sym_descriptor =
  QCheck.Gen.(
    let* nlevels = int_range 1 3 in
    let* sizes = array_size (return nlevels) (int_range 2 3) in
    let* nevents = int_range 1 3 in
    let* seed = int_range 0 1_000_000 in
    return (sizes, nevents, seed))

let arb_sym_descriptor =
  QCheck.make
    ~print:(fun (sizes, nevents, seed) ->
      Printf.sprintf "sizes=[%s] events=%d seed=%d"
        (String.concat ";" (List.map string_of_int (Array.to_list sizes)))
        nevents seed)
    gen_sym_descriptor

(* Global partition over the potential product space induced by
   per-level partitions. *)
let global_partition md partitions =
  let nlevels = Md.levels md in
  let sizes = Md.sizes md in
  let n = Array.fold_left ( * ) 1 sizes in
  let assignment = Array.make n 0 in
  let tuple_of idx =
    let t = Array.make nlevels 0 in
    let rem = ref idx in
    for l = nlevels - 1 downto 0 do
      t.(l) <- !rem mod sizes.(l);
      rem := !rem / sizes.(l)
    done;
    t
  in
  (* class id = mixed-radix over class tuples *)
  let class_sizes = Array.map Partition.num_classes partitions in
  for idx = 0 to n - 1 do
    let t = tuple_of idx in
    let acc = ref 0 in
    for l = 0 to nlevels - 1 do
      acc := (!acc * class_sizes.(l)) + Partition.class_of partitions.(l) t.(l)
    done;
    assignment.(idx) <- !acc
  done;
  Partition.of_class_assignment assignment

let test_theorem3_global_ordinary =
  QCheck.Test.make ~count:100
    ~name:"Theorem 3: locally lumped partitions are globally ordinarily lumpable"
    arb_sym_descriptor (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let sizes = Kronecker.sizes k in
      let rewards = [ Decomposed.constant ~sizes 0.0 ] in
      let initial = Decomposed.constant ~sizes 1.0 in
      let result = Compositional.lump Ordinary md ~rewards ~initial in
      let flat = Md.to_csr md in
      let gp = global_partition md result.Compositional.partitions in
      Check.ordinary flat gp)

let test_theorem4_global_exact =
  QCheck.Test.make ~count:100
    ~name:"Theorem 4: locally lumped partitions are globally exactly lumpable"
    arb_sym_descriptor (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let sizes = Kronecker.sizes k in
      let rewards = [ Decomposed.constant ~sizes 0.0 ] in
      let initial = Decomposed.constant ~sizes 1.0 in
      let result = Compositional.lump Exact md ~rewards ~initial in
      let flat = Md.to_csr md in
      let gp = global_partition md result.Compositional.partitions in
      Check.exact flat gp)

let test_lumped_md_is_quotient_ordinary =
  QCheck.Test.make ~count:100
    ~name:"lumped MD represents the Theorem-2 quotient (ordinary)" arb_sym_descriptor
    (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let sizes = Kronecker.sizes k in
      let rewards = [ Decomposed.constant ~sizes 0.0 ] in
      let initial = Decomposed.constant ~sizes 1.0 in
      let result = Compositional.lump Ordinary md ~rewards ~initial in
      let flat = Md.to_csr md in
      let lumped_flat = Md.to_csr result.Compositional.lumped in
      (* Compare entrywise: lumped(ci_tuple, cj_tuple) must equal
         R(rep_i, C_j) where rep/classes come from the per-level
         partitions. *)
      let nlevels = Md.levels md in
      let msizes = Md.sizes md in
      let csizes = Array.map Partition.num_classes result.Compositional.partitions in
      let nc = Array.fold_left ( * ) 1 csizes in
      let tuple_of sizes idx =
        let t = Array.make nlevels 0 in
        let rem = ref idx in
        for l = nlevels - 1 downto 0 do
          t.(l) <- !rem mod sizes.(l);
          rem := !rem / sizes.(l)
        done;
        t
      in
      let index_of sizes t =
        let acc = ref 0 in
        for l = 0 to nlevels - 1 do
          acc := (!acc * sizes.(l)) + t.(l)
        done;
        !acc
      in
      let ok = ref true in
      for ci = 0 to nc - 1 do
        let ci_t = tuple_of csizes ci in
        let rep =
          Array.mapi
            (fun l c -> Partition.representative result.Compositional.partitions.(l) c)
            ci_t
        in
        let rep_idx = index_of msizes rep in
        for cj = 0 to nc - 1 do
          let cj_t = tuple_of csizes cj in
          (* R(rep, C_j): sum over all members of the global class cj *)
          let members_product =
            Array.to_list cj_t
            |> List.mapi (fun l c ->
                   Array.to_list (Partition.elements result.Compositional.partitions.(l) c))
          in
          let rec expand acc = function
            | [] -> [ List.rev acc ]
            | states :: rest -> List.concat_map (fun s -> expand (s :: acc) rest) states
          in
          let total =
            List.fold_left
              (fun acc member ->
                acc +. Csr.get flat rep_idx (index_of msizes (Array.of_list member)))
              0.0
              (expand [] members_product)
          in
          if not (Mdl_util.Floatx.approx_eq total (Csr.get lumped_flat ci cj)) then
            ok := false
        done
      done;
      !ok)

(* ----- a concrete 2-level example with known structure -----

   Level 1: a 2-state "controller"; level 2: 3 "workers" collapsed into
   one level of size 3 where workers 1 and 2 are symmetric.  *)
let concrete_md () =
  let sizes = [| 2; 3 |] in
  let move_01 = Csr.of_dense [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  let move_10 = Csr.of_dense [| [| 0.; 0. |]; [| 1.; 0. |] |] in
  let work =
    (* worker state 0 -> 1 or 2 symmetrically, 1,2 -> 0 *)
    Csr.of_dense [| [| 0.; 1.; 1. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |]
  in
  let k =
    Kronecker.make ~sizes
      [
        { Kronecker.label = "up"; rate = 2.0; locals = [| move_01; Csr.identity 3 |] };
        { Kronecker.label = "down"; rate = 1.0; locals = [| move_10; Csr.identity 3 |] };
        { Kronecker.label = "work"; rate = 3.0; locals = [| Csr.identity 2; work |] };
      ]
  in
  (Gen_md.event_chains k, sizes)

let test_concrete_lump () =
  let md, sizes = concrete_md () in
  let rewards = [ Decomposed.constant ~sizes 1.0 ] in
  let initial = Decomposed.constant ~sizes 1.0 in
  let result = Compositional.lump Ordinary md ~rewards ~initial in
  (* level 1 cannot lump (states 0,1 asymmetric: different rates) ;
     level 2 lumps workers 1,2 *)
  Alcotest.(check int) "level1 classes" 2
    (Partition.num_classes result.Compositional.partitions.(0));
  Alcotest.check partition_testable "level2 partition"
    (Partition.of_class_assignment [| 0; 1; 1 |])
    result.Compositional.partitions.(1);
  Alcotest.(check int) "lumped level2 size" 2 (Md.size result.Compositional.lumped 2);
  (* the lumped MD must be globally lumpable-consistent *)
  let flat = Md.to_csr md in
  let gp = global_partition md result.Compositional.partitions in
  Alcotest.(check bool) "global ordinary" true (Check.ordinary flat gp)

let test_local_lumpability_checker () =
  let md, _sizes = concrete_md () in
  Alcotest.(check bool) "good partition accepted" true
    (Level_lumping.is_locally_lumpable Ordinary md ~level:2
       (Partition.of_class_assignment [| 0; 1; 1 |]));
  Alcotest.(check bool) "bad partition rejected" false
    (Level_lumping.is_locally_lumpable Ordinary md ~level:2
       (Partition.of_class_assignment [| 0; 0; 1 |]))

let test_lumped_md_is_quotient_exact =
  QCheck.Test.make ~count:80
    ~name:"lumped MD represents the aggregated quotient (exact)" arb_sym_descriptor
    (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let sizes = Kronecker.sizes k in
      let rewards = [ Decomposed.constant ~sizes 0.0 ] in
      let initial = Decomposed.constant ~sizes 1.0 in
      let result = Compositional.lump Exact md ~rewards ~initial in
      let flat = Md.to_csr md in
      let gp = global_partition md result.Compositional.partitions in
      (* The flattened lumped MD must equal the flat aggregated exact
         quotient R(C_i, C_j)/|C_i| up to the class relabelling used by
         global_partition (classes numbered by first appearance vs
         mixed-radix class tuples).  Compare entrywise through the
         shared class map. *)
      let lumped_flat = Md.to_csr result.Compositional.lumped in
      let quotient = Quotient.rates Exact flat gp in
      (* map: mixed-radix class-tuple index -> global_partition class id *)
      let nlevels = Md.levels md in
      let msizes = Md.sizes md in
      let csizes = Array.map Partition.num_classes result.Compositional.partitions in
      let n = Array.fold_left ( * ) 1 msizes in
      let tuple_of idx =
        let t = Array.make nlevels 0 in
        let rem = ref idx in
        for l = nlevels - 1 downto 0 do
          t.(l) <- !rem mod msizes.(l);
          rem := !rem / msizes.(l)
        done;
        t
      in
      let class_index_of_state idx =
        let t = tuple_of idx in
        let acc = ref 0 in
        for l = 0 to nlevels - 1 do
          acc :=
            (!acc * csizes.(l)) + Partition.class_of result.Compositional.partitions.(l) t.(l)
        done;
        !acc
      in
      let ok = ref true in
      for s = 0 to n - 1 do
        let ct = class_index_of_state s in
        let gc = Partition.class_of gp s in
        (* check one full row of the two quotients agrees *)
        for s' = 0 to n - 1 do
          let ct' = class_index_of_state s' in
          let gc' = Partition.class_of gp s' in
          if
            not
              (Mdl_util.Floatx.approx_eq
                 (Csr.get lumped_flat ct ct')
                 (Csr.get quotient gc gc'))
          then ok := false
        done
      done;
      !ok)

let test_expanded_matrices_key_at_least_as_coarse =
  QCheck.Test.make ~count:60 ~name:"expanded-matrix key at least as coarse as formal sums"
    arb_sym_descriptor (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let ok = ref true in
      for level = 1 to Md.levels md do
        let n = Md.size md level in
        let p_formal =
          Level_lumping.comp_lumping_level ~key:Local_key.Formal_sums Ordinary md ~level
            ~initial:(Partition.trivial n)
        in
        let p_expanded =
          Level_lumping.comp_lumping_level ~key:Local_key.Expanded_matrices Ordinary md
            ~level ~initial:(Partition.trivial n)
        in
        if not (Partition.is_refinement_of p_formal p_expanded) then ok := false
      done;
      !ok)

let test_sufficiency_gap () =
  (* Section 4: formal-sum keys are only sufficient - "a weighted sum of
     matrices may be equal even if the individual terms differ".  Build
     an MD whose root rows denote equal matrices through different
     formal sums: row 0 references node A = [2] with coefficient 1, row
     1 references node B = [1] with coefficient 2.  The expanded-matrix
     key detects the lump; the formal-sum key cannot. *)
  let md = Md.create ~sizes:[| 2; 1 |] in
  let a = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 2.0) ] in
  let b = Md.add_node md ~level:2 [ (0, 0, Md.scalar_sum md 1.0) ] in
  let root =
    Md.add_node md ~level:1
      [ (0, 0, Formal_sum.singleton a 1.0); (1, 1, Formal_sum.singleton b 2.0) ]
  in
  Md.set_root md root;
  let initial = Partition.trivial 2 in
  let p_formal =
    Level_lumping.comp_lumping_level ~key:Local_key.Formal_sums Ordinary md ~level:1
      ~initial
  in
  let p_expanded =
    Level_lumping.comp_lumping_level ~key:Local_key.Expanded_matrices Ordinary md
      ~level:1 ~initial
  in
  Alcotest.(check int) "formal key over-splits" 2 (Partition.num_classes p_formal);
  Alcotest.(check int) "expanded key finds the lump" 1 (Partition.num_classes p_expanded);
  (* The expanded result is genuinely lumpable on the flat chain. *)
  let flat = Md.to_csr md in
  Alcotest.(check bool) "flat chain confirms" true
    (Check.ordinary flat (Partition.of_class_assignment [| 0; 0 |]));
  (* Canonical normalisation (Miner [15]) closes this particular gap.
     The same matrix from a descriptor whose two events have
     proportional level-2 suffixes: its canonical diagram shares one
     level-2 node, and the cheap formal-sum key then finds the lump
     too. *)
  let point r = Csr.of_triplets ~rows:2 ~cols:2 [ (r, r, 1.0) ] in
  let scalar v = Csr.of_triplets ~rows:1 ~cols:1 [ (0, 0, v) ] in
  let k =
    Kronecker.make ~sizes:[| 2; 1 |]
      [
        { Kronecker.label = "a"; rate = 1.0; locals = [| point 0; scalar 2.0 |] };
        { Kronecker.label = "b"; rate = 2.0; locals = [| point 1; scalar 1.0 |] };
      ]
  in
  let normalized = Kronecker.to_md k in
  Alcotest.(check bool) "same matrix" true (Csr.equal flat (Md.to_csr normalized));
  let p_norm =
    Level_lumping.comp_lumping_level ~key:Local_key.Formal_sums Ordinary normalized
      ~level:1 ~initial
  in
  Alcotest.(check int) "formal key succeeds after normalize" 1
    (Partition.num_classes p_norm)

(* ----- class closure of a reachable set ----- *)

let test_is_closed_partly_reachable_class () =
  let md, _ = concrete_md () in
  let result =
    Compositional.lump_with_partitions Ordinary md
      [| Partition.of_class_assignment [| 0; 1 |]; Partition.of_class_assignment [| 0; 1; 1 |] |]
  in
  (* Workers 1 and 2 form one class: with (0,1) but not (0,2) reachable,
     the class (0, {1,2}) is only half reachable. *)
  let partly =
    Statespace.of_tuples ~levels:2 [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 1 |]; [| 1; 2 |] ]
  in
  let image = Compositional.lump_statespace result partly in
  Alcotest.(check int) "image" 3 (Statespace.size image);
  Alcotest.(check bool) "partly reachable class" false
    (Compositional.is_closed result partly image);
  let whole =
    Statespace.of_tuples ~levels:2
      [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 1 |]; [| 1; 2 |] ]
  in
  Alcotest.(check bool) "whole classes" true
    (Compositional.is_closed result whole (Compositional.lump_statespace result whole))

(* [is_closed] by its definition: count the reachable states of each
   class tuple, and compare every count with the class volume. *)
let reference_is_closed r ss =
  let counts = Hashtbl.create 64 in
  Statespace.iter
    (fun _ s ->
      let ct = Compositional.class_tuple r s in
      Hashtbl.replace counts ct (1 + Option.value ~default:0 (Hashtbl.find_opt counts ct)))
    ss;
  Hashtbl.fold (fun ct n ok -> ok && n = Compositional.class_volume r ct) counts true

let test_is_closed_matches_class_counts =
  QCheck.Test.make ~count:200 ~name:"is_closed matches the per-class counts"
    QCheck.(pair arb_sym_descriptor (pair bool (int_bound 1_000_000)))
    (fun (spec, (by_class, seed)) ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let sizes = Kronecker.sizes k in
      let r =
        Compositional.lump Ordinary md
          ~rewards:[ Decomposed.constant ~sizes 0.0 ]
          ~initial:(Decomposed.constant ~sizes 1.0)
      in
      (* A random subset of the product space, or (when [by_class]) a
         random union of whole classes, closed by construction. *)
      let rng = Mdl_util.Prng.of_seed seed in
      let kept_classes = Hashtbl.create 16 in
      let keep s =
        if not by_class then Mdl_util.Prng.bool rng
        else
          let ct = Compositional.class_tuple r s in
          match Hashtbl.find_opt kept_classes ct with
          | Some b -> b
          | None ->
              let b = Mdl_util.Prng.bool rng in
              Hashtbl.add kept_classes ct b;
              b
      in
      let states = ref [] in
      let rec walk l prefix =
        if l = Array.length sizes then begin
          let s = Array.of_list (List.rev prefix) in
          if keep s then states := s :: !states
        end
        else
          for v = 0 to sizes.(l) - 1 do
            walk (l + 1) (v :: prefix)
          done
      in
      walk 0 [];
      match !states with
      | [] -> true
      | states ->
          let ss = Statespace.of_tuples ~levels:(Array.length sizes) states in
          let closed = Compositional.is_closed r ss (Compositional.lump_statespace r ss) in
          closed = reference_is_closed r ss && ((not by_class) || closed))

(* ----- end-to-end: solve lumped vs unlumped over a reachable space ----- *)

let test_end_to_end_solution () =
  let md, sizes = concrete_md () in
  (* The full product space is reachable for this model. *)
  let tuples = ref [] in
  for a = 0 to sizes.(0) - 1 do
    for b = 0 to sizes.(1) - 1 do
      tuples := [| a; b |] :: !tuples
    done
  done;
  let ss = Statespace.of_tuples ~levels:2 !tuples in
  let rewards_d = Decomposed.of_level ~sizes ~level:2 (fun s -> if s = 0 then 1.0 else 0.0) in
  let initial_d = Decomposed.constant ~sizes 1.0 in
  let result = Compositional.lump Ordinary md ~rewards:[ rewards_d ] ~initial:initial_d in
  let lumped_ss = Compositional.lump_statespace result ss in
  Alcotest.(check bool) "closure" true (Compositional.is_closed result ss lumped_ss);
  Alcotest.(check bool) "lumped smaller" true
    (Statespace.size lumped_ss < Statespace.size ss);
  (* stationary of original vs lumped *)
  let pi, st1 = Md_solve.steady_state ~tol:1e-13 md ss in
  let pi_l, st2 =
    Md_solve.steady_state ~tol:1e-13 result.Compositional.lumped lumped_ss
  in
  Alcotest.(check bool) "solvers converged" true
    (st1.Solver.converged && st2.Solver.converged);
  Alcotest.(check bool) "aggregation matches" true
    (Vec.diff_inf (Compositional.aggregate_vector result ss lumped_ss pi) pi_l < 1e-7);
  (* reward preserved *)
  let r_orig = Solver.expected_reward pi (Decomposed.to_vector rewards_d ss) in
  let r_lumped =
    Solver.expected_reward pi_l
      (Decomposed.to_vector (Compositional.lumped_rewards result rewards_d) lumped_ss)
  in
  Alcotest.(check (float 1e-8)) "reward preserved" r_orig r_lumped

let test_level_merging_exposes_cross_level_symmetry () =
  (* Two identical 3-state machines assigned to different levels: the
     per-level conditions see no symmetry (each level is a single
     machine), but after merging the two levels into one, the machine
     swap becomes an intra-level symmetry and the compositional
     algorithm lumps it - the scenario the paper defers to model-level
     lumping [10], recovered here by restructuring. *)
  let machine =
    Csr.of_dense [| [| 0.; 1.; 0. |]; [| 0.; 0.; 2. |]; [| 3.; 0.; 0. |] |]
  in
  let i3 = Csr.identity 3 in
  let k =
    Kronecker.make ~sizes:[| 3; 3 |]
      [
        { Kronecker.label = "m1"; rate = 1.0; locals = [| machine; i3 |] };
        { Kronecker.label = "m2"; rate = 1.0; locals = [| i3; machine |] };
      ]
  in
  let md = Kronecker.to_md k in
  let lump_level_sizes m =
    let sizes = Md.sizes m in
    let rewards = [ Decomposed.constant ~sizes 1.0 ] in
    let initial = Decomposed.constant ~sizes 1.0 in
    let result = Compositional.lump Ordinary m ~rewards ~initial in
    Array.map Partition.num_classes result.Compositional.partitions
  in
  (* Separate levels: no lumping possible within either level. *)
  Alcotest.(check (array int)) "no per-level symmetry" [| 3; 3 |] (lump_level_sizes md);
  (* Merged: 9 pair-states lump to the 6 unordered multisets. *)
  let merged = Mdl_md.Restructure.merge_adjacent md 1 in
  Alcotest.(check (array int)) "merged level lumps" [| 6 |] (lump_level_sizes merged);
  (* And the lumped merged chain is a correct ordinary lumping of the
     flat chain. *)
  let sizes = Md.sizes merged in
  let rewards = [ Decomposed.constant ~sizes 1.0 ] in
  let initial = Decomposed.constant ~sizes 1.0 in
  let result = Compositional.lump Ordinary merged ~rewards ~initial in
  let gp = global_partition merged result.Compositional.partitions in
  Alcotest.(check bool) "globally lumpable" true (Check.ordinary (Md.to_csr merged) gp)

let test_md_solve_matches_flat () =
  let md, sizes = concrete_md () in
  ignore sizes;
  let tuples = ref [] in
  for a = 0 to 1 do
    for b = 0 to 2 do
      tuples := [| a; b |] :: !tuples
    done
  done;
  let ss = Statespace.of_tuples ~levels:2 !tuples in
  let pi_md, _ = Md_solve.steady_state ~tol:1e-13 md ss in
  let ctmc = Md_solve.ctmc_of md ss in
  let pi_flat, _ = Solver.steady_state ~tol:1e-13 ctmc in
  Alcotest.(check bool) "md solver = flat solver" true (Vec.diff_inf pi_md pi_flat < 1e-8)

(* ----- the production level pipeline vs the generic reference ----- *)

(* [comp_lumping_level] interns every splitter key to a gid through its
   key cache and refines with the ranked pipeline; the reference fixed
   point runs the generic list-based engine over the raw keys, compared
   by [Local_key.compare_exact].  At every level, in both modes and with
   both key choices, they must reach the same partition under the same
   canonical class numbering (the numbering the rebuild reads). *)
let test_level_pipeline_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"interned level pipeline matches generic at every level (both modes)"
    arb_sym_descriptor (fun spec ->
      let k = build_symmetric_descriptor spec in
      let md = Gen_md.event_chains k in
      let ok = ref true in
      List.iter
        (fun (mode, key) ->
          for level = 1 to Md.levels md do
            let initial = Partition.trivial (Md.size md level) in
            let p = Level_lumping.comp_lumping_level ~key mode md ~level ~initial in
            let p_ref = Reference_lump.level_partition ~key mode md ~level ~initial in
            if Partition.to_class_assignment p <> Partition.to_class_assignment p_ref
            then ok := false
          done)
        [
          (State_lumping.Ordinary, Local_key.Formal_sums);
          (State_lumping.Ordinary, Local_key.Expanded_matrices);
          (State_lumping.Exact, Local_key.Formal_sums);
          (State_lumping.Exact, Local_key.Expanded_matrices);
        ];
      !ok)

let test_level_intern_table_reuse () =
  (* One cache's global gid table serves every run of a level's fixed
     point: re-running the same fixed point after a rebind (the memoised
     rows are gone) must find every key already interned — the table
     does not grow — and compute the same partition as the reference
     fixed point. *)
  let md, _sizes = concrete_md () in
  let level = 2 in
  let n = Md.size md level in
  let cache = Key_cache.create () in
  let run () =
    Key_cache.bind ~choice:Local_key.Formal_sums ~mode:State_lumping.Ordinary cache md;
    Level_lumping.comp_lumping_level ~cache State_lumping.Ordinary md ~level
      ~initial:(Partition.trivial n)
  in
  let p1 = run () in
  let size1 = Key_cache.gid_count cache in
  let p2 = run () in
  let size2 = Key_cache.gid_count cache in
  Alcotest.check partition_testable "same fixed point on reuse" p1 p2;
  Alcotest.(check int) "gid table stable across reuse" size1 size2;
  Alcotest.(check bool) "some keys interned" true (size1 > 0);
  Alcotest.check partition_testable "matches the reference fixed point"
    (Reference_lump.level_partition State_lumping.Ordinary md ~level
       ~initial:(Partition.trivial n))
    p1

(* ----- the production lump vs the oracle's reference lumper ----- *)

let lump_inputs md =
  let sizes = Md.sizes md in
  ([ Decomposed.constant ~sizes 0.0 ], Decomposed.constant ~sizes 1.0)

(* The central parity property of the single production path — key
   cache, ranked pipeline, singleton skip, memos, incremental rebuild —
   against the uncached reference lumper, which has none of them: equal
   per-level partitions and a structurally equal lumped diagram
   (coefficients bit-exact).  Exercised over all three oracle families
   (flat chains, Kronecker compilations, free-form direct diagrams),
   both lumping modes and both key choices, with an indicator reward on
   the last level and an indicator initial distribution on the first so
   that the initial partitions are not trivial. *)
let test_lump_matches_reference =
  QCheck.Test.make ~count:40
    ~name:
      "memoised lump = uncached lump (diagram, partitions): Compositional.lump vs the \
       reference lumper, all model families, both modes and both keys"
    (Mdl_oracle.Qcheck_gen.model ()) (fun spec ->
      let md = Gen_md.of_spec spec in
      let sizes = Md.sizes md in
      let levels = Array.length sizes in
      let rewards =
        [ Decomposed.of_level ~sizes ~level:levels (fun s -> if s = 0 then 1.0 else 0.0) ]
      in
      let initial =
        Decomposed.of_level ~sizes ~level:1 (fun s -> if s = 0 then 1.0 else 0.0)
      in
      List.for_all
        (fun (mode, key) ->
          let r = Compositional.lump ~key mode md ~rewards ~initial in
          let r_ref = Reference_lump.lump ~key mode md ~rewards ~initial in
          Array.for_all2 Partition.equal r.Compositional.partitions
            r_ref.Compositional.partitions
          && Md.equal r.Compositional.lumped r_ref.Compositional.lumped)
        [
          (State_lumping.Ordinary, Local_key.Formal_sums);
          (State_lumping.Ordinary, Local_key.Expanded_matrices);
          (State_lumping.Exact, Local_key.Formal_sums);
          (State_lumping.Exact, Local_key.Expanded_matrices);
        ])

(* One run per level with tuple keys must reach a partition that is
   stable for every live node on its own — the post-condition of
   Figure 3(a)'s per-node fixed point, checked by the direct,
   uncached stability test (and, in exact mode, constant full-row
   sums). *)
let test_level_partition_locally_lumpable =
  QCheck.Test.make ~count:60
    ~name:"engine level partitions are locally lumpable at every node (both modes)"
    (Mdl_oracle.Qcheck_gen.model ()) (fun spec ->
      let md = Gen_md.of_spec spec in
      let sizes = Md.sizes md in
      let levels = Array.length sizes in
      let rewards =
        [ Decomposed.of_level ~sizes ~level:levels (fun s -> if s = 0 then 1.0 else 0.0) ]
      in
      let initial =
        Decomposed.of_level ~sizes ~level:1 (fun s -> if s = 0 then 1.0 else 0.0)
      in
      List.for_all
        (fun mode ->
          let r = Compositional.lump mode md ~rewards ~initial in
          let ok = ref true in
          Array.iteri
            (fun i p ->
              if not (Level_lumping.is_locally_lumpable mode md ~level:(i + 1) p) then
                ok := false)
            r.Compositional.partitions;
          !ok)
        [ State_lumping.Ordinary; State_lumping.Exact ])

let test_key_cache_invalidation () =
  (* A rebind to the same diagram keeps the level's intern table: the
     same splitter step evaluates to the same (states, gids) rows and
     interns nothing new.  An unbound cache hands out no level record. *)
  let md, _sizes = concrete_md () in
  let kc = Key_cache.create () in
  let bind () =
    Key_cache.bind ~choice:Local_key.Formal_sums ~mode:State_lumping.Ordinary kc md
  in
  let level = 2 in
  let p = Partition.trivial 3 in
  let lookup () =
    Key_cache.splitter_keys (Key_cache.for_level kc level) (Partition.view p 0)
  in
  bind ();
  let r1 = lookup () in
  let interned = Key_cache.gid_count kc in
  Alcotest.(check bool) "keys interned" true (interned > 0);
  bind ();
  let r2 = lookup () in
  Alcotest.(check int) "rebind keeps the gid table" interned (Key_cache.gid_count kc);
  Alcotest.(check bool) "same rows after the rebind" true (r1 = r2);
  Alcotest.check_raises "unbound cache has no level records"
    (Invalid_argument "Key_cache.for_level: cache not bound to a diagram (use bind)")
    (fun () -> ignore (Key_cache.for_level (Key_cache.create ()) level))

let test_singleton_skip () =
  (* Key evaluation may skip the states alone in their run-start class:
     a class of one never splits.  The ranked pipeline over the cache's
     level keys, with and without that skip, must reach the same fixed
     point in the same number of splitter passes, with strictly fewer
     key evaluations when skipping. *)
  let md, _sizes = concrete_md () in
  let level = 2 in
  let initial = Partition.of_class_assignment [| 0; 0; 1 |] in
  let singleton s = Partition.class_size initial (Partition.class_of initial s) = 1 in
  let run ?skip () =
    let cache = Key_cache.create () in
    Key_cache.bind ~choice:Local_key.Formal_sums ~mode:State_lumping.Ordinary cache md;
    let rspec =
      {
        Refiner.rsize = Md.size md level;
        rsplitter_keys = Key_cache.splitter_keys ?skip (Key_cache.for_level cache level);
      }
    in
    Counters.of_run [ "refiner.splitter_passes"; "refiner.key_evals" ] (fun () ->
        Refiner.comp_lumping_ranked rspec ~initial)
  in
  let p_all, all = run () in
  let p_skip, skip = run ~skip:singleton () in
  Alcotest.check partition_testable "same fixed point" p_all p_skip;
  Alcotest.(check int) "same splitter pass count" (all "refiner.splitter_passes")
    (skip "refiner.splitter_passes");
  Alcotest.(check bool) "singleton keys skipped" true
    (skip "refiner.key_evals" < all "refiner.key_evals")

let test_shared_cache_across_models () =
  (* One cache across a sweep of different diagrams (the bench
     arrangement): every model must come out exactly as with a private
     fresh cache, and the gid table keeps growing monotonically. *)
  let cache = Key_cache.create () in
  let models =
    [
      Gen_md.of_spec (Spec.Direct { sizes = [| 3; 2; 2 |]; width = 2; symmetric = true; seed = 5 });
      (let md, _ = concrete_md () in
       md);
      Gen_md.of_spec (Spec.Direct { sizes = [| 2; 4 |]; width = 3; symmetric = false; seed = 11 });
    ]
  in
  let hw = ref 0 in
  List.iter
    (fun md ->
      let rewards, initial = lump_inputs md in
      let r_shared =
        Compositional.lump ~cache State_lumping.Ordinary md ~rewards ~initial
      in
      let r_fresh = Compositional.lump State_lumping.Ordinary md ~rewards ~initial in
      Alcotest.(check bool) "shared cache: same lumped diagram" true
        (Md.equal r_shared.Compositional.lumped r_fresh.Compositional.lumped);
      Array.iteri
        (fun i p ->
          Alcotest.check partition_testable
            (Printf.sprintf "shared cache: level %d partition" (i + 1))
            p
            r_shared.Compositional.partitions.(i))
        r_fresh.Compositional.partitions;
      (match
         Key_cache.bound_md ~choice:Local_key.Formal_sums ~mode:State_lumping.Ordinary cache
       with
      | Some bound -> Alcotest.(check bool) "cache rebound to the model" true (bound == md)
      | None -> Alcotest.fail "cache unbound after lump");
      let hw' = Key_cache.gid_count cache in
      Alcotest.(check bool) "gid table never shrinks" true (hw' >= !hw);
      hw := hw')
    models

let test_cache_config_contract () =
  (* The (key choice, lumping mode) of a cache's rows are recorded at
     first bind; a later bind, or a level fixed point handed the bound
     cache, under a different configuration must be refused, not
     silently served rows computed under the old one. *)
  let config_mismatch =
    Invalid_argument
      "Key_cache: key choice / lumping mode differ from the configuration recorded at \
       this cache's first bind (use a fresh cache per configuration)"
  in
  let md, _sizes = concrete_md () in
  let rewards, initial = lump_inputs md in
  let cache = Key_cache.create () in
  ignore (Compositional.lump ~cache State_lumping.Ordinary md ~rewards ~initial);
  Alcotest.check_raises "mode change refused" config_mismatch (fun () ->
      ignore (Compositional.lump ~cache State_lumping.Exact md ~rewards ~initial));
  Alcotest.check_raises "key choice change refused" config_mismatch (fun () ->
      Key_cache.bind ~choice:Local_key.Expanded_matrices ~mode:State_lumping.Ordinary
        cache md);
  (* A level fixed point handed the cache, still bound to [md] under
     formal sums, must refuse to refine with expanded-matrix keys. *)
  let level = 2 in
  let raised =
    try
      ignore
        (Level_lumping.comp_lumping_level ~key:Local_key.Expanded_matrices ~cache
           State_lumping.Ordinary md ~level
           ~initial:(Partition.trivial (Md.size md level)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "level key choice change refused" true raised;
  (* The recorded configuration itself keeps working. *)
  ignore (Compositional.lump ~cache State_lumping.Ordinary md ~rewards ~initial)

(* ----- batched sweeps ----- *)

(* A reward/initial family over one diagram: base spec, a threshold
   indicator on the last level, its complement (same class sets, flipped
   class order, so a level-memo miss), a two-indicator point, then a
   repeat of the base point (level-memo and rebuild-memo hits). *)
let sweep_family mode md =
  let sizes = Md.sizes md in
  let level = Array.length sizes in
  let size = sizes.(level - 1) in
  let k = max 1 (size / 2) in
  let ind up =
    Decomposed.of_level ~sizes ~level (fun s ->
        if (if up then s >= k else s < k) then 1.0 else 0.0)
  in
  let scaled = Decomposed.of_level ~sizes ~level:1 (fun s -> float_of_int (s mod 3)) in
  let base_rewards = [ Decomposed.constant ~sizes 0.0 ] in
  let base_initial = Decomposed.constant ~sizes 1.0 in
  match mode with
  | State_lumping.Ordinary ->
      List.map
        (fun rewards -> (rewards, base_initial))
        [
          base_rewards;
          [ ind true ];
          [ ind false ];
          [ ind true; scaled ];
          base_rewards;
        ]
  | State_lumping.Exact ->
      (* Exact mode partitions by the initial distribution (and row
         sums); sweep the initial instead. *)
      List.map
        (fun initial -> (base_rewards, initial))
        [ base_initial; ind true; ind false; scaled; base_initial ]

(* Besides equal results, a point whose levels all miss the fixed-point
   memo must add exactly the refinement counts its independent lump
   adds: the sweep runs the same refinement, singleton skip included. *)
let test_sweep_matches_per_point =
  let counters = [ "refiner.splitter_passes"; "refiner.key_evals"; "refiner.splits" ] in
  QCheck.Test.make ~count:25
    ~name:"lump_sweep = independent lump per point (diagram, partitions)"
    (Mdl_oracle.Qcheck_gen.model ()) (fun spec ->
      let md = Gen_md.of_spec spec in
      let ok = ref true in
      List.iter
        (fun mode ->
          let points = sweep_family mode md in
          let sw = Compositional.sweep_create mode md in
          let swept =
            List.map
              (fun (rewards, initial) ->
                let reused0 = (Compositional.sweep_stats sw).Compositional.level_reused in
                let r, c =
                  Counters.of_run counters (fun () ->
                      Compositional.sweep_point sw ~rewards ~initial)
                in
                let missed = (Compositional.sweep_stats sw).Compositional.level_reused = reused0 in
                (r, missed, List.map c counters))
              points
          in
          let independent =
            List.map
              (fun (rewards, initial) ->
                let r, c =
                  Counters.of_run counters (fun () ->
                      Compositional.lump mode md ~rewards ~initial)
                in
                (r, List.map c counters))
              points
          in
          List.iter2
            (fun (s, missed, s_counts) (i, i_counts) ->
              if not (Md.equal s.Compositional.lumped i.Compositional.lumped) then
                ok := false;
              if
                not
                  (Array.for_all2 Partition.equal s.Compositional.partitions
                     i.Compositional.partitions)
              then ok := false;
              if missed && s_counts <> i_counts then ok := false)
            swept independent)
        [ State_lumping.Ordinary; State_lumping.Exact ];
      !ok)

let test_sweep_reuse_counters () =
  (* The engine's stats must show both memos firing on the family
     designed to exercise them: the repeated base point serves its level
     fixed points and rebuild from the memos.  The cache keeps the keys
     interned across points. *)
  let md, _sizes = concrete_md () in
  let points = sweep_family State_lumping.Ordinary md in
  let sw = Compositional.sweep_create State_lumping.Ordinary md in
  let results =
    List.map
      (fun (rewards, initial) -> Compositional.sweep_point sw ~rewards ~initial)
      points
  in
  let st = Compositional.sweep_stats sw in
  Alcotest.(check int) "every point counted" (List.length points)
    st.Compositional.points;
  Alcotest.(check bool) "level fixpoints reused" true (st.Compositional.level_reused > 0);
  Alcotest.(check bool) "rebuilds reused" true (st.Compositional.rebuilds_reused > 0);
  Alcotest.(check bool) "keys interned" true
    (Key_cache.gid_count (Compositional.sweep_cache sw) > 0);
  (* The repeated base point aliases the first point's diagram. *)
  let first = List.hd results in
  let last = List.nth results (List.length results - 1) in
  Alcotest.(check bool) "repeated point aliases the memoised diagram" true
    (first.Compositional.lumped == last.Compositional.lumped)

let test_rebuild_counters () =
  let md, _sizes = concrete_md () in
  (* Identity partitions at every level: the rebuild aliases the input
     diagram and accounts every live node as reused. *)
  let idp = Array.init (Md.levels md) (fun l -> Partition.discrete (Md.size md (l + 1))) in
  let rebuild_counters = [ "rebuild.nodes_rebuilt"; "rebuild.nodes_reused" ] in
  let r, c =
    Counters.of_run rebuild_counters (fun () ->
        Compositional.lump_with_partitions State_lumping.Ordinary md idp)
  in
  Alcotest.(check bool) "identity partitions alias the diagram" true
    (r.Compositional.lumped == md);
  Alcotest.(check int) "nothing rebuilt" 0 (c "rebuild.nodes_rebuilt");
  Alcotest.(check int) "all live nodes reused" (Md.num_live_nodes md)
    (c "rebuild.nodes_reused");
  (* A real lump of the same model: level 1 stays the identity (its
     nodes are imported verbatim), level 2 lumps (its nodes are
     rebuilt). *)
  let rewards, initial = lump_inputs md in
  let r2, c2 =
    Counters.of_run rebuild_counters (fun () ->
        Compositional.lump State_lumping.Ordinary md ~rewards ~initial)
  in
  Alcotest.(check bool) "mixed run rebuilds some nodes" true
    (c2 "rebuild.nodes_rebuilt" > 0);
  Alcotest.(check bool) "mixed run reuses some nodes" true (c2 "rebuild.nodes_reused" > 0);
  Alcotest.(check int) "every live node accounted once" (Md.num_live_nodes md)
    (c2 "rebuild.nodes_rebuilt" + c2 "rebuild.nodes_reused");
  (* The oracle's from-scratch rebuild (every node through [add_node])
     produces the same diagram. *)
  Alcotest.(check bool) "from-scratch rebuild agrees" true
    (Md.equal r2.Compositional.lumped
       (Reference_lump.rebuild State_lumping.Ordinary md r2.Compositional.partitions))

(* The exact quotient folds each class's member rows into one
   class-indexed accumulator, so its scratch is linear in the class
   count.  A one-level chain of [n] states ([i -> i+1], [i -> i+2]) in
   [n/2] classes of two: doubling [n] roughly doubles what the rebuild
   allocates, where a class-pair table would quadruple it. *)
let test_exact_rebuild_scratch_linear () =
  let rebuild_words n =
    let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
    for i = 0 to n - 1 do
      List.iter (fun j -> if j < n then Mdl_sparse.Coo.add coo i j 1.0) [ i + 1; i + 2 ]
    done;
    let md = md_of_flat (Csr.of_coo coo) in
    let p = Partition.of_class_assignment (Array.init n (fun i -> i / 2)) in
    Counters.words (fun () -> ignore (Compositional.lump_with_partitions Exact md [| p |]))
  in
  let w2k = rebuild_words 2_000 and w4k = rebuild_words 4_000 in
  Alcotest.(check bool)
    (Printf.sprintf "n=4000 allocates %.0f words, under 2.5 x n=2000's %.0f" w4k w2k)
    true
    (w4k < 2.5 *. w2k);
  Alcotest.(check bool)
    (Printf.sprintf "n=4000 allocates %.0f words, under 3 Mwords" w4k)
    true (w4k < 3e6)

let qcheck_tests =
  [
    test_single_level_ordinary;
    test_single_level_exact;
    test_theorem3_global_ordinary;
    test_theorem4_global_exact;
    test_lumped_md_is_quotient_ordinary;
    test_lumped_md_is_quotient_exact;
    test_expanded_matrices_key_at_least_as_coarse;
    test_level_pipeline_matches_reference;
    test_lump_matches_reference;
    test_level_partition_locally_lumpable;
    test_sweep_matches_per_point;
    test_is_closed_matches_class_counts;
  ]

let tests =
  [
    Alcotest.test_case "decomposed of_level" `Quick test_decomposed_of_level;
    Alcotest.test_case "decomposed point" `Quick test_decomposed_point;
    Alcotest.test_case "decomposed constant/vector" `Quick test_decomposed_constant_and_vector;
    Alcotest.test_case "concrete 2-level lump" `Quick test_concrete_lump;
    Alcotest.test_case "is_closed: a partly reachable class" `Quick
      test_is_closed_partly_reachable_class;
    Alcotest.test_case "local lumpability checker" `Quick test_local_lumpability_checker;
    Alcotest.test_case "intern table reuse across level fixed point" `Quick
      test_level_intern_table_reuse;
    Alcotest.test_case "key cache invalidation" `Quick test_key_cache_invalidation;
    Alcotest.test_case "singleton classes skipped under the cache" `Quick
      test_singleton_skip;
    Alcotest.test_case "one cache shared across models" `Quick
      test_shared_cache_across_models;
    Alcotest.test_case "cache configuration contract enforced" `Quick
      test_cache_config_contract;
    Alcotest.test_case "sweep engine reuse counters" `Quick test_sweep_reuse_counters;
    Alcotest.test_case "rebuild reuse/rebuilt counters" `Quick test_rebuild_counters;
    Alcotest.test_case "exact rebuild scratch linear in classes" `Quick
      test_exact_rebuild_scratch_linear;
    Alcotest.test_case "sufficiency gap: expanded key coarser than formal key" `Quick
      test_sufficiency_gap;
    Alcotest.test_case "end-to-end lumped solution" `Quick test_end_to_end_solution;
    Alcotest.test_case "md solver matches flat" `Quick test_md_solve_matches_flat;
    Alcotest.test_case "level merging exposes cross-level symmetry" `Quick
      test_level_merging_exposes_cross_level_symmetry;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
