(* Tests for the compositional modelling layer (mdl_san): exploration,
   descriptor generation, and agreement between the flat chain and the
   MD-represented chain. *)

module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Kronecker = Mdl_kron.Kronecker

(* [x * R] over [ss], through a walk built for the one product. *)
let vec_mul md ss x =
  let y = Array.make (Statespace.size ss) 0.0 in
  Md_vector.vec_mul_into (Md_vector.create md ss) x y;
  y

let id = Model.identity_effect

(* A tiny two-component model: a token moves between a 2-state switch
   and modulates a 3-state counter. *)
let tiny_model () =
  let switch = { Model.name = "switch"; initial = [| 0 |] } in
  let counter = { Model.name = "counter"; initial = [| 0 |] } in
  let flip =
    {
      Model.label = "flip";
      rate = 2.0;
      effects = [| (fun s -> [ ([| 1 - s.(0) |], 1.0) ]); id |];
    }
  in
  let count =
    {
      Model.label = "count";
      rate = 1.0;
      effects =
        [|
          (fun s -> if s.(0) = 1 then [ (s, 1.0) ] else []);
          (fun s -> [ ([| (s.(0) + 1) mod 3 |], 1.0) ]);
        |];
    }
  in
  Model.make ~components:[| switch; counter |] ~events:[ flip; count ]

let test_explore_tiny () =
  let exp = Model.explore (tiny_model ()) in
  Alcotest.(check int) "6 states" 6 (Statespace.size exp.Model.statespace);
  Alcotest.(check int) "switch space" 2 (Array.length exp.Model.local_spaces.(0));
  Alcotest.(check int) "counter space" 3 (Array.length exp.Model.local_spaces.(1));
  Alcotest.(check (option int)) "local index" (Some 0)
    (Model.local_index exp 1 [| 0 |])

let test_explore_guards_restrict () =
  (* A model where the second component never moves because the guard on
     component 1 never holds. *)
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let b = { Model.name = "b"; initial = [| 0 |] } in
  let blocked =
    {
      Model.label = "blocked";
      rate = 1.0;
      effects =
        [|
          (fun s -> if s.(0) = 5 then [ (s, 1.0) ] else []);
          (fun s -> [ ([| s.(0) + 1 |], 1.0) ]);
        |];
    }
  in
  let spin =
    { Model.label = "spin"; rate = 1.0; effects = [| (fun s -> [ (s, 1.0) ]); id |] }
  in
  let m = Model.make ~components:[| a; b |] ~events:[ blocked; spin ] in
  (* The symbolic engine sees [blocked]'s empty level-1 relation, which
     must empty its image. *)
  List.iter
    (fun (engine, explore) ->
      Alcotest.(check int) (engine ^ ": single state") 1
        (Statespace.size (explore m).Model.statespace))
    [
      ("explore", fun m -> Model.explore m);
      ("explore_symbolic", fun m -> Model.explore_symbolic m);
    ]

let test_explore_max_states () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let grow =
    {
      Model.label = "grow";
      rate = 1.0;
      effects = [| (fun s -> [ ([| s.(0) + 1 |], 1.0) ]) |];
    }
  in
  let m = Model.make ~components:[| a |] ~events:[ grow ] in
  Alcotest.check_raises "state explosion guard"
    (Failure "Model.explore: more than 10 states") (fun () ->
      ignore (Model.explore ~max_states:10 m))

(* A weight error names the engine that was run, whether the search
   itself reaches the weight or only the descriptor does. *)
let test_weight_errors_name_the_engine () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let b = { Model.name = "b"; initial = [| 0 |] } in
  let spin =
    { Model.label = "spin"; rate = 1.0; effects = [| (fun s -> [ (s, 1.0) ]); id |] }
  in
  (* [bad] is always disabled at level 1, so only the descriptor reaches
     its zero weight at level 2. *)
  let bad =
    {
      Model.label = "bad";
      rate = 1.0;
      effects = [| (fun _ -> []); (fun s -> [ (s, 0.0) ]) |];
    }
  in
  (* [zero]'s weight is reached by the search. *)
  let zero =
    { Model.label = "zero"; rate = 1.0; effects = [| (fun s -> [ (s, 0.0) ]); id |] }
  in
  List.iter
    (fun event ->
      let m = Model.make ~components:[| a; b |] ~events:[ spin; event ] in
      List.iter
        (fun (engine, explore) ->
          Alcotest.check_raises
            (engine ^ " on " ^ event.Model.label)
            (Invalid_argument
               (Printf.sprintf "%s: event %s has non-positive weight" engine event.Model.label))
            (fun () -> ignore (explore m)))
        [
          ("Model.explore", fun m -> Model.explore m);
          ("Model.explore_symbolic", fun m -> Model.explore_symbolic m);
        ])
    [ bad; zero ]

(* Each local effect is evaluated once per (event, level, local state),
   by saturation and the descriptor together. *)
let test_effects_evaluated_once () =
  let m =
    Mdl_models.Tandem.model
      { (Mdl_models.Tandem.default ~jobs:1) with Mdl_models.Tandem.hyper_dim = 2 }
  in
  let calls = Hashtbl.create 1024 in
  let count key =
    Hashtbl.replace calls key (1 + Option.value ~default:0 (Hashtbl.find_opt calls key))
  in
  let events =
    List.map
      (fun (e : Model.event) ->
        {
          e with
          Model.effects =
            Array.mapi
              (fun k f ->
                (* the shared identity keeps the events' tops *)
                if f == id then f
                else fun s ->
                  count (e.Model.label, k, Array.to_list s);
                  f s)
              e.Model.effects;
        })
      (Model.events m)
  in
  ignore (Model.explore_symbolic (Model.make ~components:(Model.components m) ~events));
  Alcotest.(check bool) "some effects ran" true (Hashtbl.length calls > 0);
  Hashtbl.iter
    (fun (label, k, s) n ->
      if n > 1 then
        Alcotest.failf "event %s, level %d, local state [%s]: %d calls" label (k + 1)
          (String.concat "; " (List.map string_of_int s))
          n)
    calls

let test_model_validation () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  Alcotest.check_raises "no components" (Invalid_argument "Model.make: no components")
    (fun () -> ignore (Model.make ~components:[||] ~events:[]));
  Alcotest.check_raises "wrong effects"
    (Invalid_argument "Model.make: event e has 2 effects for 1 components") (fun () ->
      ignore
        (Model.make ~components:[| a |]
           ~events:[ { Model.label = "e"; rate = 1.0; effects = [| id; id |] } ]));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Model.make: event e has non-positive rate") (fun () ->
      ignore
        (Model.make ~components:[| a |]
           ~events:[ { Model.label = "e"; rate = -1.0; effects = [| id |] } ]))

(* The MD and the explicit BFS must describe the same chain on the
   reachable states: compare the MD-flattened matrix over the state
   space with a direct enumeration of transitions. *)
let flat_rates_by_enumeration exp =
  let m = exp.Model.model in
  let ss = exp.Model.statespace in
  let n = Statespace.size ss in
  let ncomp = Array.length (Model.components m) in
  let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
  Statespace.iter
    (fun i tuple ->
      let locals =
        Array.mapi (fun k idx -> exp.Model.local_spaces.(k).(idx)) tuple
      in
      List.iter
        (fun e ->
          let succs = Array.mapi (fun k eff -> eff locals.(k)) e.Model.effects in
          if Array.for_all (fun l -> l <> []) succs then begin
            let rec expand k acc w =
              if k = ncomp then begin
                let target = Array.of_list (List.rev acc) in
                match Statespace.index ss target with
                | Some jdx -> Mdl_sparse.Coo.add coo i jdx (e.Model.rate *. w)
                | None -> Alcotest.fail "successor not reachable"
              end
              else
                List.iter
                  (fun (s', ww) ->
                    match Model.local_index exp (k + 1) s' with
                    | Some li -> expand (k + 1) (li :: acc) (w *. ww)
                    | None -> Alcotest.fail "local successor not discovered")
                  succs.(k)
            in
            expand 0 [] 1.0
          end)
        (Model.events m))
    ss;
  Csr.of_coo coo

let test_md_matches_semantics () =
  let exp = Model.explore (tiny_model ()) in
  let md = Model.md_of exp in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.(to_csr (create md exp.Model.statespace)) in
  Alcotest.(check bool) "MD = direct semantics" true (Csr.approx_equal direct via_md)

let test_workstations_md_matches_semantics () =
  let b = Mdl_models.Workstations.build (Mdl_models.Workstations.default ~stations:3) in
  let exp = b.Mdl_models.Workstations.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.(to_csr (create b.Mdl_models.Workstations.md exp.Model.statespace)) in
  Alcotest.(check bool) "workstations MD = semantics" true (Csr.approx_equal direct via_md)

let test_polling_md_matches_semantics () =
  let b = Mdl_models.Polling.build (Mdl_models.Polling.default ~customers:2) in
  let exp = b.Mdl_models.Polling.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.(to_csr (create b.Mdl_models.Polling.md exp.Model.statespace)) in
  Alcotest.(check bool) "polling MD = semantics" true (Csr.approx_equal direct via_md)

let test_tandem_small_md_matches_semantics () =
  let p =
    {
      (Mdl_models.Tandem.default ~jobs:1) with
      Mdl_models.Tandem.hyper_dim = 2;
      msmq_servers = 2;
      msmq_queues = 2;
    }
  in
  let b = Mdl_models.Tandem.build p in
  let exp = b.Mdl_models.Tandem.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.(to_csr (create b.Mdl_models.Tandem.md exp.Model.statespace)) in
  Alcotest.(check bool) "tandem MD = semantics" true (Csr.approx_equal direct via_md)

let test_multitier_md_matches_semantics () =
  let b = Mdl_models.Multitier.build (Mdl_models.Multitier.default ~clients:2) in
  let exp = b.Mdl_models.Multitier.exploration in
  let direct = flat_rates_by_enumeration exp in
  let via_md = Md_vector.(to_csr (create b.Mdl_models.Multitier.md exp.Model.statespace)) in
  Alcotest.(check bool) "multitier MD = semantics" true (Csr.approx_equal direct via_md)

let explorations_identical e1 e2 =
  let open Mdl_san in
  Statespace.size e1.Model.statespace = Statespace.size e2.Model.statespace
  && e1.Model.initial_tuple = e2.Model.initial_tuple
  && Array.for_all2 ( = ) e1.Model.local_spaces e2.Model.local_spaces
  &&
  let same = ref true in
  Statespace.iter
    (fun i s -> if Statespace.index e2.Model.statespace s <> Some i then same := false)
    e1.Model.statespace;
  !same

(* The descriptor as the exploration's local spaces determine it, built
   independently of the engines' relation tables: each effect called on
   each decoded local state, successors found with [Model.local_index],
   each local matrix through [Coo] and [Csr.of_coo], and events with an
   empty level dropped. *)
let reference_descriptor m (ex : Model.exploration) =
  List.filter_map
    (fun (e : Model.event) ->
      let locals =
        Array.mapi
          (fun k space ->
            let n = Array.length space in
            let coo = Mdl_sparse.Coo.create ~rows:n ~cols:n in
            Array.iteri
              (fun i s ->
                List.iter
                  (fun (s', w) ->
                    match Model.local_index ex (k + 1) s' with
                    | Some j -> Mdl_sparse.Coo.add coo i j w
                    | None -> ())
                  (e.Model.effects.(k) s))
              space;
            Csr.of_coo coo)
          ex.Model.local_spaces
      in
      if Array.exists (fun l -> Csr.nnz l = 0) locals then None
      else Some (e.Model.label, e.Model.rate, locals))
    (Model.events m)

let descriptor_matches_reference m (ex : Model.exploration) =
  let got = Kronecker.events ex.Model.descriptor in
  let want = reference_descriptor m ex in
  List.length got = List.length want
  && List.for_all2
       (fun (g : Kronecker.event) (label, rate, locals) ->
         g.Kronecker.label = label && g.Kronecker.rate = rate
         && Array.for_all2 Csr.equal g.Kronecker.locals locals)
       got want

let test_symbolic_matches_explicit () =
  let models =
    [
      ("tiny", tiny_model ());
      ("workstations", Mdl_models.Workstations.model (Mdl_models.Workstations.default ~stations:3));
      ("polling", Mdl_models.Polling.model (Mdl_models.Polling.default ~customers:2));
      ("multitier", Mdl_models.Multitier.model (Mdl_models.Multitier.default ~clients:2));
      ("kanban", Mdl_models.Kanban.model (Mdl_models.Kanban.default ~cards:2));
      ( "tandem",
        Mdl_models.Tandem.model
          {
            (Mdl_models.Tandem.default ~jobs:1) with
            Mdl_models.Tandem.hyper_dim = 2;
            msmq_servers = 2;
            msmq_queues = 2;
          } );
    ]
  in
  List.iter
    (fun (f : Mdl_models.Family.t) ->
      Alcotest.(check bool) (f.Mdl_models.Family.name ^ " is covered") true
        (List.mem_assoc f.Mdl_models.Family.name models))
    Mdl_models.Family.all;
  List.iter
    (fun (name, m) ->
      let e1 = Model.explore m in
      let e2 = Model.explore_symbolic m in
      Alcotest.(check bool) (name ^ ": identical explorations") true
        (explorations_identical e1 e2);
      Alcotest.(check bool) (name ^ ": explore's descriptor = reference") true
        (descriptor_matches_reference m e1);
      Alcotest.(check bool) (name ^ ": explore_symbolic's descriptor = reference") true
        (descriptor_matches_reference m e2);
      (* the canonical descriptors also agree *)
      Alcotest.(check bool) (name ^ ": same matrix") true
        (Csr.approx_equal
           (Md_vector.(to_csr (create (Model.md_of e1) e1.Model.statespace)))
           (Md_vector.(to_csr (create (Model.md_of e2) e2.Model.statespace)))))
    models

let test_symbolic_max_states () =
  let a = { Model.name = "a"; initial = [| 0 |] } in
  let grow =
    {
      Model.label = "grow";
      rate = 1.0;
      effects = [| (fun s -> [ ([| s.(0) + 1 |], 1.0) ]) |];
    }
  in
  let m = Model.make ~components:[| a |] ~events:[ grow ] in
  Alcotest.check_raises "state explosion guard"
    (Failure "Model.explore_symbolic: more than 10 states") (fun () ->
      ignore (Model.explore_symbolic ~max_states:10 m))

let test_compact_preserves_matrix () =
  let exp = Model.explore (tiny_model ()) in
  let raw = Mdl_oracle.Gen_md.event_chains exp.Model.descriptor in
  let compacted = Kronecker.to_md exp.Model.descriptor in
  Alcotest.(check bool) "the canonical build preserves the matrix" true
    (Csr.approx_equal (Md.to_csr raw) (Md.to_csr compacted));
  (* In slice form every formal sum above the bottom level is a single
     term. *)
  let ok = ref true in
  Array.iteri
    (fun l ids ->
      if l < Md.levels compacted - 1 then
        List.iter
          (fun id ->
            Md.iter_node_entries compacted id (fun _ _ s ->
                if Mdl_md.Formal_sum.num_terms s > 1 then ok := false))
          ids)
    (Md.live_nodes compacted);
  Alcotest.(check bool) "single-term sums" true !ok

(* The generated diagram, pinned: a dump of the live nodes in store
   order, with levels, positions, child ids and coefficients in
   hexadecimal, so that one moved node id or coefficient bit changes
   its digest. *)
let md_dump md =
  let b = Buffer.create 4096 in
  let ids = List.sort Int.compare (List.concat (Array.to_list (Md.live_nodes md))) in
  List.iter
    (fun id ->
      Printf.bprintf b "R%d level %d\n" id (Md.node_level md id);
      Md.iter_node_entries md id (fun r c s ->
          Printf.bprintf b " (%d,%d)" r c;
          List.iter (fun (n, w) -> Printf.bprintf b " %h*R%d" w n) (Mdl_md.Formal_sum.terms s);
          Buffer.add_char b '\n'))
    ids;
  Buffer.contents b

let test_md_of_golden () =
  let open Mdl_models in
  List.iter
    (fun (name, m, digest) ->
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (md_dump (Model.md_of (Model.explore_symbolic m))))))
    [
      ("tandem J=1", Tandem.model (Tandem.default ~jobs:1), "37e6b8dda6eddfaf85015903ca1e6525");
      ("tandem J=2", Tandem.model (Tandem.default ~jobs:2), "ca728761aa9545f179b597785be83af1");
      ("kanban N=3", Kanban.model (Kanban.default ~cards:3), "5d547a49d46a1802a1c9ce37af559b48");
      ("kanban N=5", Kanban.model (Kanban.default ~cards:5), "3b84989cd581865055cf5ac4c09a4689");
      ( "polling 4",
        Polling.model (Polling.default ~customers:4),
        "71d783640c5a288a7f1347e96c459e98" );
      ( "workstations 4",
        Workstations.model (Workstations.default ~stations:4),
        "faf0ef8f068d0367855d3425a17f6ad5" );
      ( "multitier 3",
        Multitier.model (Multitier.default ~clients:3),
        "66ef50997998dc57ad4a0b40d389f0a1" );
    ]

(* The descriptor, pinned: every event's label, rate and local-matrix
   entries in hexadecimal, so that a change in [Model.finalize] shows
   here, not only through the diagram built from it. *)
let descriptor_dump k =
  let b = Buffer.create 4096 in
  Array.iter (fun n -> Printf.bprintf b "%d " n) (Kronecker.sizes k);
  Buffer.add_char b '\n';
  List.iter
    (fun (e : Kronecker.event) ->
      Printf.bprintf b "%s %h\n" e.Kronecker.label e.Kronecker.rate;
      Array.iteri
        (fun l w ->
          Printf.bprintf b " level %d" (l + 1);
          Csr.iter (fun i j v -> Printf.bprintf b " (%d,%d) %h" i j v) w;
          Buffer.add_char b '\n')
        e.Kronecker.locals)
    (Kronecker.events k);
  Buffer.contents b

let test_descriptor_golden () =
  let open Mdl_models in
  List.iter
    (fun (name, m, digest) ->
      Alcotest.(check string) name digest
        (Digest.to_hex
           (Digest.string (descriptor_dump (Model.explore_symbolic m).Model.descriptor))))
    [
      ("tandem J=1", Tandem.model (Tandem.default ~jobs:1), "c538320d3cc3b44f75f0e6dc42f216cc");
      ("tandem J=2", Tandem.model (Tandem.default ~jobs:2), "eeff71155d5c5da0ca76e45a23e22792");
      ("kanban N=3", Kanban.model (Kanban.default ~cards:3), "db4be0a377804f5017c34dd299bbdc1d");
      ("kanban N=5", Kanban.model (Kanban.default ~cards:5), "d1a2725efd447eeecb4f46e42609da68");
      ("polling 4", Polling.model (Polling.default ~customers:4), "4b065b0c72cf26e0523f631914a761d3");
      ( "workstations 4",
        Workstations.model (Workstations.default ~stations:4),
        "dfb425932121dc28691dd0ab5ca3a849" );
      ("multitier 3", Multitier.model (Multitier.default ~clients:3), "d8eea20865232505af492f6832a74622");
    ]

(* The canonical builder as first written, kept as the reference for
   [Kronecker.to_md]: each row accumulated in per-column association
   lists, each entry's sum made with [Formal_sum.of_list], and every
   child node, one suffix or several, memoised by its formal sum, with
   suffix keys hashed over every entry.  The two must agree to the node
   id and the coefficient bit. *)
module Reference_suffixes = Hashtbl.Make (struct
  type t = Csr.t * int

  let equal (a, i) (b, j) = i = j && Csr.equal a b

  let hash (w, i) = Mdl_util.Hashx.combine (Csr.hash w) i
end)

module Reference_sums = Hashtbl.Make (Mdl_md.Formal_sum)

let reference_to_md k =
  let module Formal_sum = Mdl_md.Formal_sum in
  let module Dynarray = Mdl_util.Dynarray in
  let sizes = Kronecker.sizes k in
  let nlevels = Array.length sizes in
  let md = Md.create ~sizes in
  let suffixes = Array.init nlevels (fun _ -> Dynarray.create ()) in
  let numbers = Array.init nlevels (fun _ -> Reference_suffixes.create 16) in
  let rec suffix (e : Kronecker.event) l =
    if l > nlevels then Md.terminal md
    else
      let child = suffix e (l + 1) and w = e.Kronecker.locals.(l - 1) in
      let key = (w, child) in
      match Reference_suffixes.find_opt numbers.(l - 1) key with
      | Some s -> s
      | None ->
          let s = Dynarray.length suffixes.(l - 1) in
          Dynarray.push suffixes.(l - 1) (w, child);
          Reference_suffixes.add numbers.(l - 1) key s;
          s
  in
  let rec add child x = function
    | [] -> [ (child, x) ]
    | (c, p) :: rest when c = child -> (c, p +. x) :: rest
    | term :: rest -> term :: add child x rest
  in
  let memo = Array.init nlevels (fun _ -> Reference_sums.create 16) in
  let rec build l terms =
    let n = sizes.(l - 1) in
    let acc = Array.make n [] in
    let gamma = ref 0.0 and inv = ref 1.0 in
    let row r =
      let cols = ref [] in
      List.iter
        (fun (w, child, c) ->
          Csr.iter_row w r (fun col v ->
              let x = c *. v in
              if x <> 0.0 then begin
                if acc.(col) = [] then cols := col :: !cols;
                acc.(col) <- add child x acc.(col)
              end))
        terms;
      List.sort Int.compare !cols
      |> List.filter_map (fun col ->
             let sum = Formal_sum.of_list acc.(col) in
             acc.(col) <- [];
             let id, y =
               match Formal_sum.terms sum with
               | [ (s, x) ] ->
                   let id, g = node (l + 1) (Formal_sum.singleton s 1.0) in
                   (id, x *. g)
               | _ -> node (l + 1) sum
             in
             if !gamma = 0.0 && y <> 0.0 then begin
               gamma := y;
               inv := 1.0 /. y
             end;
             let s = Formal_sum.singleton id (!inv *. y) in
             if Formal_sum.is_empty s then None else Some (col, s))
      |> Array.of_list
    in
    let rows = Array.init n row in
    (Md.add_node_sorted_rows md ~level:l rows, if !gamma = 0.0 then 1.0 else !gamma)
  and node l sum =
    if l > nlevels then (Md.terminal md, 1.0)
    else
      match Reference_sums.find_opt memo.(l - 1) sum with
      | Some r -> r
      | None ->
          let term (s, c) =
            let w, child = Dynarray.get suffixes.(l - 1) s in
            (w, child, c)
          in
          let r = build l (List.map term (Formal_sum.terms sum)) in
          Reference_sums.add memo.(l - 1) sum r;
          r
  in
  let root, gamma =
    build 1
      (List.fold_left
         (fun acc (e : Kronecker.event) ->
           if Array.exists (fun w -> Csr.nnz w = 0) e.Kronecker.locals then acc
           else (e.Kronecker.locals.(0), suffix e 2, e.Kronecker.rate) :: acc)
         [] (Kronecker.events k))
  in
  let rescaled r =
    Array.of_list (List.map (fun (c, s) -> (c, Formal_sum.scale gamma s)) (Md.node_row md root r))
  in
  Md.set_root md
    (if gamma = 1.0 then root
     else Md.add_node_sorted_rows md ~level:1 (Array.init sizes.(0) rescaled));
  md

let matches_reference k =
  let got = Kronecker.to_md k and want = reference_to_md k in
  String.equal (md_dump got) (md_dump want) && Md.equal got want

let test_to_md_matches_reference () =
  let open Mdl_models in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) name true
        (matches_reference (Model.explore_symbolic m).Model.descriptor))
    [
      ("tandem J=1", Tandem.model (Tandem.default ~jobs:1));
      ("tandem J=2", Tandem.model (Tandem.default ~jobs:2));
      ("tandem J=3", Tandem.model (Tandem.default ~jobs:3));
      ("kanban N=3", Kanban.model (Kanban.default ~cards:3));
      ("kanban N=5", Kanban.model (Kanban.default ~cards:5));
      ("polling 4", Polling.model (Polling.default ~customers:4));
      ("polling 8", Polling.model (Polling.default ~customers:8));
      ("workstations 4", Workstations.model (Workstations.default ~stations:4));
      ("multitier 3", Multitier.model (Multitier.default ~clients:3));
    ]

(* A random descriptor with two events added, one with an all-zero local
   matrix at level [l] (it adds nothing) and one with identity matrices
   at every level, and a factor [2^p] moved from every rate into level
   [l]'s matrices, which is exact in binary. *)
let reference_descriptor_of ((spec : Mdl_oracle.Spec.kron), l, p) =
  let k = Mdl_oracle.Gen_md.kronecker (Mdl_util.Prng.of_seed spec.seed) spec in
  let sizes = Kronecker.sizes k in
  let l = l mod Array.length sizes and f = Float.ldexp 1.0 p in
  let identities = Array.map Kronecker.identity_local sizes in
  let zero =
    Array.mapi
      (fun l' n -> if l' = l then Csr.of_triplets ~rows:n ~cols:n [] else identities.(l'))
      sizes
  in
  let events =
    List.map
      (fun (e : Kronecker.event) ->
        let locals = Array.copy e.Kronecker.locals in
        locals.(l) <- Csr.scale f locals.(l);
        { e with Kronecker.rate = e.Kronecker.rate /. f; locals })
      (Kronecker.events k)
    @ [
        { Kronecker.label = "zero"; rate = 1.5; locals = zero };
        { Kronecker.label = "identity"; rate = 0.75; locals = identities };
      ]
  in
  Kronecker.make ~sizes events

let to_md_reference_property =
  QCheck.Test.make ~count:200 ~name:"to_md = the list-based reference, node id and bit"
    QCheck.(triple Mdl_oracle.Qcheck_gen.kron small_nat (int_range (-3) 3))
    (fun input -> matches_reference (reference_descriptor_of input))

(* ----- whole-pipeline fuzzing over random compositional models ----- *)

(* A deterministic random model from a seed: 1-3 bounded-counter
   components, 1-5 events picked from a small effect repertoire. *)
let random_model seed =
  let rng = Mdl_util.Prng.create (Int64.of_int seed) in
  let ncomp = 1 + Mdl_util.Prng.int rng 3 in
  let caps = Array.init ncomp (fun _ -> 1 + Mdl_util.Prng.int rng 3) in
  let components =
    Array.init ncomp (fun k ->
        { Model.name = Printf.sprintf "c%d" k; initial = [| 0 |] })
  in
  let effect_of_kind cap kind =
    match kind with
    | 0 -> id
    | 1 -> fun s -> if s.(0) < cap then [ ([| s.(0) + 1 |], 1.0) ] else []
    | 2 -> fun s -> if s.(0) > 0 then [ ([| s.(0) - 1 |], 1.0) ] else []
    | 3 -> fun s -> if s.(0) > 0 then [ ([| 0 |], 1.0) ] else []
    | 4 ->
        (* probabilistic branch: up or reset *)
        fun s ->
          if s.(0) > 0 && s.(0) < cap then
            [ ([| s.(0) + 1 |], 0.5); ([| 0 |], 0.5) ]
          else []
    | _ -> fun s -> if s.(0) <= 1 then [ ([| 1 - s.(0) |], 1.0) ] else []
  in
  let nevents = 1 + Mdl_util.Prng.int rng 5 in
  let events =
    List.init nevents (fun e ->
        {
          Model.label = Printf.sprintf "e%d" e;
          rate = float_of_int (1 + Mdl_util.Prng.int rng 3);
          effects =
            Array.init ncomp (fun k ->
                effect_of_kind caps.(k) (Mdl_util.Prng.int rng 6));
        })
  in
  Model.make ~components ~events

let arb_seed = QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))

let fuzz_pipeline =
  QCheck.Test.make ~count:60 ~name:"pipeline fuzz: explore/symbolic/MD/lump/measures"
    arb_seed (fun seed ->
      let m = random_model seed in
      let e1 = Model.explore ~max_states:100_000 m in
      let e2 = Model.explore_symbolic ~max_states:100_000 m in
      (* 1. both exploration engines agree, with the reference descriptor *)
      if
        not
          (explorations_identical e1 e2
          && descriptor_matches_reference m e1
          && descriptor_matches_reference m e2)
      then false
      else begin
        let md = Model.md_of e1 in
        let ss = e1.Model.statespace in
        (* 2. the MD agrees with the direct semantics *)
        let direct = flat_rates_by_enumeration e1 in
        let via_md = Md_vector.(to_csr (create md ss)) in
        if not (Csr.approx_equal direct via_md) then false
        else begin
          (* 3. lump with a protected level-1 reward *)
          let sizes = Array.map Array.length e1.Model.local_spaces in
          let reward =
            Mdl_core.Decomposed.of_level ~sizes ~level:1 (fun i ->
                float_of_int e1.Model.local_spaces.(0).(i).(0))
          in
          let initial = Mdl_core.Decomposed.point ~sizes e1.Model.initial_tuple in
          let result = Mdl_core.Compositional.lump Ordinary md ~rewards:[ reward ] ~initial in
          let lumped_ss = Mdl_core.Compositional.lump_statespace result ss in
          if not (Mdl_core.Compositional.is_closed result ss lumped_ss) then
            (* closure can fail for asymmetric random models: the lumped
               chain is then not used; nothing more to check *)
            true
          else begin
            (* 4. stationary aggregation commutes and the protected
               measure is preserved *)
            let pi, st1 = Mdl_core.Md_solve.steady_state ~tol:1e-12 ~max_iter:50_000 md ss in
            let pi_l, st2 =
              Mdl_core.Md_solve.steady_state ~tol:1e-12 ~max_iter:50_000
                result.Mdl_core.Compositional.lumped lumped_ss
            in
            if not (st1.Mdl_ctmc.Solver.converged && st2.Mdl_ctmc.Solver.converged) then
              QCheck.assume_fail () (* skip pathological convergence cases *)
            else begin
              let agg = Mdl_core.Compositional.aggregate_vector result ss lumped_ss pi in
              let r_flat =
                Mdl_ctmc.Solver.expected_reward pi
                  (Mdl_core.Decomposed.to_vector reward ss)
              in
              let r_lumped =
                Mdl_ctmc.Solver.expected_reward pi_l
                  (Mdl_core.Decomposed.to_vector
                     (Mdl_core.Compositional.lumped_rewards result reward)
                     lumped_ss)
              in
              Vec.diff_inf agg pi_l < 1e-7 && Float.abs (r_flat -. r_lumped) < 1e-7
            end
          end
        end
      end)

let fuzz_merge =
  QCheck.Test.make ~count:60 ~name:"pipeline fuzz: merge_adjacent preserves semantics"
    arb_seed (fun seed ->
      let m = random_model seed in
      let e = Model.explore_symbolic ~max_states:100_000 m in
      let md = Model.md_of e in
      if Mdl_md.Md.levels md < 2 then true
      else begin
        let ss = e.Model.statespace in
        let merged = Mdl_md.Restructure.merge_adjacent md 1 in
        let merged_ss = Statespace.merge_levels ss 1 ~width:(Mdl_md.Md.size md 2) in
        let n = Statespace.size ss in
        let x = Array.init n (fun i -> float_of_int ((i mod 5) + 1)) in
        let mul md ss = vec_mul md ss x in
        Vec.approx_equal (mul md ss) (mul merged merged_ss)
      end)

let qcheck_tests = [ to_md_reference_property; fuzz_pipeline; fuzz_merge ]

let tests =
  [
    Alcotest.test_case "explore tiny model" `Quick test_explore_tiny;
    Alcotest.test_case "guards restrict exploration" `Quick test_explore_guards_restrict;
    Alcotest.test_case "max_states guard" `Quick test_explore_max_states;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "weight errors name the engine" `Quick
      test_weight_errors_name_the_engine;
    Alcotest.test_case "each effect evaluated once" `Quick test_effects_evaluated_once;
    Alcotest.test_case "MD matches semantics (tiny)" `Quick test_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (workstations)" `Quick
      test_workstations_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (polling)" `Quick
      test_polling_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (tandem J=1)" `Slow
      test_tandem_small_md_matches_semantics;
    Alcotest.test_case "MD matches semantics (multitier)" `Quick
      test_multitier_md_matches_semantics;
    Alcotest.test_case "symbolic = explicit exploration" `Quick
      test_symbolic_matches_explicit;
    Alcotest.test_case "symbolic max_states guard" `Quick test_symbolic_max_states;
    Alcotest.test_case "compact preserves matrix" `Quick test_compact_preserves_matrix;
    Alcotest.test_case "md_of golden digests" `Quick test_md_of_golden;
    Alcotest.test_case "descriptor golden digests" `Quick test_descriptor_golden;
    Alcotest.test_case "to_md = the reference on the catalogue" `Slow
      test_to_md_matches_reference;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
