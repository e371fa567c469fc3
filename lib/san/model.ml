module Dynarray = Mdl_util.Dynarray
module Csr = Mdl_sparse.Csr
module Trace = Mdl_obs.Trace

let src = Logs.Src.create "mdl.san" ~doc:"compositional model exploration"

module Log = (val Logs.src_log src : Logs.LOG)

type local_state = int array

type effect = local_state -> (local_state * float) list

type event = {
  label : string;
  rate : float;
  effects : effect array;
}

type component = {
  name : string;
  initial : local_state;
}

type t = {
  comps : component array;
  evts : event list;
}

let make ~components ~events =
  if Array.length components = 0 then invalid_arg "Model.make: no components";
  List.iter
    (fun e ->
      if Array.length e.effects <> Array.length components then
        invalid_arg
          (Printf.sprintf "Model.make: event %s has %d effects for %d components" e.label
             (Array.length e.effects) (Array.length components));
      if e.rate <= 0.0 then
        invalid_arg (Printf.sprintf "Model.make: event %s has non-positive rate" e.label);
      if not (Float.is_finite e.rate) then
        invalid_arg (Printf.sprintf "Model.make: event %s has non-finite rate" e.label))
    events;
  { comps = components; evts = events }

let components t = t.comps

let events t = t.evts

let identity_effect s = [ (s, 1.0) ]

module State_table = Hashtbl.Make (struct
  type t = int array

  (* Monomorphic equality: this is the hottest comparison in state-space
     exploration. *)
  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  let hash = Mdl_util.Hashx.int_array
end)

type interner = {
  index_of : int State_table.t;
  states : local_state Dynarray.t;
}

let new_interner () = { index_of = State_table.create 64; states = Dynarray.create () }

let intern interner s =
  match State_table.find_opt interner.index_of s with
  | Some i -> i
  | None ->
      let i = Dynarray.length interner.states in
      let s = Array.copy s in
      State_table.add interner.index_of s i;
      Dynarray.push interner.states s;
      i

(* The model's local relations: one table per (event, level), indexed by
   interned local state and filled on first use, so that each local
   effect is evaluated at most once.  Saturation reads a cell's targets;
   [finalize] reads the same cells to build the descriptor. *)
type cell = {
  targets : int array; (* interned successors, in the effect's order *)
  weights : float array;
}

type relations = {
  engine : string; (* the exploring function, named in error messages *)
  max_states : int;
  evts : event array;
  interners : interner array;
  cells : cell Dynarray.t array array; (* [cells.(e).(k)] *)
}

(* A cell not yet computed, told apart by physical equality. *)
let unset = { targets = [||]; weights = [||] }

let relations ~engine ~max_states (t : t) interners =
  let evts = Array.of_list t.evts in
  {
    engine;
    max_states;
    evts;
    interners;
    cells = Array.map (fun _ -> Array.map (fun _ -> Dynarray.create ()) interners) evts;
  }

let cell r e k s =
  let row = r.cells.(e).(k) in
  while Dynarray.length row <= s do
    Dynarray.push row unset
  done;
  let c = Dynarray.get row s in
  if c != unset then c
  else begin
    let ev = r.evts.(e) and it = r.interners.(k) in
    let succs = Array.of_list (ev.effects.(k) (Dynarray.get it.states s)) in
    let c =
      {
        targets =
          Array.map
            (fun (s', w) ->
              if w <= 0.0 then
                invalid_arg
                  (Printf.sprintf "%s: event %s has non-positive weight" r.engine ev.label);
              if not (Float.is_finite w) then
                invalid_arg
                  (Printf.sprintf "%s: event %s has non-finite weight" r.engine ev.label);
              intern it s')
            succs;
        weights = Array.map snd succs;
      }
    in
    (* Runaway guard: the local spaces of a finite model are bounded by
       its state count, so unbounded interner growth means the model has
       (more than) [max_states] states. *)
    if Dynarray.length it.states > r.max_states then
      failwith (Printf.sprintf "%s: more than %d states" r.engine r.max_states);
    Dynarray.set row s c;
    c
  end

type exploration = {
  model : t;
  local_spaces : local_state array array;
  statespace : Mdl_md.Statespace.t;
  descriptor : Mdl_kron.Kronecker.t;
  initial_tuple : int array;
}

(* The order of polymorphic [compare] on local states, without its
   generic walk: length first, then the elements as ints. *)
let compare_local (a : local_state) (b : local_state) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c
  else begin
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    if !i = n then 0 else Int.compare (Array.unsafe_get a !i) (Array.unsafe_get b !i)
  end

(* Canonicalise an exploration: keep only local states occurring in some
   reachable state (read off the state space's arcs), order each level's
   local states lexicographically by their encoding (so the result is
   independent of discovery order and of the exploration strategy),
   relabel the state space's arcs accordingly, and build the Kronecker
   descriptor from the relation cells of the occurring local states. *)
let finalize t rel old_ss old_initial =
  Trace.with_span ~cat:"san" "san.finalize" (fun () ->
      let ncomp = Array.length t.comps in
      let decode k i = Dynarray.get rel.interners.(k).states i in
      (* [occurring.(k).(i)] is the interned index of final local state [i]. *)
      let occurring =
        Array.init ncomp (fun k ->
            let olds = Array.of_list (Mdl_md.Statespace.local_states old_ss (k + 1)) in
            Array.sort (fun a b -> compare_local (decode k a) (decode k b)) olds;
            olds)
      in
      let remap =
        Array.mapi
          (fun k olds ->
            let m = Array.make (Dynarray.length rel.interners.(k).states) (-1) in
            Array.iteri (fun i old -> m.(old) <- i) olds;
            m)
          occurring
      in
      (* A level an event leaves alone ([identity_effect]) gets the one
         identity matrix of that level; the cells would spell out the
         same matrix.  Transitions into non-occurring local states cannot
         fire in any reachable global state and are dropped; targets
         first interned here lie beyond [remap] and are among them. *)
      let identities = Array.map (fun olds -> Csr.identity (Array.length olds)) occurring in
      (* Any other local matrix is counted, then filled, row by row from
         the cells, each row's entries in the effect's order (weights are
         positive, so every target kept is an entry). *)
      let local_matrix e k =
        let olds = occurring.(k) and remap = remap.(k) in
        let n = Array.length olds and known = Array.length remap in
        if rel.evts.(e).effects.(k) == identity_effect then identities.(k)
        else begin
          let base = Array.make (n + 1) 0 in
          for i = 0 to n - 1 do
            let targets = (cell rel e k olds.(i)).targets in
            let count = ref 0 in
            for x = 0 to Array.length targets - 1 do
              if targets.(x) < known && remap.(targets.(x)) >= 0 then incr count
            done;
            base.(i + 1) <- base.(i) + !count
          done;
          let col_idx = Array.make base.(n) 0 and values = Array.make base.(n) 0.0 in
          for i = 0 to n - 1 do
            let c = cell rel e k olds.(i) in
            let slot = ref base.(i) in
            for x = 0 to Array.length c.targets - 1 do
              let target = c.targets.(x) in
              if target < known && remap.(target) >= 0 then begin
                col_idx.(!slot) <- remap.(target);
                values.(!slot) <- c.weights.(x);
                incr slot
              end
            done
          done;
          Csr.of_row_slots ~rows:n ~cols:n base col_idx values
        end
      in
      let kron_events =
        Array.to_list rel.evts
        |> List.mapi (fun e ev ->
               let locals = Array.init ncomp (local_matrix e) in
               if Array.exists (fun m -> Csr.nnz m = 0) locals then None
               else Some { Mdl_kron.Kronecker.label = ev.label; rate = ev.rate; locals })
        |> List.filter_map Fun.id
      in
      let sizes = Array.map Array.length occurring in
      {
        model = t;
        local_spaces = Array.mapi (fun k -> Array.map (decode k)) occurring;
        statespace = Mdl_md.Statespace.relabel old_ss (fun l i -> remap.(l - 1).(i));
        descriptor = Mdl_kron.Kronecker.make ~sizes kron_events;
        initial_tuple = Array.mapi (fun k i -> remap.(k).(i)) old_initial;
      })

let explore ?(max_states = 5_000_000) t =
  let ncomp = Array.length t.comps in
  let interners = Array.init ncomp (fun _ -> new_interner ()) in
  let initial_tuple =
    Array.mapi (fun k comp -> intern interners.(k) comp.initial) t.comps
  in
  let evts = Array.of_list t.evts in
  let visited = State_table.create 4096 in
  let frontier = Queue.create () in
  let tuples = Dynarray.create () in
  State_table.add visited initial_tuple ();
  Queue.add initial_tuple frontier;
  Dynarray.push tuples initial_tuple;
  let succ_buf = Array.make ncomp [||] in
  let next_buf = Array.make ncomp 0 in
  while not (Queue.is_empty frontier) do
    let tuple = Queue.pop frontier in
    for e = 0 to Array.length evts - 1 do
      let enabled = ref true in
      for k = 0 to ncomp - 1 do
        if !enabled then begin
          let s = Dynarray.get interners.(k).states tuple.(k) in
          match evts.(e).effects.(k) s with
          | [] -> enabled := false
          | succs -> succ_buf.(k) <- Array.of_list succs
        end
      done;
      if !enabled then begin
        (* Cross product of per-component successors, interned on use. *)
        let rec expand k =
          if k = ncomp then begin
            if not (State_table.mem visited next_buf) then begin
              if State_table.length visited >= max_states then
                failwith (Printf.sprintf "Model.explore: more than %d states" max_states);
              let next = Array.copy next_buf in
              State_table.add visited next ();
              Queue.add next frontier;
              Dynarray.push tuples next
            end
          end
          else
            Array.iter
              (fun (s', _w) ->
                next_buf.(k) <- intern interners.(k) s';
                expand (k + 1))
              succ_buf.(k)
        in
        expand 0
      end
    done
  done;
  Log.debug (fun m ->
      m "explore: %d states, local spaces %s" (Dynarray.length tuples)
        (String.concat "/"
           (Array.to_list
              (Array.map (fun it -> string_of_int (Dynarray.length it.states)) interners))));
  (* The search called the effects itself; the descriptor's cells are
     filled by [finalize]. *)
  finalize t
    (relations ~engine:"Model.explore" ~max_states t interners)
    (Mdl_md.Statespace.of_tuples ~levels:ncomp (Dynarray.to_list tuples))
    initial_tuple

let explore_symbolic ?(max_states = 50_000_000) t =
  let ncomp = Array.length t.comps in
  let interners = Array.init ncomp (fun _ -> new_interner ()) in
  let initial_tuple =
    Array.mapi (fun k comp -> intern interners.(k) comp.initial) t.comps
  in
  let rel = relations ~engine:"Model.explore_symbolic" ~max_states t interners in
  let man = Mdl_md.Set_mdd.manager ~levels:ncomp in
  (* An event's top level: the root-most level whose effect is not the
     shared [identity_effect] closure (saturation fires an event inside
     nodes of its top level, which is sound only when everything closer
     to the root is identity).  Physical equality can only certify a
     level as identity when the model author passed [identity_effect];
     unknown effects count as touched, which merely costs efficiency. *)
  let top_of e =
    let rec scan k =
      if k >= ncomp then ncomp (* all-identity: a no-op event *)
      else if e.effects.(k) == identity_effect then scan (k + 1)
      else k + 1
    in
    scan 0
  in
  let tops = Array.map top_of rel.evts in
  (* Its bottom level: the deepest level whose effect is not
     [identity_effect], by the same test; a no-op event's is its top.
     Saturation stops the event there. *)
  let bot_of e top =
    let rec scan k =
      if k <= top then top else if e.effects.(k - 1) == identity_effect then scan (k - 1) else k
    in
    scan ncomp
  in
  let bots = Array.map2 bot_of rel.evts tops in
  let rels =
    Array.init (Array.length tops) (fun e level s -> (cell rel e (level - 1) s).targets)
  in
  let reachable =
    Trace.with_span ~cat:"san" "san.saturate" (fun () ->
        Mdl_md.Set_mdd.saturation man ~rels ~tops ~bots
          (Mdl_md.Set_mdd.singleton man initial_tuple))
  in
  if Mdl_md.Set_mdd.count man reachable > max_states then
    failwith (Printf.sprintf "Model.explore_symbolic: more than %d states" max_states);
  Log.debug (fun m ->
      m "explore_symbolic: %d states, %d set-MDD nodes"
        (Mdl_md.Set_mdd.count man reachable)
        (Mdl_md.Set_mdd.num_nodes man));
  finalize t rel (Mdl_md.Set_mdd.to_statespace man reachable) initial_tuple

let local_index exp l s =
  if l < 1 || l > Array.length exp.local_spaces then
    invalid_arg "Model.local_index: level out of range";
  let space = exp.local_spaces.(l - 1) in
  let rec find i = if i >= Array.length space then None else if space.(i) = s then Some i else find (i + 1) in
  find 0

let md_of exp =
  Trace.with_span ~cat:"san" "san.md_of" (fun () -> Mdl_kron.Kronecker.to_md exp.descriptor)
