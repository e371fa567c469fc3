module Md = Mdl_md.Md
module Model = Mdl_san.Model
module Decomposed = Mdl_core.Decomposed

type param = { name : string; short : string option; default : int; doc : string }

type built = {
  md : Md.t;
  statespace : Mdl_md.Statespace.t;
  rewards : (string * Decomposed.t) list;
  initial : Decomposed.t;
}

type t = {
  name : string;
  doc : string;
  params : param list;
  label : (string * int) list -> string;
  build : (string * int) list -> built;
}

let param ?short name default doc = { name; short; default; doc }

let built md (ex : Model.exploration) rewards initial =
  { md; statespace = ex.Model.statespace; rewards; initial }

let tandem =
  let d = Tandem.default ~jobs:1 in
  {
    name = "tandem";
    doc = "The paper's tandem multi-processor system (Section 5).";
    params =
      [
        param ~short:"j" "jobs" d.jobs "Population J.";
        param "hyper_dim" d.hyper_dim "Hypercube dimension (2^d servers).";
        param "msmq_servers" d.msmq_servers "MSMQ servers.";
        param "msmq_queues" d.msmq_queues "MSMQ queues.";
      ];
    label =
      (fun v ->
        Printf.sprintf "tandem (J=%d, 2^%d hypercube, %d/%d MSMQ)" (List.assoc "jobs" v)
          (List.assoc "hyper_dim" v) (List.assoc "msmq_servers" v)
          (List.assoc "msmq_queues" v));
    build =
      (fun v ->
        let b =
          Tandem.build
            {
              (Tandem.default ~jobs:(List.assoc "jobs" v)) with
              hyper_dim = List.assoc "hyper_dim" v;
              msmq_servers = List.assoc "msmq_servers" v;
              msmq_queues = List.assoc "msmq_queues" v;
            }
        in
        built b.md b.exploration
          [ ("availability", b.rewards_availability); ("msmq jobs", b.rewards_msmq_jobs) ]
          b.initial);
  }

let polling =
  {
    name = "polling";
    doc = "The MSMQ polling station in isolation.";
    params = [ param ~short:"c" "customers" 4 "Closed population." ];
    label = (fun v -> Printf.sprintf "polling (%d customers)" (List.assoc "customers" v));
    build =
      (fun v ->
        let b = Polling.build (Polling.default ~customers:(List.assoc "customers" v)) in
        built b.md b.exploration
          [ ("busy servers", b.rewards_busy_servers); ("queued jobs", b.rewards_queued_jobs) ]
          b.initial);
  }

let workstations =
  {
    name = "workstations";
    doc = "Replicated workstation cluster with a spare store.";
    params = [ param ~short:"n" "stations" 4 "Number of workstations." ];
    label = (fun v -> Printf.sprintf "workstations (%d stations)" (List.assoc "stations" v));
    build =
      (fun v ->
        let b = Workstations.build (Workstations.default ~stations:(List.assoc "stations" v)) in
        built b.md b.exploration [ ("operational", b.rewards_operational) ] b.initial);
  }

let multitier =
  {
    name = "multitier";
    doc = "Closed multi-tier service system (4-level MD).";
    params = [ param ~short:"c" "clients" 3 "Closed population." ];
    label = (fun v -> Printf.sprintf "multitier (%d clients)" (List.assoc "clients" v));
    build =
      (fun v ->
        let b = Multitier.build (Multitier.default ~clients:(List.assoc "clients" v)) in
        built b.md b.exploration
          [ ("thinking clients", b.rewards_thinking); ("db fast", b.rewards_db_fast) ]
          b.initial);
  }

let kanban =
  {
    name = "kanban";
    doc = "The Kanban manufacturing system (4-level MD benchmark).";
    params = [ param ~short:"n" "cards" 2 "Kanban cards per cell." ];
    label = (fun v -> Printf.sprintf "kanban (%d cards per cell)" (List.assoc "cards" v));
    build =
      (fun v ->
        let b = Kanban.build (Kanban.default ~cards:(List.assoc "cards" v)) in
        built b.md b.exploration [ ("parts in system", b.rewards_in_system) ] b.initial);
  }

let all = [ tandem; polling; workstations; multitier; kanban ]

let find name = List.find_opt (fun (f : t) -> f.name = name) all

(* Unknown names are rejected: a client typo must not silently build
   the default model. *)
let resolve f ~size params =
  let known = List.map (fun (p : param) -> p.name) f.params in
  match List.find_opt (fun (k, _) -> not (List.mem k known)) params with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown parameter %S for family %s (known: %s)" k f.name
           (String.concat ", " known))
  | None -> (
      let main = List.hd known in
      match size with
      | Some _ when List.mem_assoc main params ->
          Error (Printf.sprintf "parameter %S conflicts with \"size\"" main)
      | _ ->
          let value i (p : param) =
            match (List.assoc_opt p.name params, size) with
            | Some v, _ -> (p.name, v)
            | None, Some v when i = 0 -> (p.name, v)
            | None, _ -> (p.name, p.default)
          in
          let resolved = List.mapi value f.params in
          if List.exists (fun (_, v) -> v < 1) resolved then
            Error "all model parameters must be >= 1"
          else Ok (List.sort (fun (a, _) (b, _) -> compare a b) resolved))

type threshold = { level : int; ge : bool; k : int }

let indicator ~sizes { level; ge; k } =
  Decomposed.of_level ~sizes ~level (fun s ->
      if (if ge then s >= k else s < k) then 1.0 else 0.0)

let sweep_study md ~points =
  let sizes = Md.sizes md in
  let largest = ref 0 in
  Array.iteri (fun i n -> if n > sizes.(!largest) then largest := i) sizes;
  let n = sizes.(!largest) in
  let at ge k = { level = !largest + 1; ge; k } in
  let k1 = max 1 (n / 3) and k2 = max 1 (2 * n / 3) in
  let variants =
    [| []; [ at true k1 ]; [ at false k1 ]; [ at true k2 ]; [ at true k1; at true k2 ] |]
  in
  List.init (max 0 points) (fun i -> variants.(i mod Array.length variants))

let point_rewards b thresholds =
  List.map (indicator ~sizes:(Md.sizes b.md)) thresholds @ List.map snd b.rewards
