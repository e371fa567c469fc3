let version = 1

type family = Tandem | Polling | Workstations | Multitier | Kanban

type mode = Ordinary | Exact

type solver = Power | Gauss_seidel | Krylov

type reward_spec = { ind_level : int; ind_ge : bool; ind_k : int }

type point = { pt_extra : reward_spec list }

type submit = {
  sm_model : string;
  sm_family : family;
  sm_size : int option;
  sm_params : (string * int) list;
}

type lump = { lp_model : string; lp_mode : mode; lp_extra : reward_spec list }

type sweep = { sw_model : string; sw_points : point list }

type solve = { sv_model : string; sv_solver : solver }

type ping = { pg_sleep_ms : int }

type verb =
  | Submit_model of submit
  | Lump of lump
  | Sweep of sweep
  | Solve of solve
  | Stats
  | Ping of ping
  | Shutdown

type request = {
  rq_id : string option;
  rq_deadline_ms : int option;
  rq_trace : bool;
  rq_verb : verb;
}

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_verb
  | Unsupported_version
  | Frame_too_large
  | Unknown_model
  | Model_exists
  | Queue_full
  | Deadline_exceeded
  | Shutting_down
  | Internal

type model_info = {
  mi_model : string;
  mi_family : family;
  mi_states : int;
  mi_levels : int;
  mi_level_sizes : int list;
  mi_fresh : bool;
}

type lump_result = { lr_lumped_states : int; lr_classes : int list; lr_wall_s : float }

type point_result = { pr_lumped_states : int; pr_classes : int list; pr_wall_s : float }

type sweep_result = {
  sr_points : point_result list;
  sr_level_reused : int;
  sr_rebuilds_reused : int;
  sr_wall_s : float;
}

type solve_result = {
  so_solver : solver;
  so_iterations : int;
  so_converged : bool;
  so_residual : float;
  so_measures : (string * float) list;
  so_wall_s : float;
}

type span_stat = { sp_name : string; sp_count : int; sp_total_s : float }

type trace_rollup = { tr_request : string; tr_spans : span_stat list }

type verb_stat = {
  vs_verb : string;
  vs_requests : int;
  vs_errors : int;
  vs_p50_s : float;
  vs_p95_s : float;
  vs_p99_s : float;
}

type model_stat = {
  ms_model : string;
  ms_family : family;
  ms_states : int;
  ms_gid_count : int;
  ms_points : int;
}

type stats_result = {
  st_uptime_s : float;
  st_draining : bool;
  st_inflight : int;
  st_queue_depth : int;
  st_requests : int;
  st_rejected_queue_full : int;
  st_rejected_deadline : int;
  st_protocol_errors : int;
  st_verbs : verb_stat list;
  st_models : model_stat list;
}

type payload =
  | Model_info of model_info
  | Lump_result of lump_result
  | Sweep_result of sweep_result
  | Solve_result of solve_result
  | Stats_result of stats_result
  | Pong
  | Shutdown_ack of { draining : bool }

type response = {
  resp_id : string option;
  resp_trace : trace_rollup option;
  resp_body : (payload, error_code * string) result;
}

(* ---- codec ----

   Each wire record is declared once, as a list of fields, and both its
   encoder and its decoder come from that declaration.  A value codec maps
   one JSON value; a field maps one member of an object that encodes a
   record ['r] and decodes to an ['a].  Fields join with [let+ ... and+]:
   members are written in declaration order and read in the same order, so
   the first bad member is the one reported. *)

type err = error_code * string

type 'a codec = { enc : 'a -> Json.t; dec : Json.t -> ('a, err) result }

type ('r, 'a) fields = {
  write : 'r -> (string * Json.t) list;
  read : Json.t -> ('a, err) result;
}

let ( let* ) = Result.bind

let bad fmt = Printf.ksprintf (fun msg -> Error (Bad_request, msg)) fmt

(* [List.map] that stops at the first error. *)
let map_result f l =
  let step acc x = Result.bind acc (fun acc -> Result.map (fun y -> y :: acc) (f x)) in
  Result.map List.rev (List.fold_left step (Ok []) l)

(* Decode errors carry the path to the bad value: ["points: k: must be ..."]. *)
let named name = Result.map_error (fun (code, msg) -> (code, name ^ ": " ^ msg))

(* -- value codecs -- *)

let scalar what enc get =
  let dec j = match get j with Some x -> Ok x | None -> bad "must be %s" what in
  { enc; dec }

let int =
  scalar "an integer" (fun i -> Json.Int i) (function Json.Int i -> Some i | _ -> None)

let str =
  scalar "a string" (fun s -> Json.Str s) (function Json.Str s -> Some s | _ -> None)

let bool =
  scalar "a boolean" (fun b -> Json.Bool b) (function Json.Bool b -> Some b | _ -> None)

(* Numbers that are semantically floats also accept integer literals
   ([1] for [1.0]) — hand-written clients get this wrong constantly, and
   there is no ambiguity reading a number as seconds. *)
let float =
  scalar "a number" (fun f -> Json.Float f) (function
    | Json.Float f -> Some f
    | Json.Int i -> Some (float_of_int i)
    | _ -> None)

let list c =
  {
    enc = (fun l -> Json.List (List.map c.enc l));
    dec = (function Json.List l -> map_result c.dec l | _ -> bad "must be an array");
  }

(* An object read as a name -> value list.  A repeated name is refused:
   [Json.member] would see only its last value, a list consumer its first. *)
let assoc c =
  let member seen (k, v) =
    if Hashtbl.mem seen k then bad "repeated name %S" k
    else begin
      Hashtbl.add seen k ();
      Result.map (fun x -> (k, x)) (named k (c.dec v))
    end
  in
  {
    enc = (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
    dec =
      (function
      | Json.Obj members -> map_result (member (Hashtbl.create 8)) members
      | _ -> bad "must be an object");
  }

let enum table =
  {
    enc = (fun x -> Json.Str (List.assoc x table));
    dec =
      (fun j ->
        let* s = str.dec j in
        match List.find_opt (fun (_, name) -> name = s) table with
        | Some (x, _) -> Ok x
        | None -> bad "unknown value %S" s);
  }

let check ok what c =
  let dec j =
    let* x = c.dec j in
    if ok x then Ok x else bad "must be %s" what
  in
  { c with dec }

(* A record's fields as one JSON object. *)
let obj f =
  {
    enc = (fun r -> Json.Obj (f.write r));
    dec = (function Json.Obj _ as j -> f.read j | _ -> bad "must be an object");
  }

(* -- field codecs -- *)

(* Member [name] of object [j]; a missing or [null] member reads as
   [absent], and is an error when [absent] is [None]. *)
let member name dec absent j =
  match (Json.member name j, absent) with
  | (None | Some Json.Null), Some x -> Ok x
  | None, None -> bad "%s: missing" name
  | Some v, _ -> named name (dec v)

let req name c get =
  { write = (fun r -> [ (name, c.enc (get r)) ]); read = member name c.dec None }

(* Absent or [null] reads as [default]; with [~omit], [default] is not
   written either. *)
let dflt ?(omit = false) name c default get =
  let write r =
    let x = get r in
    if omit && x = default then [] else [ (name, c.enc x) ]
  in
  { write; read = member name c.dec (Some default) }

let some c =
  let dec j = Result.map Option.some (c.dec j) in
  { enc = (fun x -> c.enc (Option.get x)); dec }

(* Absent or [null] reads as [None]; [None] is not written. *)
let opt name c get = dflt ~omit:true name (some c) None get

let ( let+ ) f g = { write = f.write; read = (fun j -> Result.map g (f.read j)) }

let ( and+ ) a b =
  {
    write = (fun r -> a.write r @ b.write r);
    read =
      (fun j ->
        let* x = a.read j in
        let* y = b.read j in
        Ok (x, y));
  }

let none = { write = (fun () -> []); read = (fun _ -> Ok ()) }

(* ---- messages ---- *)

let error_codes =
  [
    (Parse_error, "parse_error");
    (Bad_request, "bad_request");
    (Unknown_verb, "unknown_verb");
    (Unsupported_version, "unsupported_version");
    (Frame_too_large, "frame_too_large");
    (Unknown_model, "unknown_model");
    (Model_exists, "model_exists");
    (Queue_full, "queue_full");
    (Deadline_exceeded, "deadline_exceeded");
    (Shutting_down, "shutting_down");
    (Internal, "internal");
  ]

let error_code_string c = List.assoc c error_codes

let families =
  [
    (Tandem, "tandem");
    (Polling, "polling");
    (Workstations, "workstations");
    (Multitier, "multitier");
    (Kanban, "kanban");
  ]

let family_string f = List.assoc f families

let family = enum families

let solver = enum [ (Power, "power"); (Gauss_seidel, "gauss-seidel"); (Krylov, "krylov") ]

let at_least n what = check (fun x -> x >= n) what int

let reward_spec =
  obj
    (let+ ind_level = req "level" (at_least 1 ">= 1") (fun r -> r.ind_level)
     and+ ind_ge = req "op" (enum [ (true, ">="); (false, "<") ]) (fun r -> r.ind_ge)
     and+ ind_k = req "k" int (fun r -> r.ind_k) in
     { ind_level; ind_ge; ind_k })

let extra_rewards get = dflt "extra_rewards" (list reward_spec) [] get

let point = obj (let+ pt_extra = extra_rewards (fun p -> p.pt_extra) in { pt_extra })

let submit =
  let+ sm_model = req "model" str (fun s -> s.sm_model)
  and+ sm_family = req "family" family (fun s -> s.sm_family)
  and+ sm_size = opt "size" (at_least 1 ">= 1") (fun s -> s.sm_size)
  and+ sm_params = dflt ~omit:true "params" (assoc int) [] (fun s -> s.sm_params) in
  { sm_model; sm_family; sm_size; sm_params }

let lump =
  let mode = enum [ (Ordinary, "ordinary"); (Exact, "exact") ] in
  let+ lp_model = req "model" str (fun l -> l.lp_model)
  and+ lp_mode = dflt "mode" mode Ordinary (fun l -> l.lp_mode)
  and+ lp_extra = extra_rewards (fun l -> l.lp_extra) in
  { lp_model; lp_mode; lp_extra }

let sweep =
  let points = check (fun l -> l <> []) "non-empty" (list point) in
  let+ sw_model = req "model" str (fun s -> s.sw_model)
  and+ sw_points = req "points" points (fun s -> s.sw_points) in
  { sw_model; sw_points }

let solve =
  let+ sv_model = req "model" str (fun s -> s.sv_model)
  and+ sv_solver = dflt "solver" solver Power (fun s -> s.sv_solver) in
  { sv_model; sv_solver }

let ping =
  let+ pg_sleep_ms =
    dflt ~omit:true "sleep_ms" (at_least 0 ">= 0") 0 (fun p -> p.pg_sleep_ms)
  in
  { pg_sleep_ms }

let model_info =
  let+ mi_model = req "model" str (fun m -> m.mi_model)
  and+ mi_family = req "family" family (fun m -> m.mi_family)
  and+ mi_states = req "states" int (fun m -> m.mi_states)
  and+ mi_levels = req "levels" int (fun m -> m.mi_levels)
  and+ mi_level_sizes = req "level_sizes" (list int) (fun m -> m.mi_level_sizes)
  and+ mi_fresh = req "fresh" bool (fun m -> m.mi_fresh) in
  { mi_model; mi_family; mi_states; mi_levels; mi_level_sizes; mi_fresh }

let lump_result =
  let+ lr_lumped_states = req "lumped_states" int (fun l -> l.lr_lumped_states)
  and+ lr_classes = req "classes" (list int) (fun l -> l.lr_classes)
  and+ lr_wall_s = req "wall_s" float (fun l -> l.lr_wall_s) in
  { lr_lumped_states; lr_classes; lr_wall_s }

let point_result =
  obj
    (let+ pr_lumped_states = req "lumped_states" int (fun p -> p.pr_lumped_states)
     and+ pr_classes = req "classes" (list int) (fun p -> p.pr_classes)
     and+ pr_wall_s = req "wall_s" float (fun p -> p.pr_wall_s) in
     { pr_lumped_states; pr_classes; pr_wall_s })

let sweep_result =
  let+ sr_points = req "points" (list point_result) (fun s -> s.sr_points)
  and+ sr_level_reused = req "level_reused" int (fun s -> s.sr_level_reused)
  and+ sr_rebuilds_reused = req "rebuilds_reused" int (fun s -> s.sr_rebuilds_reused)
  and+ sr_wall_s = req "wall_s" float (fun s -> s.sr_wall_s) in
  { sr_points; sr_level_reused; sr_rebuilds_reused; sr_wall_s }

let solve_result =
  let+ so_solver = req "solver" solver (fun s -> s.so_solver)
  and+ so_iterations = req "iterations" int (fun s -> s.so_iterations)
  and+ so_converged = req "converged" bool (fun s -> s.so_converged)
  and+ so_residual = req "residual" float (fun s -> s.so_residual)
  and+ so_measures = req "measures" (assoc float) (fun s -> s.so_measures)
  and+ so_wall_s = req "wall_s" float (fun s -> s.so_wall_s) in
  { so_solver; so_iterations; so_converged; so_residual; so_measures; so_wall_s }

let verb_stat =
  obj
    (let+ vs_verb = req "verb" str (fun v -> v.vs_verb)
     and+ vs_requests = req "requests" int (fun v -> v.vs_requests)
     and+ vs_errors = req "errors" int (fun v -> v.vs_errors)
     and+ vs_p50_s = req "p50_s" float (fun v -> v.vs_p50_s)
     and+ vs_p95_s = req "p95_s" float (fun v -> v.vs_p95_s)
     and+ vs_p99_s = req "p99_s" float (fun v -> v.vs_p99_s) in
     { vs_verb; vs_requests; vs_errors; vs_p50_s; vs_p95_s; vs_p99_s })

let model_stat =
  obj
    (let+ ms_model = req "model" str (fun m -> m.ms_model)
     and+ ms_family = req "family" family (fun m -> m.ms_family)
     and+ ms_states = req "states" int (fun m -> m.ms_states)
     and+ ms_gid_count = req "gid_count" int (fun m -> m.ms_gid_count)
     and+ ms_points = req "points" int (fun m -> m.ms_points) in
     { ms_model; ms_family; ms_states; ms_gid_count; ms_points })

let stats_result =
  let+ st_uptime_s = req "uptime_s" float (fun s -> s.st_uptime_s)
  and+ st_draining = req "draining" bool (fun s -> s.st_draining)
  and+ st_inflight = req "inflight" int (fun s -> s.st_inflight)
  and+ st_queue_depth = req "queue_depth" int (fun s -> s.st_queue_depth)
  and+ st_requests = req "requests" int (fun s -> s.st_requests)
  and+ st_rejected_queue_full =
    req "rejected_queue_full" int (fun s -> s.st_rejected_queue_full)
  and+ st_rejected_deadline =
    req "rejected_deadline" int (fun s -> s.st_rejected_deadline)
  and+ st_protocol_errors = req "protocol_errors" int (fun s -> s.st_protocol_errors)
  and+ st_verbs = dflt "verbs" (list verb_stat) [] (fun s -> s.st_verbs)
  and+ st_models = req "models" (list model_stat) (fun s -> s.st_models) in
  { st_uptime_s; st_draining; st_inflight; st_queue_depth; st_requests;
    st_rejected_queue_full; st_rejected_deadline; st_protocol_errors; st_verbs;
    st_models }

let span_stat =
  obj
    (let+ sp_name = req "name" str (fun s -> s.sp_name)
     and+ sp_count = req "count" int (fun s -> s.sp_count)
     and+ sp_total_s = req "total_s" float (fun s -> s.sp_total_s) in
     { sp_name; sp_count; sp_total_s })

let trace_rollup =
  obj
    (let+ tr_request = req "request" str (fun t -> t.tr_request)
     and+ tr_spans = dflt "spans" (list span_stat) [] (fun t -> t.tr_spans) in
     { tr_request; tr_spans })

(* -- verbs -- *)

(* One alternative of a variant: its constructor, the constructor's
   inverse and the fields of its argument. *)
type 'v alt = Alt : ('a -> 'v) * ('v -> 'a option) * ('a, 'a) fields -> 'v alt

(* Every verb by wire name, with its request and the payload that answers
   it: the one list of verb names. *)
let verbs =
  [
    ( "submit-model",
      Alt ((fun x -> Submit_model x), (function Submit_model x -> Some x | _ -> None),
           submit),
      Alt ((fun x -> Model_info x), (function Model_info x -> Some x | _ -> None),
           model_info) );
    ( "lump",
      Alt ((fun x -> Lump x), (function Lump x -> Some x | _ -> None), lump),
      Alt ((fun x -> Lump_result x), (function Lump_result x -> Some x | _ -> None),
           lump_result) );
    ( "sweep",
      Alt ((fun x -> Sweep x), (function Sweep x -> Some x | _ -> None), sweep),
      Alt ((fun x -> Sweep_result x), (function Sweep_result x -> Some x | _ -> None),
           sweep_result) );
    ( "solve",
      Alt ((fun x -> Solve x), (function Solve x -> Some x | _ -> None), solve),
      Alt ((fun x -> Solve_result x), (function Solve_result x -> Some x | _ -> None),
           solve_result) );
    ( "stats",
      Alt ((fun () -> Stats), (function Stats -> Some () | _ -> None), none),
      Alt ((fun x -> Stats_result x), (function Stats_result x -> Some x | _ -> None),
           stats_result) );
    ( "ping",
      Alt ((fun x -> Ping x), (function Ping x -> Some x | _ -> None), ping),
      Alt ((fun () -> Pong), (function Pong -> Some () | _ -> None), none) );
    ( "shutdown",
      Alt ((fun () -> Shutdown), (function Shutdown -> Some () | _ -> None), none),
      Alt ((fun draining -> Shutdown_ack { draining }),
           (function Shutdown_ack { draining } -> Some draining | _ -> None),
           (let+ draining = req "draining" bool Fun.id in draining)) );
  ]

let verb_names = List.map (fun (name, _, _) -> name) verbs

let requests = List.map (fun (name, rq, _) -> (name, rq)) verbs

let payloads = List.map (fun (name, _, p) -> (name, p)) verbs

let verb_name v =
  fst (List.find (fun (_, Alt (_, proj, _)) -> Option.is_some (proj v)) requests)

(* The wire name of [v] and its members. *)
let write_alt alts v =
  Option.get
    (List.find_map
       (fun (name, Alt (_, proj, f)) -> Option.map (fun x -> (name, f.write x)) (proj v))
       alts)

let read_alt alts ~unknown name j =
  match List.assoc_opt name alts with
  | Some (Alt (inj, _, f)) -> Result.map inj (f.read j)
  | None -> unknown name

(* -- envelopes -- *)

let v_member =
  let dec v =
    let* n = int.dec v in
    if n >= 1 && n <= version then Ok ()
    else
      Error
        ( Unsupported_version,
          Printf.sprintf "protocol version %d not supported (this server speaks %d)" n
            version )
  in
  let read j = member "v" dec (Some ()) j in
  { write = (fun _ -> [ ("v", Json.Int version) ]); read }

(* The [verb] member names the alternative whose members follow it. *)
let request_verb =
  {
    write =
      (fun rq ->
        let name, members = write_alt requests rq.rq_verb in
        ("verb", Json.Str name) :: members);
    read =
      (fun j ->
        let* name = member "verb" str.dec None j in
        read_alt requests name j ~unknown:(fun name ->
            Error (Unknown_verb, Printf.sprintf "unknown verb %S" name)));
  }

let request =
  let+ () = v_member
  and+ rq_id = opt "id" str (fun r -> r.rq_id)
  and+ rq_deadline_ms =
    opt "deadline_ms" (check (fun d -> d > 0) "positive" int) (fun r -> r.rq_deadline_ms)
  and+ rq_trace = dflt ~omit:true "trace" bool false (fun r -> r.rq_trace)
  and+ rq_verb = request_verb in
  { rq_id; rq_deadline_ms; rq_trace; rq_verb }

let error_object =
  obj
    (let+ code = req "code" (enum error_codes) fst
     and+ message = req "message" str snd in
     (code, message))

(* [ok] tells a payload (named by [verb], members in [result]) from an
   [error]. *)
let response_body =
  {
    write =
      (fun resp ->
        match resp.resp_body with
        | Ok payload ->
            let name, members = write_alt payloads payload in
            [ ("ok", Json.Bool true); ("verb", Json.Str name);
              ("result", Json.Obj members) ]
        | Error e -> [ ("ok", Json.Bool false); ("error", error_object.enc e) ]);
    read =
      (fun j ->
        match Json.member "ok" j with
        | Some (Json.Bool true) ->
            let* name = member "verb" str.dec None j in
            let* result = member "result" Result.ok None j in
            let unknown = bad "unknown response verb %S" in
            Result.map Result.ok (read_alt payloads name result ~unknown)
        | Some (Json.Bool false) ->
            Result.map Result.error (member "error" error_object.dec None j)
        | _ -> bad "response lacks boolean \"ok\"");
  }

(* A client checks no [v], and reads an [id] that is not a string as absent. *)
let response =
  let lenient = { (some str) with dec = (fun j -> Ok (Result.to_option (str.dec j))) } in
  let+ () = { v_member with read = (fun _ -> Ok ()) }
  and+ resp_id = dflt ~omit:true "id" lenient None (fun r -> r.resp_id)
  and+ resp_trace = opt "trace" trace_rollup (fun r -> r.resp_trace)
  and+ resp_body = response_body in
  { resp_id; resp_trace; resp_body }

let request_to_json rq = Json.Obj (request.write rq)

let request_of_string s =
  match Json.parse_result s with
  | Error msg -> Error (Parse_error, msg)
  | Ok (Json.Obj _ as j) -> request.read j
  | Ok _ -> bad "request must be a JSON object"

let response_to_json resp = Json.Obj (response.write resp)

let response_of_string s =
  match Json.parse_result s with
  | Error msg -> Error (Printf.sprintf "response is not valid JSON: %s" msg)
  | Ok (Json.Obj _ as j) -> Result.map_error snd (response.read j)
  | Ok _ -> Error "response must be a JSON object"

(* ---- framing ---- *)

let max_frame_default = 16 * 1024 * 1024

let frame_string payload =
  Printf.sprintf "%d\n%s\n" (String.length payload) payload

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let write_frame fd payload = write_all fd (frame_string payload)

type frame_error =
  | Eof
  | Truncated
  | Oversized of int
  | Malformed of string
  | Stopped

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  buf : Bytes.t;
  mutable start : int;  (* unconsumed bytes: buf.[start .. len-1] *)
  mutable len : int;
  mutable at_eof : bool;
}

let reader ?(max_frame = max_frame_default) fd =
  { fd; max_frame; buf = Bytes.create 65536; start = 0; len = 0; at_eof = false }

exception Stop_read of frame_error

(* Refill the buffer with at least one byte, waiting in 0.2 s [select]
   slices so [stop] (server drain) interrupts an idle read. *)
let refill r stop =
  if r.at_eof then raise (Stop_read Eof);
  if r.start = r.len then begin
    r.start <- 0;
    r.len <- 0
  end
  else if r.len = Bytes.length r.buf then begin
    Bytes.blit r.buf r.start r.buf 0 (r.len - r.start);
    r.len <- r.len - r.start;
    r.start <- 0
  end;
  let rec wait () =
    if stop () then raise (Stop_read Stopped);
    match Unix.select [ r.fd ] [] [] 0.2 with
    | [], _, _ -> wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 ->
      r.at_eof <- true;
      raise (Stop_read Eof)
  | n -> r.len <- r.len + n
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.at_eof <- true;
      raise (Stop_read Eof)

let read_byte r stop =
  if r.start >= r.len then refill r stop;
  let c = Bytes.get r.buf r.start in
  r.start <- r.start + 1;
  c

(* The length prefix: ASCII digits then '\n' (a lone '\r' before the
   '\n' is tolerated).  Anything else is a framing fault — the stream
   cannot be resynchronised. *)
let read_length r stop =
  let rec go acc ndigits =
    let c = try read_byte r stop with Stop_read Eof when ndigits > 0 -> raise (Stop_read Truncated) in
    match c with
    | '0' .. '9' ->
        if ndigits >= 12 then raise (Stop_read (Malformed "length prefix too long"));
        go ((acc * 10) + (Char.code c - Char.code '0')) (ndigits + 1)
    | '\r' ->
        let c2 = try read_byte r stop with Stop_read Eof -> raise (Stop_read Truncated) in
        if c2 = '\n' && ndigits > 0 then acc
        else raise (Stop_read (Malformed "length prefix must end in a newline"))
    | '\n' ->
        if ndigits > 0 then acc
        else raise (Stop_read (Malformed "empty length prefix"))
    | c ->
        raise
          (Stop_read
             (Malformed (Printf.sprintf "length prefix contains %C (decimal digits expected)" c)))
  in
  go 0 0

let read_frame ?(stop = fun () -> false) r =
  match
    let len = read_length r stop in
    if len > r.max_frame then raise (Stop_read (Oversized len));
    let out = Bytes.create len in
    let filled = ref 0 in
    while !filled < len do
      if r.start >= r.len then begin
        match refill r stop with
        | () -> ()
        | exception Stop_read Eof -> raise (Stop_read Truncated)
      end;
      let n = min (len - !filled) (r.len - r.start) in
      Bytes.blit r.buf r.start out !filled n;
      r.start <- r.start + n;
      filled := !filled + n
    done;
    (match try read_byte r stop with Stop_read Eof -> raise (Stop_read Truncated) with
    | '\n' -> ()
    | _ -> raise (Stop_read (Malformed "frame payload not terminated by a newline")));
    Bytes.unsafe_to_string out
  with
  | payload -> Ok payload
  | exception Stop_read e -> Error e
