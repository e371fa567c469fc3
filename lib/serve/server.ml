module Metrics = Mdl_obs.Metrics
module Trace = Mdl_obs.Trace
module Timer = Mdl_util.Timer
module Md = Mdl_md.Md
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Compositional = Mdl_core.Compositional
module Key_cache = Mdl_core.Key_cache
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module State_lumping = Mdl_lumping.State_lumping
module Family = Mdl_models.Family
module P = Protocol

let log = Logs.Src.create "lumpd" ~doc:"lumping service"

module Log = (val Logs.src_log log)

(* ---- metrics ---- *)

let m_requests = Metrics.counter "serve.requests"
let m_connections = Metrics.counter "serve.connections"
let m_protocol_errors = Metrics.counter "serve.protocol_errors"
let m_rejected_queue_full = Metrics.counter "serve.rejected_queue_full"
let m_rejected_deadline = Metrics.counter "serve.rejected_deadline"
let m_scrapes = Metrics.counter "serve.metrics_scrapes"
let m_inflight = Metrics.gauge "serve.inflight"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_models = Metrics.gauge "serve.models"
let m_uptime = Metrics.gauge "serve.uptime_seconds"

(* [serve.request_seconds] covers the slotted verbs only: stats and
   shutdown bypass the execution slots, so folding their near-zero
   latencies into the same histogram would drag the quantiles of the
   actual work down.  They get their own family instead. *)
let m_latency = Metrics.histogram "serve.request_seconds"
let m_control_latency = Metrics.histogram "serve.control_seconds"

(* Per-verb telemetry, pre-registered for every verb so the families
   exist (at zero) in the first scrape rather than popping into being
   when a verb is first used.  [queue_seconds] is time spent acquiring
   an execution slot; [exec_seconds] is time actually executing. *)
type verb_metrics = {
  vm_requests : Metrics.counter;
  vm_errors : Metrics.counter;
  vm_queue : Metrics.histogram;
  vm_exec : Metrics.histogram;
}

let verb_families =
  List.map
    (fun v ->
      ( v,
        {
          vm_requests = Metrics.counter (Printf.sprintf "serve.verb.%s.requests" v);
          vm_errors = Metrics.counter (Printf.sprintf "serve.verb.%s.errors" v);
          vm_queue = Metrics.histogram (Printf.sprintf "serve.verb.%s.queue_seconds" v);
          vm_exec = Metrics.histogram (Printf.sprintf "serve.verb.%s.exec_seconds" v);
        } ))
    P.verb_names

let verb_metrics v = List.assoc v verb_families

(* ---- configuration ---- *)

type address = Unix_socket of string | Tcp of string * int

type config = {
  listen : address;
  metrics_port : int option;
  max_inflight : int;
  queue_capacity : int;
  default_deadline_ms : int option;
  access_log : string option;
}

let default_config ~listen =
  {
    listen;
    metrics_port = None;
    max_inflight = 1;
    queue_capacity = 32;
    default_deadline_ms = None;
    access_log = None;
  }

(* ---- model registry ---- *)

type model = {
  mo_name : string;
  mo_family : P.family;
  mo_params : (string * int) list;  (* fully resolved, sorted: the identity *)
  mo_built : Family.built;
  mo_lock : Mutex.t;
  mutable mo_sweep : Compositional.sweep option;
  mutable mo_points : int;
}

(* ---- server state ---- *)

type t = {
  config : config;
  mu : Mutex.t;
  models : (string, model) Hashtbl.t;
  mutable inflight : int;
  mutable waiting : int;
  mutable draining : bool;
  mutable requests : int;
  mutable next_req : int;  (* server-side request-id counter; guarded by [mu] *)
  verb_counts : (string, int * int) Hashtbl.t;
      (* verb -> (requests, errors), for the stats verb; guarded by [mu] *)
  mutable rejected_queue_full : int;
  mutable rejected_deadline : int;
  mutable protocol_errors : int;
  access_out : out_channel option;  (* structured access log, one JSON line per request *)
  access_mu : Mutex.t;
  started_wall : float;
  (* socket machinery; absent when driven purely in-process *)
  mutable listen_fd : Unix.file_descr option;
  mutable bound : address;
  mutable metrics_fd : Unix.file_descr option;
  mutable bound_metrics_port : int option;
  mutable threads : Thread.t list;  (* listeners; guarded by [mu] *)
  mutable conns : Thread.t list;  (* live connection threads; guarded by [mu] *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let draining t = t.draining

(* ---- slots and deadlines ---- *)

let now_s () = Int64.to_float (Timer.now_ns ()) /. 1e9

(* A deadline past the end of the int64 nanosecond clock never expires. *)
let deadline_of t received_ns ms =
  match (ms, t.config.default_deadline_ms) with
  | None, None -> None
  | Some ms, _ | None, Some ms ->
      let ms = Int64.of_int ms in
      let max_ms = Int64.div (Int64.sub Int64.max_int received_ns) 1_000_000L in
      if Int64.compare ms max_ms > 0 then None
      else Some (Int64.add received_ns (Int64.mul ms 1_000_000L))

let expired = function
  | None -> false
  | Some d -> Int64.compare (Timer.now_ns ()) d > 0

(* Acquire one of the [max_inflight] execution slots, waiting in the
   bounded queue.  The stdlib has no [Condition.timedwait], so waiters
   poll under short sleeps — 2 ms, coarse enough to be free next to
   any lumping work and fine enough for protocol-level deadlines. *)
let acquire_slot t ~deadline =
  let outcome =
    locked t (fun () ->
        if t.inflight < t.config.max_inflight then begin
          t.inflight <- t.inflight + 1;
          Metrics.set m_inflight (float_of_int t.inflight);
          `Go
        end
        else if t.waiting >= t.config.queue_capacity then `Full
        else begin
          t.waiting <- t.waiting + 1;
          Metrics.set m_queue_depth (float_of_int t.waiting);
          `Queued
        end)
  in
  match outcome with
  | `Go -> Ok ()
  | `Full ->
      locked t (fun () -> t.rejected_queue_full <- t.rejected_queue_full + 1);
      Metrics.incr m_rejected_queue_full;
      Error
        ( P.Queue_full,
          Printf.sprintf "%d in flight and %d queued" t.config.max_inflight
            t.config.queue_capacity )
  | `Queued ->
      let rec wait () =
        if expired deadline then begin
          locked t (fun () ->
              t.waiting <- t.waiting - 1;
              Metrics.set m_queue_depth (float_of_int t.waiting);
              t.rejected_deadline <- t.rejected_deadline + 1);
          Metrics.incr m_rejected_deadline;
          Error (P.Deadline_exceeded, "deadline expired while queued")
        end
        else
          let got =
            locked t (fun () ->
                if t.inflight < t.config.max_inflight then begin
                  t.inflight <- t.inflight + 1;
                  t.waiting <- t.waiting - 1;
                  Metrics.set m_inflight (float_of_int t.inflight);
                  Metrics.set m_queue_depth (float_of_int t.waiting);
                  true
                end
                else false)
          in
          if got then Ok ()
          else begin
            Thread.delay 0.002;
            wait ()
          end
      in
      wait ()

let release_slot t =
  locked t (fun () ->
      t.inflight <- t.inflight - 1;
      Metrics.set m_inflight (float_of_int t.inflight))

(* ---- request execution ---- *)

let err code fmt = Printf.ksprintf (fun msg -> Error (code, msg)) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let find_model t name =
  match locked t (fun () -> Hashtbl.find_opt t.models name) with
  | Some m -> Ok m
  | None -> err P.Unknown_model "no model named %S (submit-model first)" name

let refresh_models_gauge t =
  locked t (fun () -> Metrics.set m_models (float_of_int (Hashtbl.length t.models)))

let exec_submit t (s : P.submit) =
  (* Every wire family has a catalogue entry (pinned by a test). *)
  let family = Option.get (Family.find (P.family_string s.sm_family)) in
  match Family.resolve family ~size:s.sm_size s.sm_params with
  | Error msg -> Error (P.Bad_request, msg)
  | Ok resolved -> (
      let info m fresh =
        let sizes = Md.sizes m.mo_built.md in
        Ok
          (P.Model_info
             {
               mi_model = m.mo_name;
               mi_family = m.mo_family;
               mi_states = Statespace.size m.mo_built.statespace;
               mi_levels = Array.length sizes;
               mi_level_sizes = Array.to_list sizes;
               mi_fresh = fresh;
             })
      in
      match locked t (fun () -> Hashtbl.find_opt t.models s.sm_model) with
      | Some m when m.mo_params = resolved && m.mo_family = s.sm_family ->
          info m false
      | Some _ ->
          err P.Model_exists "model %S exists with a different configuration"
            s.sm_model
      | None -> (
          let m =
            {
              mo_name = s.sm_model;
              mo_family = s.sm_family;
              mo_params = resolved;
              mo_built = family.build resolved;
              mo_lock = Mutex.create ();
              mo_sweep = None;
              mo_points = 0;
            }
          in
          (* Re-check under the lock: a concurrent submit may have won. *)
          let winner =
            locked t (fun () ->
                match Hashtbl.find_opt t.models s.sm_model with
                | Some existing -> `Existing existing
                | None ->
                    Hashtbl.add t.models s.sm_model m;
                    `Fresh)
          in
          refresh_models_gauge t;
          match winner with
          | `Fresh -> info m true
          | `Existing e when e.mo_params = resolved && e.mo_family = s.sm_family ->
              info e false
          | `Existing _ ->
              err P.Model_exists "model %S exists with a different configuration"
                s.sm_model))

let point_rewards m (specs : P.reward_spec list) =
  let levels = Md.levels m.mo_built.md in
  let threshold (r : P.reward_spec) = { Family.level = r.ind_level; ge = r.ind_ge; k = r.ind_k } in
  match List.find_opt (fun (r : P.reward_spec) -> r.ind_level < 1 || r.ind_level > levels) specs with
  | Some r ->
      err P.Bad_request "extra_rewards: level %d out of range (model has %d levels)"
        r.ind_level levels
  | None -> Ok (Family.point_rewards m.mo_built (List.map threshold specs))

(* The model's sweep engine, created on first use and kept warm for the
   daemon's lifetime — this is the object whose level fixed-point and
   rebuild memos make a second client's request cheap. *)
let sweep_engine m =
  match m.mo_sweep with
  | Some sw -> sw
  | None ->
      let sw = Compositional.sweep_create State_lumping.Ordinary m.mo_built.md in
      m.mo_sweep <- Some sw;
      sw

let classes_of result =
  Array.to_list (Array.map Partition.num_classes result.Compositional.partitions)

let lumped_size m (r : Compositional.result) =
  Statespace.size (Compositional.lump_statespace r m.mo_built.statespace)

let run_point m rewards =
  let sw = sweep_engine m in
  let r, s =
    Timer.time (fun () ->
        Compositional.sweep_point sw ~rewards ~initial:m.mo_built.initial)
  in
  m.mo_points <- m.mo_points + 1;
  (r, s)

let exec_lump t (l : P.lump) =
  let* m = find_model t l.lp_model in
  let* rewards = point_rewards m l.lp_extra in
  Mutex.lock m.mo_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m.mo_lock)
    (fun () ->
      let r, wall =
        match l.lp_mode with
        | P.Ordinary -> run_point m rewards
        | P.Exact ->
            Timer.time (fun () ->
                Compositional.lump State_lumping.Exact m.mo_built.md ~rewards
                  ~initial:m.mo_built.initial)
      in
      Ok
        (P.Lump_result
           {
             lr_lumped_states = lumped_size m r;
             lr_classes = classes_of r;
             lr_wall_s = wall;
           }))

let exec_sweep t (s : P.sweep) =
  let* m = find_model t s.sw_model in
  Mutex.lock m.mo_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m.mo_lock)
    (fun () ->
      let t0 = now_s () in
      let rec run acc = function
        | [] -> Ok (List.rev acc)
        | (p : P.point) :: rest ->
            let* rewards = point_rewards m p.pt_extra in
            let r, wall = run_point m rewards in
            let pr =
              {
                P.pr_lumped_states = lumped_size m r;
                pr_classes = classes_of r;
                pr_wall_s = wall;
              }
            in
            run (pr :: acc) rest
      in
      let* points = run [] s.sw_points in
      let sw = sweep_engine m in
      let st = Compositional.sweep_stats sw in
      Ok
        (P.Sweep_result
           {
             sr_points = points;
             sr_level_reused = st.Compositional.level_reused;
             sr_rebuilds_reused = st.Compositional.rebuilds_reused;
             sr_wall_s = now_s () -. t0;
           }))

let exec_solve t (s : P.solve) =
  let* m = find_model t s.sv_model in
  Mutex.lock m.mo_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m.mo_lock)
    (fun () ->
      let t0 = now_s () in
      let r, _ = run_point m (List.map snd m.mo_built.rewards) in
      let ss = m.mo_built.statespace in
      let lumped_ss = Compositional.lump_statespace r ss in
      if not (Compositional.is_closed r ss lumped_ss) then
        err P.Internal "reachable set of %S is not class-closed; cannot solve"
          s.sv_model
      else begin
        let method_ =
          match s.sv_solver with
          | P.Power -> Solver.Power
          | P.Krylov -> Solver.Krylov
          | P.Gauss_seidel -> Solver.Gauss_seidel
        in
        let pi, stats = Md_solve.solve method_ r.Compositional.lumped lumped_ss in
        Ok
          (P.Solve_result
             {
               so_solver = s.sv_solver;
               so_iterations = stats.Solver.iterations;
               so_converged = stats.Solver.converged;
               so_residual = stats.Solver.residual;
               so_measures = Md_solve.measures r lumped_ss pi m.mo_built.rewards;
               so_wall_s = now_s () -. t0;
             })
      end)

let exec_stats t =
  let models =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ m acc ->
            let gids =
              match m.mo_sweep with
              | Some sw -> Key_cache.gid_count (Compositional.sweep_cache sw)
              | None -> 0
            in
            {
              P.ms_model = m.mo_name;
              ms_family = m.mo_family;
              ms_states = Statespace.size m.mo_built.statespace;
              ms_gid_count = gids;
              ms_points = m.mo_points;
            }
            :: acc)
          t.models [])
  in
  let models =
    List.sort (fun a b -> compare a.P.ms_model b.P.ms_model) models
  in
  (* One entry per verb, in registry order; quantiles estimated from the
     per-verb execution histogram (0. until the verb has been served). *)
  let verbs =
    List.map
      (fun v ->
        let requests, errors =
          match locked t (fun () -> Hashtbl.find_opt t.verb_counts v) with
          | Some (r, e) -> (r, e)
          | None -> (0, 0)
        in
        let q =
          match
            Metrics.histogram_snapshot (Printf.sprintf "serve.verb.%s.exec_seconds" v)
          with
          | Some s when s.Metrics.hs_count > 0 ->
              fun p -> Metrics.snapshot_quantile s p
          | _ -> fun _ -> 0.0
        in
        {
          P.vs_verb = v;
          vs_requests = requests;
          vs_errors = errors;
          vs_p50_s = q 0.50;
          vs_p95_s = q 0.95;
          vs_p99_s = q 0.99;
        })
      P.verb_names
  in
  let uptime = Unix.gettimeofday () -. t.started_wall in
  Metrics.set m_uptime uptime;
  locked t (fun () ->
      Ok
        (P.Stats_result
           {
             st_uptime_s = uptime;
             st_draining = t.draining;
             st_inflight = t.inflight;
             st_queue_depth = t.waiting;
             st_requests = t.requests;
             st_rejected_queue_full = t.rejected_queue_full;
             st_rejected_deadline = t.rejected_deadline;
             st_protocol_errors = t.protocol_errors;
             st_verbs = verbs;
             st_models = models;
           }))

(* Ping holds its execution slot for [sleep_ms], checking the deadline
   in 5 ms slices — the deterministic load fixture the deadline and
   backpressure tests lean on. *)
let exec_ping ~deadline (p : P.ping) =
  let until = now_s () +. (float_of_int p.pg_sleep_ms /. 1000.0) in
  let rec nap () =
    if expired deadline then Error (P.Deadline_exceeded, "deadline expired during ping")
    else
      let left = until -. now_s () in
      if left <= 0.0 then Ok P.Pong
      else begin
        Thread.delay (Float.min 0.005 left);
        nap ()
      end
  in
  nap ()

(* ---- graceful shutdown ---- *)

let request_drain t =
  let newly =
    locked t (fun () ->
        if t.draining then false
        else begin
          t.draining <- true;
          true
        end)
  in
  if newly then Log.info (fun m -> m "drain requested; finishing in-flight work")

(* ---- the handler ---- *)

let spanned name f =
  if Trace.enabled () then begin
    Trace.begin_span ~cat:"serve" name;
    Fun.protect ~finally:(fun () -> Trace.end_span name) f
  end
  else f ()

let verb_model = function
  | P.Submit_model s -> Some s.P.sm_model
  | P.Lump l -> Some l.P.lp_model
  | P.Sweep s -> Some s.P.sw_model
  | P.Solve s -> Some s.P.sv_model
  | P.Stats | P.Ping _ | P.Shutdown -> None

let ns_to_s ns = Int64.to_float ns /. 1e9

(* One JSON line per request: who, what, how long queued vs executing,
   outcome, and the size of the answer.  Written under its own lock so
   concurrent request threads never interleave lines. *)
let log_access t ~req_id ~verb ~model ~queue_ns ~exec_ns (resp : P.response) =
  match t.access_out with
  | None -> ()
  | Some oc ->
      let bytes = String.length (Json.to_string (P.response_to_json resp)) in
      let status =
        match resp.P.resp_body with
        | Ok _ -> "ok"
        | Error (code, _) -> P.error_code_string code
      in
      let members =
        [ ("ts", Json.Float (Unix.gettimeofday ())); ("request", Json.Str req_id) ]
        @ (match resp.P.resp_id with
          | Some id -> [ ("id", Json.Str id) ]
          | None -> [])
        @ [ ("verb", Json.Str verb) ]
        @ (match model with Some m -> [ ("model", Json.Str m) ] | None -> [])
        @ [
            ("queue_ns", Json.Int (Int64.to_int queue_ns));
            ("exec_ns", Json.Int (Int64.to_int exec_ns));
            ("status", Json.Str status);
            ("bytes", Json.Int bytes);
          ]
      in
      let line = Json.to_string (Json.Obj members) in
      Mutex.protect t.access_mu (fun () ->
          output_string oc line;
          output_char oc '\n';
          flush oc)

let handle t (rq : P.request) =
  let received = Timer.now_ns () in
  let req_num =
    locked t (fun () ->
        t.requests <- t.requests + 1;
        t.next_req <- t.next_req + 1;
        t.next_req)
  in
  let req_id = Printf.sprintf "r-%d" req_num in
  Metrics.incr m_requests;
  let vname = P.verb_name rq.rq_verb in
  let vm = verb_metrics vname in
  let deadline = deadline_of t received rq.rq_deadline_ms in
  let queue_ns = ref 0L in
  let exec_ns = ref 0L in
  let run_exec f =
    let t0 = Timer.now_ns () in
    let body = f () in
    exec_ns := Int64.sub (Timer.now_ns ()) t0;
    Metrics.observe vm.vm_exec (ns_to_s !exec_ns);
    body
  in
  let run_body () =
    match rq.rq_verb with
    (* Stats and shutdown answer even when the slots are saturated —
       an operator must be able to observe and stop a busy daemon.
       Their latency goes to [serve.control_seconds], not the global
       request histogram (they never queue or lump). *)
    | P.Stats -> run_exec (fun () -> exec_stats t)
    | P.Shutdown ->
        run_exec (fun () ->
            request_drain t;
            Ok (P.Shutdown_ack { draining = true }))
    | verb -> (
        if t.draining then Error (P.Shutting_down, "server is draining")
        else begin
          let q0 = Timer.now_ns () in
          let slot = acquire_slot t ~deadline in
          queue_ns := Int64.sub (Timer.now_ns ()) q0;
          Metrics.observe vm.vm_queue (ns_to_s !queue_ns);
          match slot with
          | Error _ as e -> e
          | Ok () ->
              Fun.protect
                ~finally:(fun () -> release_slot t)
                (fun () ->
                  if expired deadline then begin
                    locked t (fun () ->
                        t.rejected_deadline <- t.rejected_deadline + 1);
                    Metrics.incr m_rejected_deadline;
                    Error (P.Deadline_exceeded, "deadline expired before execution")
                  end
                  else
                    run_exec (fun () ->
                        try
                          spanned ("serve." ^ vname) (fun () ->
                              match verb with
                              | P.Submit_model s -> exec_submit t s
                              | P.Lump l -> exec_lump t l
                              | P.Sweep s -> exec_sweep t s
                              | P.Solve s -> exec_solve t s
                              | P.Ping p -> exec_ping ~deadline p
                              | P.Stats | P.Shutdown -> assert false)
                        with
                        | Invalid_argument msg | Failure msg ->
                            Error (P.Internal, msg)
                        | e -> Error (P.Internal, Printexc.to_string e)))
        end)
  in
  (* A traced request runs under its own context, so two concurrently
     traced requests can never interleave spans; the rollup travels
     back in the response's [trace] member tagged with the server-side
     request id. *)
  let body, trace =
    if not rq.rq_trace then (run_body (), None)
    else begin
      let ctx = Trace.Ctx.create () in
      Trace.Ctx.start ctx;
      let args =
        [ ("request", Trace.Str req_id); ("verb", Trace.Str vname) ]
        @
        match verb_model rq.rq_verb with
        | Some m -> [ ("model", Trace.Str m) ]
        | None -> []
      in
      let body =
        Trace.with_ctx ctx (fun () ->
            Trace.with_span ~cat:"serve" ~args "serve.request" run_body)
      in
      (try Trace.Ctx.stop ctx with Trace.Nesting_error _ -> ());
      let spans =
        List.map
          (fun (name, count, total) ->
            { P.sp_name = name; sp_count = count; sp_total_s = total })
          (Trace.Ctx.span_rollup ctx)
      in
      (body, Some { P.tr_request = req_id; tr_spans = spans })
    end
  in
  let error = Result.is_error body in
  Metrics.incr vm.vm_requests;
  if error then Metrics.incr vm.vm_errors;
  locked t (fun () ->
      let r, e =
        match Hashtbl.find_opt t.verb_counts vname with
        | Some p -> p
        | None -> (0, 0)
      in
      Hashtbl.replace t.verb_counts vname (r + 1, if error then e + 1 else e));
  (match rq.rq_verb with
  | P.Stats | P.Shutdown ->
      Metrics.observe m_control_latency
        (ns_to_s (Int64.sub (Timer.now_ns ()) received))
  | _ ->
      Metrics.observe m_latency
        (ns_to_s (Int64.sub (Timer.now_ns ()) received)));
  let resp = { P.resp_id = rq.rq_id; resp_trace = trace; resp_body = body } in
  log_access t ~req_id ~verb:vname ~model:(verb_model rq.rq_verb)
    ~queue_ns:!queue_ns ~exec_ns:!exec_ns resp;
  resp

(* ---- the socket shell ---- *)

let send_response fd resp =
  match P.write_frame fd (Json.to_string (P.response_to_json resp)) with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let note_protocol_error t =
  locked t (fun () -> t.protocol_errors <- t.protocol_errors + 1);
  Metrics.incr m_protocol_errors

let conn_loop t fd =
  let reader = P.reader fd in
  let stop () = t.draining in
  let rec loop () =
    match P.read_frame ~stop reader with
    | Error (P.Eof | P.Truncated | P.Stopped) -> ()
    | Error (P.Oversized n) ->
        note_protocol_error t;
        ignore
          (send_response fd
             {
               P.resp_id = None;
               resp_trace = None;
               resp_body =
                 Error
                   ( P.Frame_too_large,
                     Printf.sprintf "declared %d bytes, limit %d" n
                       P.max_frame_default );
             })
        (* framing is lost; the connection cannot continue *)
    | Error (P.Malformed msg) ->
        note_protocol_error t;
        ignore
          (send_response fd
             { P.resp_id = None; resp_trace = None; resp_body = Error (P.Parse_error, msg) })
    | Ok payload -> (
        if t.draining then
          ignore
            (send_response fd
               {
                 P.resp_id = None;
                 resp_trace = None;
                 resp_body = Error (P.Shutting_down, "server is draining");
               })
        else
          match P.request_of_string payload with
          | Error (code, msg) ->
              note_protocol_error t;
              if
                send_response fd
                  { P.resp_id = None; resp_trace = None; resp_body = Error (code, msg) }
              then loop ()
          | Ok rq -> if send_response fd (handle t rq) then loop ())
  in
  loop ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve_conn t fd =
  (match conn_loop t fd with () -> () | exception _ -> ());
  close_quietly fd;
  let self = Thread.self () in
  locked t (fun () ->
      t.conns <- List.filter (fun th -> Thread.id th <> Thread.id self) t.conns)

(* Accept loop over [fd], polling so drain is noticed within 0.2 s. *)
let accept_loop t fd handler =
  let rec loop () =
    if not t.draining then begin
      (match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | cfd, _ ->
              Metrics.incr m_connections;
              let th = Thread.create (fun () -> handler cfd) () in
              locked t (fun () -> t.conns <- th :: t.conns)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  close_quietly fd

(* ---- metrics endpoint: a deliberately tiny HTTP/1.0 responder ---- *)

let http_response status content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let scrape_body t =
  refresh_models_gauge t;
  Metrics.set m_uptime (Unix.gettimeofday () -. t.started_wall);
  Metrics.incr m_scrapes;
  let buf = Buffer.create 4096 in
  Metrics.to_prometheus buf;
  Buffer.contents buf

(* A scrape client gets this long to send its request line. *)
let scrape_read_timeout_ns = 2_000_000_000L

(* The request line: bytes up to the first '\n' (at most 4,096, or
   fewer if the client closes first).  A request may arrive in any
   number of writes, so this reads until the line is complete, waiting
   in 0.2 s [select] slices as [Protocol.read_frame] does.  Raises
   [Exit] — close without answering — when the line is not complete
   within [scrape_read_timeout_ns] or the server drains: a silent
   client must not hold up [wait], which joins this thread. *)
let read_request_line t fd =
  let buf = Bytes.create 4096 in
  let deadline = Int64.add (Timer.now_ns ()) scrape_read_timeout_ns in
  let rec go n =
    match Bytes.index_opt (Bytes.sub buf 0 n) '\n' with
    | Some i -> Bytes.sub_string buf 0 i
    | None when n = Bytes.length buf -> Bytes.to_string buf
    | None when t.draining || Int64.compare (Timer.now_ns ()) deadline > 0 -> raise Exit
    | None -> (
        match Unix.select [ fd ] [] [] 0.2 with
        | [], _, _ -> go n
        | _ -> (
            match Unix.read fd buf n (Bytes.length buf - n) with
            | 0 -> Bytes.sub_string buf 0 n
            | k -> go (n + k))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go n)
  in
  go 0

let serve_scrape t fd =
  (try
     (* Only the request line matters. *)
     let line = read_request_line t fd in
     let reply =
       match String.split_on_char ' ' (List.hd (String.split_on_char '\r' line)) with
       | "GET" :: path :: _ when path = "/metrics" || path = "/metrics/" ->
           http_response "200 OK"
             "text/plain; version=0.0.4; charset=utf-8" (scrape_body t)
       | "GET" :: _ -> http_response "404 Not Found" "text/plain" "only /metrics lives here\n"
       | _ -> http_response "405 Method Not Allowed" "text/plain" "GET only\n"
     in
     try
       let b = Bytes.unsafe_of_string reply in
       let len = Bytes.length b in
       let written = ref 0 in
       while !written < len do
         written := !written + Unix.write fd b !written (len - !written)
       done
     with Unix.Unix_error _ -> ()
   with _ -> ());
  close_quietly fd;
  let self = Thread.self () in
  locked t (fun () ->
      t.conns <- List.filter (fun th -> Thread.id th <> Thread.id self) t.conns)

(* ---- lifecycle ---- *)

let bind_listen t =
  match t.config.listen with
  | Unix_socket path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      t.listen_fd <- Some fd;
      t.bound <- Unix_socket path
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> Unix.inet_addr_loopback)
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      t.listen_fd <- Some fd;
      t.bound <- Tcp (host, actual)

let bind_metrics t port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  t.metrics_fd <- Some fd;
  t.bound_metrics_port <- Some actual

let start config =
  if config.max_inflight < 1 then invalid_arg "Server.start: max_inflight < 1";
  if config.queue_capacity < 0 then invalid_arg "Server.start: queue_capacity < 0";
  let check_port what p =
    if p < 0 || p > 65535 then
      invalid_arg (Printf.sprintf "Server.start: %s port outside 0-65535" what)
  in
  (match config.listen with Tcp (_, port) -> check_port "listen" port | Unix_socket _ -> ());
  Option.iter (check_port "metrics") config.metrics_port;
  (* A peer closing mid-write must surface as EPIPE, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Metrics.set_enabled true;
  let t =
    {
      config;
      mu = Mutex.create ();
      models = Hashtbl.create 16;
      inflight = 0;
      waiting = 0;
      draining = false;
      requests = 0;
      next_req = 0;
      verb_counts = Hashtbl.create 8;
      rejected_queue_full = 0;
      rejected_deadline = 0;
      protocol_errors = 0;
      access_out =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          config.access_log;
      access_mu = Mutex.create ();
      started_wall = Unix.gettimeofday ();
      listen_fd = None;
      bound = config.listen;
      metrics_fd = None;
      bound_metrics_port = None;
      threads = [];
      conns = [];
    }
  in
  bind_listen t;
  Option.iter (fun port -> bind_metrics t port) config.metrics_port;
  let main_fd = Option.get t.listen_fd in
  let th = Thread.create (fun () -> accept_loop t main_fd (serve_conn t)) () in
  t.threads <- [ th ];
  Option.iter
    (fun mfd ->
      let th = Thread.create (fun () -> accept_loop t mfd (serve_scrape t)) () in
      t.threads <- th :: t.threads)
    t.metrics_fd;
  (match t.bound with
  | Unix_socket path -> Log.info (fun m -> m "listening on unix:%s" path)
  | Tcp (host, port) -> Log.info (fun m -> m "listening on %s:%d" host port));
  t

let address t = t.bound

let metrics_port t = t.bound_metrics_port

let wait t =
  List.iter Thread.join t.threads;
  let rec drain_conns () =
    match locked t (fun () -> t.conns) with
    | [] -> ()
    | ths ->
        List.iter Thread.join ths;
        drain_conns ()
  in
  drain_conns ();
  Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) t.access_out;
  (match t.config.listen with
  | Unix_socket path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ())

let stop t =
  request_drain t;
  wait t
