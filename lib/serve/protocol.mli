(** The [lumpd] wire protocol: typed requests and responses, their JSON
    codec, and the length-prefixed framing — the normative prose lives
    in [docs/PROTOCOL.md]; this module is its executable counterpart.

    {b Framing.}  Each message is one frame: the payload's byte length
    in ASCII decimal, a ['\n'], the JSON payload, a ['\n'].  Frames are
    processed strictly in order per connection (no interleaving), and a
    framing-level fault (unparsable length, oversized declaration,
    truncated payload) is unrecoverable — the peer answers with a typed
    error where it still can and closes the connection.  Faults {e
    inside} a well-framed payload (bad JSON, missing fields) are
    recoverable: the server answers a typed error and keeps reading.

    {b Versioning.}  Every message carries ["v"] (omitted means [1]).
    Within a version, servers ignore unknown object members and clients
    must tolerate new members in responses — additive evolution needs
    no version bump; removing or re-typing a field does.  A server
    refuses [v] greater than {!version} with [`Unsupported_version].

    {b Codec.}  The implementation declares one field table per message:
    each member's name, its value codec, and whether it is required,
    optional ([None] is not written) or defaulted.  The encoder and the
    decoder of a message both come from its table, so they cannot drift
    apart.  Members are written in table order and read in the same order,
    so a decode error names the first bad member (as a path, e.g.
    ["points: extra_rewards: level: must be >= 1"]).  The golden wire test
    pins the bytes of every message shape, and the QCheck properties pin
    [decode (encode x) = x] for every request and response shape. *)

val version : int
(** The protocol version this build speaks ([1]). *)

(** {2 Vocabulary} *)

type family = Tandem | Polling | Workstations | Multitier | Kanban
(** The buildable model families — the same set [lumpmd] exposes. *)

type mode = Ordinary | Exact
(** Lumping mode (the wire-level mirror of
    {!Mdl_lumping.State_lumping.mode}; the codec is deliberately free
    of engine dependencies). *)

type solver = Power | Gauss_seidel | Krylov
(** Steady-state solver selection, as in [lumpmd --solver]. *)

type reward_spec = { ind_level : int; ind_ge : bool; ind_k : int }
(** A threshold-indicator reward on one level: state [s] of level
    [ind_level] (1-based) rewards [1.0] when [s >= ind_k] (or [s <
    ind_k] with [ind_ge = false]) — the sweep-family shape of
    [lumpmd sweep] and the bench fixture, now client-specifiable. *)

type point = { pt_extra : reward_spec list }
(** One sweep point: the model's base rewards extended with these
    indicators. *)

(** {2 Requests} *)

type submit = {
  sm_model : string;  (** the name later requests refer to *)
  sm_family : family;
  sm_size : int option;  (** the family's main size knob; default when [None] *)
  sm_params : (string * int) list;
      (** further family parameters by name ([hyper_dim], [msmq_servers],
          ...); unknown or repeated names are rejected as [`Bad_request] *)
}

type lump = { lp_model : string; lp_mode : mode; lp_extra : reward_spec list }

type sweep = { sw_model : string; sw_points : point list }

type solve = { sv_model : string; sv_solver : solver }

type ping = { pg_sleep_ms : int }
(** [pg_sleep_ms > 0] holds the execution slot for that long before
    answering — the deterministic fixture the deadline and backpressure
    tests (and operators probing queue behaviour) use. *)

type verb =
  | Submit_model of submit
  | Lump of lump
  | Sweep of sweep
  | Solve of solve
  | Stats
  | Ping of ping
  | Shutdown

type request = {
  rq_id : string option;  (** echoed verbatim in the response *)
  rq_deadline_ms : int option;
      (** per-request deadline, measured from the moment the server
          reads the frame; overrides the server default *)
  rq_trace : bool;
      (** when [true], the server traces this request's execution and
          returns a per-span rollup in the response's [trace] member.
          Encoded on the wire only when set; absent means [false]. *)
  rq_verb : verb;
}

(** {2 Responses} *)

type error_code =
  | Parse_error  (** payload is not valid JSON *)
  | Bad_request  (** well-formed JSON, bad or missing fields *)
  | Unknown_verb
  | Unsupported_version
  | Frame_too_large
  | Unknown_model
  | Model_exists  (** name already bound to a {e different} configuration *)
  | Queue_full  (** backpressure: the bounded wait queue is at capacity *)
  | Deadline_exceeded
  | Shutting_down
  | Internal

type model_info = {
  mi_model : string;
  mi_family : family;
  mi_states : int;  (** reachable states *)
  mi_levels : int;
  mi_level_sizes : int list;
  mi_fresh : bool;  (** [false] when an identical submission already existed *)
}

type lump_result = {
  lr_lumped_states : int;
  lr_classes : int list;  (** classes per level, level 1 first *)
  lr_wall_s : float;
}

type point_result = { pr_lumped_states : int; pr_classes : int list; pr_wall_s : float }

type sweep_result = {
  sr_points : point_result list;
  sr_level_reused : int;  (** model-engine cumulative, across requests *)
  sr_rebuilds_reused : int;  (** model-engine cumulative, across requests *)
  sr_wall_s : float;
}

type solve_result = {
  so_solver : solver;
  so_iterations : int;
  so_converged : bool;
  so_residual : float;
  so_measures : (string * float) list;
      (** expected steady-state rewards by measure name; floats travel
          bit-exactly (see {!Json}) *)
  so_wall_s : float;
}

type span_stat = {
  sp_name : string;  (** span name, e.g. ["serve.lump"] *)
  sp_count : int;  (** completed spans with this name *)
  sp_total_s : float;  (** total {e inclusive} seconds across them *)
}
(** One line of a trace rollup — the per-name aggregate of the spans a
    traced request produced (see {!Mdl_obs.Trace.Ctx.span_rollup}). *)

type trace_rollup = {
  tr_request : string;  (** the server-assigned request id *)
  tr_spans : span_stat list;  (** sorted by span name *)
}

type verb_stat = {
  vs_verb : string;  (** wire verb name, e.g. ["lump"] *)
  vs_requests : int;  (** requests of this verb handled since start *)
  vs_errors : int;  (** of which answered with an error *)
  vs_p50_s : float;  (** execution-latency quantiles, estimated from *)
  vs_p95_s : float;  (** the per-verb histogram by linear interpolation *)
  vs_p99_s : float;  (** within the winning bucket; [0.] when unserved *)
}

type model_stat = {
  ms_model : string;
  ms_family : family;
  ms_states : int;
  ms_gid_count : int;
  ms_points : int;  (** sweep points served since submission *)
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
  st_verbs : verb_stat list;  (** per-verb counters and latency quantiles *)
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
      (** present exactly when the request set [rq_trace]; carries the
          server-assigned request id and the span rollup *)
  resp_body : (payload, error_code * string) result;
      (** [Error (code, message)]: [message] is human-oriented detail,
          [code] is the contract *)
}

(** {2 Codec} *)

val error_code_string : error_code -> string
(** The wire name, e.g. ["queue_full"]. *)

val verb_names : string list
(** The wire name of every verb, in protocol order — the server
    pre-registers its per-verb metric families from this list. *)

val verb_name : verb -> string
(** The wire name of a verb, e.g. ["submit-model"] — also the [verb]
    key of the server's per-verb metric families and {!verb_stat}s. *)

val family_string : family -> string

val request_to_json : request -> Json.t

val request_of_string : string -> (request, error_code * string) result
(** Parse then decode.  JSON-level failure is [`Parse_error]; unknown
    members are ignored; missing/ill-typed required members are
    [`Bad_request]; an unrecognised ["verb"] is [`Unknown_verb]; ["v"]
    above {!version} is [`Unsupported_version]. *)

val response_to_json : response -> Json.t

val response_of_string : string -> (response, string) result
(** Client-side decoding (used by {!Client}, the tests and the bench). *)

(** {2 Framing} *)

val max_frame_default : int
(** Default payload-size ceiling, 16 MiB. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, handling short writes.
    @raise Unix.Unix_error as [Unix.write] (e.g. [EPIPE]). *)

val frame_string : string -> string
(** The exact bytes {!write_frame} sends — for tests and non-[Unix]
    transports. *)

type reader
(** Buffered frame reader over one socket; owns read-side state only
    (never closes the descriptor). *)

type frame_error =
  | Eof  (** peer closed cleanly between frames *)
  | Truncated  (** peer closed mid-frame *)
  | Oversized of int  (** declared length beyond the reader's ceiling *)
  | Malformed of string  (** unparsable length prefix or missing terminator *)
  | Stopped  (** the [stop] poll asked the read loop to give up (drain) *)

val reader : ?max_frame:int -> Unix.file_descr -> reader

val read_frame : ?stop:(unit -> bool) -> reader -> (string, frame_error) result
(** Read the next payload.  Blocks in [select]-bounded slices so a
    [stop] condition (server drain) is noticed within ~0.2 s even on an
    idle connection. *)
