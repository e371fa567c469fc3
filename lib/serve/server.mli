(** The [lumpd] daemon engine: a process-long lumping service over the
    {!Protocol} wire format.

    One {!t} owns the process-wide model registry.  Every submitted
    model keeps its state space, reward structures and — decisively —
    its {!Mdl_core.Compositional.sweep} engine warm across requests and
    connections: the engine's level fixed-point and rebuild memos and
    its {!Mdl_core.Key_cache} (compiled lines, interned keys) survive
    between clients, so a second client's sweep over points the daemon
    has already seen replays each level's fixed point and each lumped
    diagram from the memos ([level_reused] and [rebuilds_reused] grow)
    instead of refining again.

    {b Concurrency.}  One listener thread accepts connections; each
    connection gets a thread that reads frames strictly in order.
    Execution slots are bounded by [max_inflight]; requests beyond that
    wait in a bounded queue of [queue_capacity] waiters and are
    rejected with [Queue_full] past it.  Deadlines ([deadline_ms] per
    request, [default_deadline_ms] otherwise) are measured from frame
    receipt on the monotonic clock and enforced while queued and at
    execution start — an expired request frees its slot and answers
    [Deadline_exceeded].

    {b Shutdown.}  {!request_drain} (wired to SIGTERM by [lumpd], and
    to the [shutdown] verb) stops accepting connections, lets in-flight
    requests finish, answers late frames with [Shutting_down], and then
    closes.  {!wait} joins everything.

    {b Observability.}  When {!Mdl_obs.Metrics} is enabled the server
    maintains [serve.*] counters, gauges and latency histograms next to
    the engine's [lump.*]/[key_cache.*] families, and serves them all
    in Prometheus text format from [GET /metrics] on [metrics_port].
    The endpoint reads the request line up to its first newline (at
    most 4,096 bytes), however many writes it arrives in; a client that
    sends no complete line within 2 s, or before the server drains, is
    closed without an answer, so it cannot hold up {!wait}.
    When {!Mdl_obs.Trace} is recording, each request body runs under a
    [serve.<verb>] span; tracing is single-domain, so [lumpd] forces
    [max_inflight = 1] in that configuration. *)

type address =
  | Unix_socket of string  (** filesystem path; unlinked on close *)
  | Tcp of string * int  (** bind host and port; port [0] = ephemeral *)

type config = {
  listen : address;
  metrics_port : int option;
      (** serve [GET /metrics] (Prometheus text format) on this
          loopback TCP port; [Some 0] picks an ephemeral port
          (see {!metrics_port}) *)
  max_inflight : int;  (** execution slots (>= 1) *)
  queue_capacity : int;  (** waiters beyond the slots before [Queue_full] *)
  default_deadline_ms : int option;
      (** deadline for requests that carry none; [None] = unlimited *)
  access_log : string option;
      (** append one structured JSON line per request to this file:
          timestamp, server request id, client id, verb, model,
          queue/execution nanoseconds, status, response bytes *)
}

val default_config : listen:address -> config
(** [max_inflight = 1], [queue_capacity = 32], no default deadline, no
    metrics port, no access log.  Every connection reads frames of up
    to {!Protocol.max_frame_default} bytes. *)

type t

val start : config -> t
(** Bind the sockets, spawn the listener threads, and return.  Enables
    {!Mdl_obs.Metrics}.
    @raise Invalid_argument on a nonsensical config ([max_inflight < 1],
    negative queue, a listen or metrics port outside [0 .. 65535]: the
    socket layer would keep only the port's low 16 bits).
    @raise Unix.Unix_error when binding fails (path in use, ...). *)

val address : t -> address
(** The bound address — with the real port when the config said [0]. *)

val metrics_port : t -> int option
(** The bound metrics port, when configured. *)

val request_drain : t -> unit
(** Begin graceful shutdown (idempotent): stop accepting, finish
    in-flight work, close.  Returns immediately; {!wait} blocks. *)

val draining : t -> bool

val wait : t -> unit
(** Block until the server has fully drained and every thread has
    exited.  Without {!request_drain} (or a client [shutdown]) this
    blocks for the daemon's lifetime. *)

val stop : t -> unit
(** {!request_drain} then {!wait}. *)

(** {2 In-process execution}

    The request handler, exposed directly so tests and the bench can
    drive the engine without sockets — the socket path pins its
    responses bit-identical to this one. *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request against the registry, honouring slots, queue
    bounds and deadlines exactly as a socket request would.  A
    [Shutdown] request acknowledges and triggers {!request_drain}. *)
