(** Hierarchical spans over the lump pipeline, exported as Chrome
    [trace_event] JSON.

    A span is a named interval on the monotonic clock
    ({!Mdl_util.Timer.now_ns}); spans opened while another is open nest
    inside it, giving the per-level / per-fixpoint / per-pass flame
    structure of one [Compositional.lump] run.  Completed spans are
    buffered in memory and exported with {!write_file} /
    {!export_json} in the Chrome {e trace event format} (duration
    events, [ph = "X"]), which loads directly in [chrome://tracing],
    Perfetto and [speedscope].

    {b Contexts.}  All recording state lives in a {!Ctx.t} — span
    stack, event buffer or streaming sink, Gc-sampling flag, epoch.
    The module-level functions below operate on the thread's {e
    current} context: a process-wide default, unless the calling thread
    has installed its own with {!with_ctx} (as [lumpd] does per traced
    request, so two requests tracing concurrently can never interleave
    spans).  A context is {b single-owner}: exactly one thread records
    into it at a time; there is no internal locking.  Two threads (or
    domains) recording into two {e different} contexts are fully
    independent.

    {b Overhead.}  Tracing is {e off} by default.  Every instrumentation
    site checks {!enabled} first — one atomic load plus one context
    field load while no ambient context is installed anywhere — so the
    disabled cost is a predictable branch per candidate span; no
    timestamps are read, nothing allocates, and pipeline outputs are
    bit-identical with tracing on or off (pinned by the test suite).

    {b Gc sampling.}  While enabled (and unless switched off at
    {!start}), every span also records the [Gc.quick_stat] deltas across
    its extent — minor/major/promoted words and minor/major collection
    counts — as span arguments ([gc.minor_words], ...), so cache-miss
    allocation is visible phase by phase in the trace viewer. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Span-argument values, mapped to the corresponding JSON types. *)

exception Nesting_error of string
(** Raised by {!end_span} when closing does not match the innermost
    open span (or none is open) — spans must close strictly LIFO.  The
    check is per-context: a mismatch in one context cannot be caused by
    (or observed from) spans open in another. *)

(** {1 Trace contexts}

    An explicit recording context.  Every operation of the module-level
    API exists here with the context as an explicit argument and
    identical semantics (including the exact {!Nesting_error}
    messages); the module-level functions are thin wrappers applying
    the thread's current context. *)

module Ctx : sig
  type t
  (** One recording context: enabled flag, Gc-sampling flag, epoch,
      event buffer, span stack, optional streaming sink.  Single-owner;
      see the module preamble. *)

  val create : unit -> t
  (** A fresh disabled context with an empty buffer and no epoch (the
      epoch is fixed by its first {!start}/{!start_streaming}). *)

  val enabled : t -> bool

  val start : ?gc:bool -> t -> unit

  val start_streaming : ?gc:bool -> ?close:(unit -> unit) -> t -> (string -> unit) -> unit

  val stream_to_file : ?gc:bool -> t -> string -> unit

  val streaming : t -> bool

  val streamed_count : t -> int

  val stop : t -> unit

  val resume : t -> unit

  val with_span :
    ?cat:string -> ?args:(string * value) list -> t -> string -> (unit -> 'a) -> 'a

  val begin_span : ?cat:string -> ?args:(string * value) list -> t -> string -> unit

  val end_span : t -> string -> unit

  val add_args : t -> (string * value) list -> unit

  val open_spans : t -> int

  val span_count : t -> int

  val iter_events :
    ?from:int ->
    t ->
    (name:string ->
    cat:string ->
    start_ns:int64 ->
    dur_ns:int64 ->
    depth:int ->
    args:(string * value) list ->
    unit) ->
    unit

  val phase_totals : ?from:int -> t -> (string * float) list

  val span_rollup : ?from:int -> t -> (string * int * float) list
  (** Per-span-name [(name, count, inclusive seconds)] over the
      buffered events, sorted by name — the rollup [lumpd] returns for
      [trace: true] requests.  Like {!phase_totals}, nested spans each
      count their own full extent. *)

  val export_json : t -> Buffer.t -> unit

  val write_file : t -> string -> unit

  val clear : t -> unit
end

val with_ctx : Ctx.t -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f ()] with [ctx] installed as the calling
    thread's current context: every module-level call made by this
    thread during [f] (including from the instrumented libraries)
    records into [ctx] instead of the default context.  Installs nest
    — the previous installation (if any) is restored when [f] returns
    or raises.  The installation is {e per-thread}: threads spawned by
    [f] see the default context (the engine's domain-parallel paths are
    disabled while tracing, so a traced run's spans all occur on the
    installing thread). *)

val enabled : unit -> bool
(** Whether spans are currently being recorded in the thread's current
    context. *)

val start : ?gc:bool -> unit -> unit
(** [start ()] clears the buffer and enables recording in {e buffered}
    mode; [gc:false] switches the per-span allocation sampling off
    (default on).  An active streaming sink (see {!start_streaming}) is
    terminated and closed first. *)

(** {2 Streaming sink mode}

    Buffered mode holds every completed span until export — fine for
    one lump run, unbounded for a long-running sweep or a daemon.  In
    {e streaming} mode each span is rendered as one Chrome trace-event
    JSON object the moment it closes and handed to a sink, so memory
    stays bounded by the deepest open nest regardless of how many spans
    the run produces ({!span_count} stays [0]; {!streamed_count} counts
    the emitted events).  The sink receives the chunks of a valid JSON
    array document ([[evt, evt, ...]] — the Chrome {e JSON array
    format}, which every trace viewer accepts), terminated when {!stop}
    (or a later {!start}/{!start_streaming}) closes the sink.  Streamed
    spans do not appear in {!iter_events}/{!phase_totals}/
    {!export_json}. *)

val start_streaming :
  ?gc:bool -> ?close:(unit -> unit) -> (string -> unit) -> unit
(** [start_streaming emit] clears the buffer and enables recording in
    streaming mode: every completed span is passed to [emit] as one
    JSON chunk.  [close] (default a no-op) runs after the array
    terminator is emitted — use it to release the sink's resource.
    [gc] as in {!start}. *)

val stream_to_file : ?gc:bool -> string -> unit
(** [stream_to_file path] is {!start_streaming} into [path]: spans are
    appended to the file as they close and the file is completed and
    closed at {!stop} — constant memory at any span count
    ([lumpd --trace], [lumpmd --stream-trace]). *)

val streaming : unit -> bool
(** Whether a streaming sink is currently installed. *)

val streamed_count : unit -> int
(** Events emitted through the streaming sink since it was installed. *)

val stop : unit -> unit
(** Disable recording, {e keeping} buffered events for export.  In
    streaming mode, additionally emit the array terminator and close
    the sink.
    @raise Nesting_error if a span is still open. *)

val resume : unit -> unit
(** Re-enable recording without clearing the buffer — lets a driver
    trace selected regions (e.g. one instrumented run per bench
    scenario) into one combined export. *)

val with_span :
  ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span named [name] (category
    [cat], default ["mdl"]).  When disabled, exactly [f ()].  The span
    is closed even when [f] raises.  [args] seed the span's arguments;
    {!add_args} appends more from inside [f]. *)

val begin_span : ?cat:string -> ?args:(string * value) list -> string -> unit
(** Lower-level interface for spans that cannot wrap a closure (e.g.
    around one iteration of an imperative worklist loop).  No-op when
    disabled.  Must be balanced by {!end_span} with the same name. *)

val end_span : string -> unit
(** Close the innermost open span.  No-op when disabled.
    @raise Nesting_error if the innermost open span is not [name]. *)

val add_args : (string * value) list -> unit
(** Append arguments to the innermost open span; ignored when disabled
    or when no span is open (so instrumentation sites need no guard). *)

val open_spans : unit -> int
(** Number of currently open (unclosed) spans. *)

val span_count : unit -> int
(** Number of completed spans in the buffer. *)

val iter_events :
  ?from:int ->
  (name:string ->
  cat:string ->
  start_ns:int64 ->
  dur_ns:int64 ->
  depth:int ->
  args:(string * value) list ->
  unit) ->
  unit
(** Iterate completed spans in completion order; [from] skips the first
    [from] events (pair with {!span_count} to visit only the spans a
    region of interest produced).  [depth] is the nesting depth at which
    the span ran (0 = top level). *)

val phase_totals : ?from:int -> unit -> (string * float) list
(** Total {e inclusive} seconds per span name over the buffered events
    (from index [from]), sorted by name — the per-phase rollup embedded
    in [BENCH_refine.json].  Nested spans each count their own full
    extent, so parent phases are not the sum of their children. *)

val export_json : Buffer.t -> unit
(** Append the Chrome trace JSON document ([{"traceEvents": [...]}],
    timestamps in microseconds relative to the first {!start}) to the
    buffer. *)

val write_file : string -> unit
(** {!export_json} to a file. *)

val clear : unit -> unit
(** Drop all buffered events and open spans; recording state is
    unchanged. *)
