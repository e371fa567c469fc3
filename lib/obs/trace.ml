module Timer = Mdl_util.Timer
module Dynarray = Mdl_util.Dynarray

type value = Int of int | Float of float | Str of string | Bool of bool

exception Nesting_error of string

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;
  ev_args : (string * value) list;
}

(* An open span.  Gc words are sampled with [Gc.quick_stat] (no heap
   walk); the floats are cumulative word counters, so deltas across the
   span are exact even through collections. *)
type frame = {
  f_name : string;
  f_cat : string;
  f_start_ns : int64;
  mutable f_args : (string * value) list; (* reverse order *)
  f_minor_w : float;
  f_promoted_w : float;
  f_major_w : float;
  f_minor_c : int;
  f_major_c : int;
}

(* ---- Chrome trace_event rendering (context-independent) ---- *)

let escape_json buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no nan/infinity literals; clamp to strings. *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else begin
        Buffer.add_char buf '"';
        Buffer.add_string buf (string_of_float f);
        Buffer.add_char buf '"'
      end
  | Str s ->
      Buffer.add_char buf '"';
      escape_json buf s;
      Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (string_of_bool b)

(* One duration event ([ph = "X"]) as a JSON object, timestamps in
   microseconds relative to the trace epoch — shared by the buffered
   export and the streaming sink. *)
let render_event buf ~t0 ~name ~cat ~start_ns ~dur_ns ~depth ~args =
  Buffer.add_string buf "{\"name\": \"";
  escape_json buf name;
  Buffer.add_string buf "\", \"cat\": \"";
  escape_json buf cat;
  Buffer.add_string buf
    (Printf.sprintf
       "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f"
       (Int64.to_float (Int64.sub start_ns t0) /. 1e3)
       (Int64.to_float dur_ns /. 1e3));
  Buffer.add_string buf ", \"args\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_char buf '"';
      escape_json buf k;
      Buffer.add_string buf "\": ";
      add_value buf v)
    (("depth", Int depth) :: args);
  Buffer.add_string buf "}}"

(* ---- Trace contexts ---- *)

module Ctx = struct
  (* Everything that used to be module-global mutable state, one record
     per context.  A context is single-owner: exactly one thread records
     into it at a time (the server hands each request its own context;
     the CLI tools use the shared default).  No internal locking — the
     ownership discipline is the synchronisation. *)
  type t = {
    mutable enabled : bool;
    mutable gc : bool;
    mutable epoch : int64 option; (* ns of the first [start], the trace time origin *)
    events : event Dynarray.t;
    mutable stack : frame list;
    (* Streaming sink: when set, completed spans are rendered immediately
       and handed to the sink instead of being buffered, so a long run
       traces with memory bounded by the deepest open nest, not the span
       count.  [sink_first] tracks whether the JSON array separator is
       needed; [sink_close] releases the sink's resource (file handle) at
       {!stop}. *)
    mutable sink : (string -> unit) option;
    mutable sink_close : unit -> unit;
    mutable sink_first : bool;
    mutable streamed : int;
  }

  let create () =
    {
      enabled = false;
      gc = true;
      epoch = None;
      events = Dynarray.create ();
      stack = [];
      sink = None;
      sink_close = (fun () -> ());
      sink_first = true;
      streamed = 0;
    }

  let enabled t = t.enabled

  let streaming t = t.sink <> None

  let streamed_count t = t.streamed

  let clear t =
    Dynarray.clear t.events;
    t.stack <- []

  let close_sink t =
    match t.sink with
    | None -> ()
    | Some emit ->
        emit "\n]\n";
        t.sink <- None;
        let close = t.sink_close in
        t.sink_close <- (fun () -> ());
        close ()

  let start ?(gc = true) t =
    close_sink t;
    clear t;
    t.gc <- gc;
    if t.epoch = None then t.epoch <- Some (Timer.now_ns ());
    t.enabled <- true

  let start_streaming ?(gc = true) ?(close = fun () -> ()) t emit =
    close_sink t;
    clear t;
    t.gc <- gc;
    if t.epoch = None then t.epoch <- Some (Timer.now_ns ());
    t.sink <- Some emit;
    t.sink_close <- close;
    t.sink_first <- true;
    t.streamed <- 0;
    emit "[";
    t.enabled <- true

  let stream_to_file ?gc t path =
    let oc = open_out path in
    start_streaming ?gc ~close:(fun () -> close_out oc) t (output_string oc)

  let stop t =
    (match t.stack with
    | [] -> ()
    | f :: _ -> raise (Nesting_error (Printf.sprintf "Trace.stop: span %S still open" f.f_name)));
    close_sink t;
    t.enabled <- false

  let resume t =
    if t.epoch = None then t.epoch <- Some (Timer.now_ns ());
    t.enabled <- true

  let begin_span ?(cat = "mdl") ?(args = []) t name =
    if t.enabled then begin
      let mw, pw, jw, mc, jc =
        if t.gc then
          let g = Gc.quick_stat () in
          ( g.Gc.minor_words,
            g.Gc.promoted_words,
            g.Gc.major_words,
            g.Gc.minor_collections,
            g.Gc.major_collections )
        else (0.0, 0.0, 0.0, 0, 0)
      in
      t.stack <-
        {
          f_name = name;
          f_cat = cat;
          f_start_ns = Timer.now_ns ();
          f_args = List.rev args;
          f_minor_w = mw;
          f_promoted_w = pw;
          f_major_w = jw;
          f_minor_c = mc;
          f_major_c = jc;
        }
        :: t.stack
    end

  let stream_event t ev =
    match t.sink with
    | None -> false
    | Some emit ->
        let t0 = match t.epoch with Some t -> t | None -> 0L in
        let buf = Buffer.create 256 in
        if t.sink_first then t.sink_first <- false else Buffer.add_char buf ',';
        Buffer.add_string buf "\n  ";
        render_event buf ~t0 ~name:ev.ev_name ~cat:ev.ev_cat ~start_ns:ev.ev_start_ns
          ~dur_ns:ev.ev_dur_ns ~depth:ev.ev_depth ~args:ev.ev_args;
        emit (Buffer.contents buf);
        t.streamed <- t.streamed + 1;
        true

  let end_span t name =
    if t.enabled then begin
      match t.stack with
      | [] ->
          raise
            (Nesting_error (Printf.sprintf "Trace.end_span: %S closed with no span open" name))
      | f :: rest ->
          if f.f_name <> name then
            raise
              (Nesting_error
                 (Printf.sprintf "Trace.end_span: %S closed while %S is innermost" name
                    f.f_name));
          let now = Timer.now_ns () in
          let args = List.rev f.f_args in
          let args =
            if t.gc then begin
              let g = Gc.quick_stat () in
              args
              @ [
                  ("gc.minor_words", Float (g.Gc.minor_words -. f.f_minor_w));
                  ("gc.promoted_words", Float (g.Gc.promoted_words -. f.f_promoted_w));
                  ("gc.major_words", Float (g.Gc.major_words -. f.f_major_w));
                  ("gc.minor_collections", Int (g.Gc.minor_collections - f.f_minor_c));
                  ("gc.major_collections", Int (g.Gc.major_collections - f.f_major_c));
                ]
            end
            else args
          in
          t.stack <- rest;
          let ev =
            {
              ev_name = f.f_name;
              ev_cat = f.f_cat;
              ev_start_ns = f.f_start_ns;
              ev_dur_ns = Int64.sub now f.f_start_ns;
              ev_depth = List.length rest;
              ev_args = args;
            }
          in
          if not (stream_event t ev) then Dynarray.push t.events ev
    end

  let with_span ?cat ?args t name f =
    if not t.enabled then f ()
    else begin
      begin_span ?cat ?args t name;
      Fun.protect
        ~finally:(fun () ->
          (* Unwind to this span even when [f] leaked opens (it cannot via
             [with_span] itself, but [begin_span] users might): closing an
             outer span with inner ones open is the caller's bug and
             [end_span] reports it. *)
          end_span t name)
        f
    end

  let add_args t args =
    if t.enabled then
      match t.stack with
      | [] -> ()
      | f :: _ -> f.f_args <- List.rev_append args f.f_args

  let open_spans t = List.length t.stack

  let span_count t = Dynarray.length t.events

  let iter_events ?(from = 0) t f =
    Dynarray.iteri
      (fun i ev ->
        if i >= from then
          f ~name:ev.ev_name ~cat:ev.ev_cat ~start_ns:ev.ev_start_ns ~dur_ns:ev.ev_dur_ns
            ~depth:ev.ev_depth ~args:ev.ev_args)
      t.events

  let phase_totals ?from t =
    let totals = Hashtbl.create 16 in
    iter_events ?from t (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth:_ ~args:_ ->
        let s = Int64.to_float dur_ns *. 1e-9 in
        Hashtbl.replace totals name
          (s +. Option.value ~default:0.0 (Hashtbl.find_opt totals name)));
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) totals []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Per-span inclusive (count, seconds) rollup, sorted by name — the
     shape the server returns for [trace: true] requests. *)
  let span_rollup ?from t =
    let totals = Hashtbl.create 16 in
    iter_events ?from t (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth:_ ~args:_ ->
        let s = Int64.to_float dur_ns *. 1e-9 in
        let n, acc =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals name)
        in
        Hashtbl.replace totals name (n + 1, acc +. s));
    Hashtbl.fold (fun name (n, s) acc -> (name, n, s) :: acc) totals []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

  (* ---- Chrome trace_event export (buffered mode) ---- *)

  let export_json t buf =
    let t0 = match t.epoch with Some t -> t | None -> 0L in
    Buffer.add_string buf "{\n  \"traceEvents\": [";
    let first = ref true in
    iter_events t (fun ~name ~cat ~start_ns ~dur_ns ~depth ~args ->
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_string buf "\n    ";
        (* Duration events with microsecond timestamps relative to the
           trace epoch; one process, one thread — the nesting carries the
           hierarchy. *)
        render_event buf ~t0 ~name ~cat ~start_ns ~dur_ns ~depth ~args);
    Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n"

  let write_file t path =
    let buf = Buffer.create 65536 in
    export_json t buf;
    let oc = open_out path in
    Buffer.output_buffer oc buf;
    close_out oc
end

(* ---- The default context and the per-thread ambient table ----

   The module-level API below resolves a {e current} context: the
   default one, unless the calling thread has installed its own with
   [with_ctx] (the server does, per traced request).  The common case —
   no ambient context anywhere, tracing off — must stay as close to the
   old one-bool-load fast path as possible, so installs are counted in
   an atomic and [current] short-circuits to [default] while the count
   is zero.  The table itself is only consulted on traced-request
   threads, which are slow paths by definition. *)

let default = Ctx.create ()

let ambient_count = Atomic.make 0

let ambient_lock = Mutex.create ()

(* Thread.id -> installed context.  Keyed per-thread, not per-domain:
   lumpd's request handlers are sibling threads of one domain, so
   [Domain.DLS] could not tell them apart. *)
let ambient : (int, Ctx.t) Hashtbl.t = Hashtbl.create 8

let current () =
  if Atomic.get ambient_count = 0 then default
  else
    let id = Thread.id (Thread.self ()) in
    Mutex.protect ambient_lock (fun () ->
        match Hashtbl.find_opt ambient id with Some c -> c | None -> default)

let with_ctx ctx f =
  let id = Thread.id (Thread.self ()) in
  let prev =
    Mutex.protect ambient_lock (fun () ->
        let prev = Hashtbl.find_opt ambient id in
        Hashtbl.replace ambient id ctx;
        prev)
  in
  Atomic.incr ambient_count;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect ambient_lock (fun () ->
          match prev with
          | Some p -> Hashtbl.replace ambient id p
          | None -> Hashtbl.remove ambient id);
      Atomic.decr ambient_count)
    f

(* ---- Module-level API: thin wrappers over the current context ---- *)

let enabled () = Ctx.enabled (current ())

let streaming () = Ctx.streaming (current ())

let streamed_count () = Ctx.streamed_count (current ())

let clear () = Ctx.clear (current ())

let start ?gc () = Ctx.start ?gc (current ())

let start_streaming ?gc ?close emit = Ctx.start_streaming ?gc ?close (current ()) emit

let stream_to_file ?gc path = Ctx.stream_to_file ?gc (current ()) path

let stop () = Ctx.stop (current ())

let resume () = Ctx.resume (current ())

let begin_span ?cat ?args name = Ctx.begin_span ?cat ?args (current ()) name

let end_span name = Ctx.end_span (current ()) name

let with_span ?cat ?args name f = Ctx.with_span ?cat ?args (current ()) name f

let add_args args = Ctx.add_args (current ()) args

let open_spans () = Ctx.open_spans (current ())

let span_count () = Ctx.span_count (current ())

let iter_events ?from f = Ctx.iter_events ?from (current ()) f

let phase_totals ?from () = Ctx.phase_totals ?from (current ())

let export_json buf = Ctx.export_json (current ()) buf

let write_file path = Ctx.write_file (current ()) path
