(* lumpd: the long-running lumping service.

   Boots a daemon on a Unix-domain (or TCP) socket speaking the framed
   newline-JSON protocol of docs/PROTOCOL.md, keeps every submitted
   model's sweep engine (its level fixed-point and rebuild memos) warm
   across requests and connections, and optionally serves Prometheus
   metrics on a second port.

   Examples:
     dune exec bin/lumpd.exe -- --socket /tmp/lumpd.sock --metrics-port 9464
     dune exec bin/lumpd.exe -- --tcp 127.0.0.1:7464 --timeout 30000
     printf '%s\n%s\n' 21 '{"verb":"stats","id":"1"}' | nc -U /tmp/lumpd.sock *)

module Server = Mdl_serve.Server
module Trace = Mdl_obs.Trace

let run socket tcp metrics_port max_inflight queue_capacity timeout_ms trace_file
    stream_trace access_log verbose =
  Mdl_obs.Logging.setup ~verbose ();
  let listen =
    match tcp with
    | Some (host, port) -> Server.Tcp (host, port)
    | None -> Server.Unix_socket socket
  in
  let tracing = trace_file <> None || stream_trace <> None in
  (match (stream_trace, trace_file) with
  | Some path, _ ->
      Trace.stream_to_file path;
      Printf.printf "streaming Chrome trace to %s\n%!" path
  | None, Some _ -> Trace.start ()
  | None, None -> ());
  let max_inflight =
    if tracing && max_inflight > 1 then begin
      (* The trace buffer is single-domain and spans must nest LIFO;
         concurrent requests would interleave them. *)
      Printf.printf "tracing forces --max-inflight 1\n%!";
      1
    end
    else max_inflight
  in
  let config =
    {
      (Server.default_config ~listen) with
      Server.metrics_port;
      max_inflight;
      queue_capacity;
      default_deadline_ms = timeout_ms;
      access_log;
    }
  in
  let server = Server.start config in
  (match Server.address server with
  | Server.Unix_socket path -> Printf.printf "lumpd listening on unix:%s\n%!" path
  | Server.Tcp (host, port) -> Printf.printf "lumpd listening on %s:%d\n%!" host port);
  Option.iter
    (fun p -> Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!" p)
    (Server.metrics_port server);
  let drain _ = Server.request_drain server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  Server.wait server;
  (match trace_file with
  | Some path ->
      Trace.stop ();
      Trace.write_file path;
      Printf.printf "Chrome trace (%d spans) written to %s\n%!" (Trace.span_count ())
        path
  | None -> if stream_trace <> None then Trace.stop ());
  Printf.printf "lumpd drained; bye\n%!"

open Cmdliner

(* Flag values are checked by their converters, so a bad one is a usage
   error that names the flag (exit 124) rather than a value the server
   rejects, or silently truncates, after boot. *)
let int_in ?(max = max_int) min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | _ when max = max_int ->
        Error (Printf.sprintf "invalid value '%s', expected an integer >= %d" s min)
    | _ -> Error (Printf.sprintf "invalid value '%s', expected an integer in %d-%d" s min max)
  in
  Arg.conv' (parse, Format.pp_print_int)

let port = int_in ~max:65535 0

(* HOST:PORT, or a bare PORT on 127.0.0.1. *)
let tcp_address =
  let parse spec =
    let host, p =
      match String.rindex_opt spec ':' with
      | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
      | None -> ("", spec)
    in
    Result.map
      (fun p -> ((if host = "" then "127.0.0.1" else host), p))
      (Arg.conv_parser port p)
  in
  Arg.conv ~docv:"HOST:PORT" (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let socket_arg =
  Arg.(value & opt string "/tmp/lumpd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on this Unix-domain socket (removed on exit).")

let tcp_arg =
  Arg.(value & opt (some tcp_address) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Listen on TCP instead of the Unix socket; port $(b,0) picks an \
                 ephemeral port (printed at boot).")

let metrics_arg =
  Arg.(value & opt (some port) None
       & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve Prometheus text-format metrics on \
                 http://127.0.0.1:$(docv)/metrics; $(b,0) picks an ephemeral port.")

let inflight_arg =
  Arg.(value & opt (int_in 1) 1
       & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Execution slots: requests running concurrently (default 1; lumping \
                 requests serialise per model anyway).")

let queue_arg =
  Arg.(value & opt (int_in 0) 32
       & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Waiting requests beyond the slots before new ones are rejected \
                 with $(b,queue_full).")

let timeout_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout" ] ~docv:"MS"
           ~doc:"Default per-request deadline in milliseconds for requests that \
                 carry no $(b,deadline_ms); unlimited when omitted.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Buffer request spans and write them as Chrome trace-event JSON to \
                 $(docv) at shutdown (forces $(b,--max-inflight 1)).")

let stream_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "stream-trace" ] ~docv:"FILE"
           ~doc:"Stream spans to $(docv) as they close — bounded memory however long \
                 the daemon runs (forces $(b,--max-inflight 1)); takes precedence \
                 over $(b,--trace).")

let access_log_arg =
  Arg.(value & opt (some string) None
       & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one structured JSON line per request to $(docv): timestamp, \
                 server request id, client id, verb, model, queue and execution \
                 nanoseconds, status, response bytes.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")

let cmd =
  Cmd.v
    (Cmd.info "lumpd" ~version:"%%VERSION%%"
       ~doc:"Long-running lumping service over a framed JSON protocol."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Boots a daemon that lumps matrix-diagram Markov models on demand, \
              keeping each model's sweep engine (its level fixed-point and \
              rebuild memos) warm across requests and connections.  The wire protocol is \
              documented in docs/PROTOCOL.md.";
         ])
    Term.(
      const run $ socket_arg $ tcp_arg $ metrics_arg $ inflight_arg $ queue_arg
      $ timeout_arg $ trace_arg $ stream_trace_arg $ access_log_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
