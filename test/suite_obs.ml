(* Tests for the observability layer (Mdl_obs): hierarchical spans and
   their Chrome trace-event export, the metrics registry, and the
   contract that instrumentation never changes pipeline outputs.

   The trace buffer and the registry are process-global, so every test
   restores the disabled/empty state it found. *)

module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Logging = Mdl_obs.Logging
module Csr = Mdl_sparse.Csr
module Ctmc = Mdl_ctmc.Ctmc
module Solver = Mdl_ctmc.Solver
module Partition = Mdl_partition.Partition
module Md = Mdl_md.Md
module Kronecker = Mdl_kron.Kronecker
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional

let partition_testable = Alcotest.testable Partition.pp Partition.equal

(* ----- a tiny JSON parser, enough to validate the trace export -----

   The repo deliberately has no JSON dependency (the exporters emit by
   hand), so the well-formedness test parses by hand too. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              Buffer.add_string b (Printf.sprintf "\\u%s" hex)
          | Some c ->
              advance ();
              Buffer.add_char b
                (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c)
          | None -> fail "dangling escape");
          go ()
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON member %S" name)
  | _ -> Alcotest.failf "not a JSON object (looking for %S)" name

(* ----- shared fixture: the 2-level Kronecker model of suite_core ----- *)

let concrete_md () =
  let sizes = [| 2; 3 |] in
  let move_01 = Csr.of_dense [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  let move_10 = Csr.of_dense [| [| 0.; 0. |]; [| 1.; 0. |] |] in
  let work =
    Csr.of_dense [| [| 0.; 1.; 1. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |]
  in
  let k =
    Kronecker.make ~sizes
      [
        { Kronecker.label = "up"; rate = 2.0; locals = [| move_01; Csr.identity 3 |] };
        { Kronecker.label = "down"; rate = 1.0; locals = [| move_10; Csr.identity 3 |] };
        { Kronecker.label = "work"; rate = 3.0; locals = [| Csr.identity 2; work |] };
      ]
  in
  (Mdl_oracle.Gen_md.event_chains k, sizes)

let lump_concrete () =
  let md, sizes = concrete_md () in
  let rewards = [ Decomposed.constant ~sizes 1.0 ] in
  let initial = Decomposed.constant ~sizes 1.0 in
  Compositional.lump Ordinary md ~rewards ~initial

(* ----- spans ----- *)

let test_span_nesting () =
  Trace.start ~gc:false ();
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () ->
            Alcotest.(check int) "two open spans" 2 (Trace.open_spans ());
            17))
  in
  Alcotest.(check int) "result through spans" 17 v;
  Alcotest.(check int) "all closed" 0 (Trace.open_spans ());
  Alcotest.(check int) "two completed" 2 (Trace.span_count ());
  (* completion order: inner closes first, at depth 1 *)
  let seen = ref [] in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth ~args:_ ->
      Alcotest.(check bool) "duration non-negative" true (Int64.compare dur_ns 0L >= 0);
      seen := (name, depth) :: !seen);
  Alcotest.(check (list (pair string int)))
    "names and depths" [ ("inner", 1); ("outer", 0) ] (List.rev !seen);
  Trace.stop ();
  Trace.clear ()

let test_span_nesting_errors () =
  Trace.start ~gc:false ();
  Alcotest.check_raises "end with nothing open"
    (Trace.Nesting_error "Trace.end_span: \"ghost\" closed with no span open")
    (fun () -> Trace.end_span "ghost");
  Trace.begin_span "a";
  Alcotest.check_raises "mismatched close"
    (Trace.Nesting_error "Trace.end_span: \"b\" closed while \"a\" is innermost")
    (fun () -> Trace.end_span "b");
  Trace.end_span "a";
  Alcotest.check_raises "stop with open span"
    (Trace.Nesting_error "Trace.stop: span \"dangling\" still open")
    (fun () ->
      Trace.begin_span "dangling";
      Trace.stop ());
  (* recover the global state for the remaining tests *)
  Trace.end_span "dangling";
  Trace.stop ();
  Trace.clear ()

let test_span_exception_safety () =
  Trace.start ~gc:false ();
  (try Trace.with_span "boom" (fun () -> failwith "inside") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Trace.open_spans ());
  Alcotest.(check int) "span recorded" 1 (Trace.span_count ());
  Trace.stop ();
  Trace.clear ()

let test_disabled_is_noop () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let n0 = Trace.span_count () in
  let v = Trace.with_span "ignored" (fun () -> 3) in
  Trace.begin_span "ignored";
  Trace.end_span "mismatch is fine when disabled";
  Trace.add_args [ ("k", Trace.Int 1) ];
  Alcotest.(check int) "value still returned" 3 v;
  Alcotest.(check int) "nothing recorded" n0 (Trace.span_count ())

let test_chrome_trace_json () =
  Trace.start ~gc:true ();
  Trace.with_span ~cat:"test" ~args:[ ("n", Trace.Int 42) ] "alpha" (fun () ->
      Trace.with_span "beta \"quoted\"\n" (fun () -> Sys.opaque_identity ()));
  Trace.stop ();
  let b = Buffer.create 256 in
  Trace.export_json b;
  let doc = parse_json (Buffer.contents b) in
  let events =
    match member "traceEvents" doc with
    | Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  List.iter
    (fun ev ->
      (match member "ph" ev with
      | Str "X" -> ()
      | _ -> Alcotest.fail "ph must be X (complete duration event)");
      (match member "ts" ev with
      | Num ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | _ -> Alcotest.fail "ts not a number");
      (match member "dur" ev with
      | Num dur -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
      | _ -> Alcotest.fail "dur not a number");
      match (member "name" ev, member "cat" ev, member "args" ev) with
      | Str _, Str _, Obj _ -> ()
      | _ -> Alcotest.fail "name/cat/args of wrong type")
    events;
  (* span arguments and gc samples survive the round trip *)
  let alpha = List.find (fun ev -> member "name" ev = Str "alpha") events in
  (match member "n" (member "args" alpha) with
  | Num 42.0 -> ()
  | _ -> Alcotest.fail "span argument lost");
  (match member "gc.minor_words" (member "args" alpha) with
  | Num w -> Alcotest.(check bool) "gc words sampled" true (w >= 0.0)
  | _ -> Alcotest.fail "gc.minor_words missing");
  ignore (List.find (fun ev -> member "name" ev = Str "beta \"quoted\"\n") events);
  Trace.clear ()

(* A span's minor words include what is still in the minor heap: OCaml
   5.1's [Gc.quick_stat] adds a minor heap's words only when it is
   collected, so a span that allocates between two collections used to
   read 0. *)
let test_span_minor_words () =
  Trace.start ~gc:true ();
  Gc.minor ();
  let kept = ref [] in
  Trace.with_span "alloc" (fun () ->
      for i = 1 to 1000 do
        kept := i :: !kept
      done);
  Trace.stop ();
  ignore (Sys.opaque_identity !kept);
  let words = ref 0.0 in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth:_ ~args ->
      match (name, List.assoc_opt "gc.minor_words" args) with
      | "alloc", Some (Trace.Float w) -> words := w
      | _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "1000 conses read %.0f minor words, at least 3000" !words)
    true (!words >= 3000.0);
  Trace.clear ()

let test_phase_totals () =
  Trace.start ~gc:false ();
  Trace.with_span "p" (fun () -> Trace.with_span "q" (fun () -> ()));
  Trace.with_span "q" (fun () -> ());
  Trace.stop ();
  let totals = Trace.phase_totals () in
  Alcotest.(check (list string)) "phase names sorted" [ "p"; "q" ]
    (List.map fst totals);
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "total non-negative" true (s >= 0.0))
    totals;
  (* [from] scopes the rollup to a suffix of the buffer *)
  let from = Trace.span_count () in
  Trace.resume ();
  Trace.with_span "r" (fun () -> ());
  Trace.stop ();
  Alcotest.(check (list string)) "scoped rollup" [ "r" ]
    (List.map fst (Trace.phase_totals ~from ()));
  Trace.clear ()

(* ----- trace contexts ----- *)

(* Two contexts recorded into from two parallel domains: fully
   independent span trees, correctly nested, nothing shared. *)
let test_ctx_parallel_domains () =
  let run tag =
    let ctx = Trace.Ctx.create () in
    Trace.Ctx.start ~gc:false ctx;
    for i = 1 to 50 do
      Trace.Ctx.with_span ctx (tag ^ ".outer") (fun () ->
          ignore
            (Trace.Ctx.with_span ctx (tag ^ ".inner") (fun () ->
                 Sys.opaque_identity i)))
    done;
    Trace.Ctx.stop ctx;
    ctx
  in
  let d1 = Domain.spawn (fun () -> run "a") in
  let d2 = Domain.spawn (fun () -> run "b") in
  let c1 = Domain.join d1 in
  let c2 = Domain.join d2 in
  List.iter
    (fun (tag, ctx) ->
      Alcotest.(check int) "100 spans" 100 (Trace.Ctx.span_count ctx);
      Trace.Ctx.iter_events ctx (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth ~args:_ ->
          Alcotest.(check bool) "own tag only" true
            (String.length name > 2 && String.sub name 0 2 = tag ^ ".");
          Alcotest.(check int) "nesting depth" (if name = tag ^ ".inner" then 1 else 0) depth);
      Alcotest.(check (list (pair string int)))
        "rollup names and counts"
        [ (tag ^ ".inner", 50); (tag ^ ".outer", 50) ]
        (List.map (fun (n, c, _) -> (n, c)) (Trace.Ctx.span_rollup ctx));
      List.iter
        (fun (_, _, s) -> Alcotest.(check bool) "rollup seconds >= 0" true (s >= 0.0))
        (Trace.Ctx.span_rollup ctx))
    [ ("a", c1); ("b", c2) ];
  Alcotest.(check bool) "default context untouched" false (Trace.enabled ())

(* [with_ctx] reroutes the module-level API for the installing thread
   only, restores on exit, and nesting errors stay per-context. *)
let test_with_ctx_install () =
  let n0 = Trace.span_count () in
  let ctx = Trace.Ctx.create () in
  Trace.Ctx.start ~gc:false ctx;
  let v =
    Trace.with_ctx ctx (fun () ->
        Alcotest.(check bool) "enabled under install" true (Trace.enabled ());
        Trace.with_span "routed" (fun () -> 11))
  in
  Alcotest.(check int) "value through install" 11 v;
  Alcotest.(check bool) "default disabled again" false (Trace.enabled ());
  Alcotest.(check int) "default buffer untouched" n0 (Trace.span_count ());
  Trace.Ctx.stop ctx;
  Alcotest.(check int) "span landed in ctx" 1 (Trace.Ctx.span_count ctx);
  (* nested installs restore the previous binding *)
  let inner = Trace.Ctx.create () in
  Trace.Ctx.start ~gc:false inner;
  Trace.Ctx.resume ctx;
  Trace.with_ctx ctx (fun () ->
      Trace.with_ctx inner (fun () -> Trace.with_span "deep" (fun () -> ()));
      Trace.with_span "outer-again" (fun () -> ()));
  Trace.Ctx.stop ctx;
  Trace.Ctx.stop inner;
  Alcotest.(check int) "inner got its span" 1 (Trace.Ctx.span_count inner);
  Alcotest.(check int) "outer got the second" 2 (Trace.Ctx.span_count ctx);
  (* the Nesting_error fires against the context's own stack *)
  let c2 = Trace.Ctx.create () in
  Trace.Ctx.start ~gc:false c2;
  Trace.Ctx.begin_span c2 "open";
  Alcotest.check_raises "per-context mismatch"
    (Trace.Nesting_error "Trace.end_span: \"wrong\" closed while \"open\" is innermost")
    (fun () -> Trace.Ctx.end_span c2 "wrong");
  Trace.Ctx.end_span c2 "open";
  Trace.Ctx.stop c2

(* ----- metrics registry ----- *)

let test_metrics_counters () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter "test.counter" in
  let c' = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.add c' 4;
  Alcotest.(check int) "shared cell" 5 (Metrics.counter_value "test.counter");
  Alcotest.(check int) "unregistered reads 0" 0 (Metrics.counter_value "test.absent");
  Metrics.set_enabled false;
  Metrics.incr c;
  Alcotest.(check int) "disabled updates dropped" 5
    (Metrics.counter_value "test.counter");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: \"test.counter\" is registered as another metric kind")
    (fun () -> ignore (Metrics.gauge "test.counter"));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value "test.counter")

let test_metrics_gauges () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Metrics.gauge_value "test.gauge");
  Metrics.set_max g 1.0;
  Alcotest.(check (float 0.0)) "set_max keeps max" 2.5
    (Metrics.gauge_value "test.gauge");
  Metrics.set_max g 7.0;
  Alcotest.(check (float 0.0)) "set_max raises" 7.0 (Metrics.gauge_value "test.gauge");
  Metrics.set_enabled false;
  Metrics.reset ()

let test_log_buckets () =
  let b = Metrics.log_buckets ~lo:1e-3 ~hi:1.0 ~per_decade:3 in
  Alcotest.(check bool) "strictly increasing" true
    (Array.for_all2 (fun x y -> x < y)
       (Array.sub b 0 (Array.length b - 1))
       (Array.sub b 1 (Array.length b - 1)));
  Alcotest.(check (float 1e-9)) "starts at lo" 1e-3 b.(0);
  Alcotest.(check bool) "covers hi" true (b.(Array.length b - 1) >= 1.0);
  (* 3 per decade over 3 decades: ratio between consecutive bounds is
     10^(1/3) *)
  Alcotest.(check (float 1e-6)) "log step" (Float.pow 10.0 (1.0 /. 3.0)) (b.(1) /. b.(0));
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Metrics.log_buckets: need 0 < lo < hi and per_decade >= 1")
    (fun () -> ignore (Metrics.log_buckets ~lo:1.0 ~hi:0.5 ~per_decade:3))

let test_metrics_histograms () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  let count, sum = Metrics.histogram_stats "test.hist" in
  Alcotest.(check int) "count" 4 count;
  Alcotest.(check (float 1e-9)) "sum" 555.5 sum;
  let buckets = Metrics.histogram_buckets "test.hist" in
  Alcotest.(check int) "bucket count incl. overflow" 4 (Array.length buckets);
  Alcotest.(check (float 0.0)) "first bound" 1.0 (fst buckets.(0));
  Array.iter (fun (_, c) -> Alcotest.(check int) "one per bucket" 1 c) buckets;
  Alcotest.(check (float 0.0)) "overflow is inf" Float.infinity
    (fst buckets.(Array.length buckets - 1));
  (* re-registration with the same bounds is idempotent, different
     bounds are a programming error *)
  ignore (Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.hist");
  Alcotest.check_raises "bucket clash"
    (Invalid_argument "Metrics.histogram: \"test.hist\" re-registered with different buckets")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 2.0 |] "test.hist"));
  Metrics.set_enabled false;
  Metrics.reset ()

(* The snapshot read API merges the domain shards exactly: observing
   from 4 domains concurrently loses nothing, and the quantile
   estimator is monotone and bounded by the bucket grid. *)
let test_histogram_snapshot () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let h = Metrics.histogram ~buckets:[| 0.5; 1.5; 2.5; 3.5 |] "test.snap" in
  let per_domain = 1000 in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              (* exactly representable, so the merged sum is exact in
                 any accumulation order *)
              Metrics.observe h (float_of_int d)
            done))
  in
  List.iter Domain.join ds;
  (match Metrics.histogram_snapshot "test.snap" with
  | None -> Alcotest.fail "snapshot missing"
  | Some s ->
      Alcotest.(check int) "count exact" (4 * per_domain) s.Metrics.hs_count;
      Alcotest.(check (float 0.0)) "sum exact"
        (float_of_int (per_domain * (0 + 1 + 2 + 3)))
        s.Metrics.hs_sum;
      Alcotest.(check int) "per-bucket counts exact" (4 * per_domain)
        (Array.fold_left ( + ) 0 s.Metrics.hs_counts);
      Array.iter
        (fun c -> Alcotest.(check int) "1000 per value bucket" per_domain c)
        (Array.sub s.Metrics.hs_counts 0 4);
      let p50 = Metrics.snapshot_quantile s 0.50 in
      let p95 = Metrics.snapshot_quantile s 0.95 in
      let p99 = Metrics.snapshot_quantile s 0.99 in
      Alcotest.(check bool) "quantiles monotone" true (p50 <= p95 && p95 <= p99);
      Alcotest.(check bool) "quantiles within the grid" true
        (p50 >= 0.0 && p99 <= 3.5));
  Alcotest.(check bool) "absent name" true
    (Metrics.histogram_snapshot "test.no_such" = None);
  (* empty histogram: snapshot exists, quantiles degrade to 0 *)
  ignore (Metrics.histogram ~buckets:[| 1.0 |] "test.snap_empty");
  (match Metrics.histogram_snapshot "test.snap_empty" with
  | Some s ->
      Alcotest.(check int) "empty count" 0 s.Metrics.hs_count;
      Alcotest.(check (float 0.0)) "empty quantile" 0.0
        (Metrics.snapshot_quantile s 0.5)
  | None -> Alcotest.fail "empty snapshot missing");
  Metrics.set_enabled false;
  Metrics.reset ()

let test_metrics_json () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Metrics.incr (Metrics.counter "test.json.counter");
  Metrics.set (Metrics.gauge "test.json.gauge") 1.5;
  Metrics.observe (Metrics.histogram ~buckets:[| 1.0 |] "test.json.hist") 0.5;
  Metrics.set_enabled false;
  let b = Buffer.create 256 in
  Metrics.to_json b;
  let doc = parse_json (Buffer.contents b) in
  (match member "test.json.counter" (member "counters" doc) with
  | Num 1.0 -> ()
  | _ -> Alcotest.fail "counter not in JSON");
  (match member "test.json.gauge" (member "gauges" doc) with
  | Num 1.5 -> ()
  | _ -> Alcotest.fail "gauge not in JSON");
  (match member "count" (member "test.json.hist" (member "histograms" doc)) with
  | Num 1.0 -> ()
  | _ -> Alcotest.fail "histogram not in JSON");
  Metrics.reset ()

(* ----- transient solves report through the same epilogue -----

   Regression: [transient_operator] used to bypass the [observe_run]
   epilogue, so uniformisation runs left [solver.runs] /
   [solver.iterations] untouched and the truncation deficit was
   invisible.  Pin the exact counter arithmetic of one run. *)

let test_transient_metrics_pin () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Ctmc.of_triplets 3 [ (0, 1, 2.0); (1, 2, 1.0); (2, 0, 0.5) ] in
  let _, lambda = Ctmc.uniformized c in
  let t = 0.7 and epsilon = 1e-12 in
  (* One iteration per operator application: the k=0 Poisson term reuses
     pi0, every later term costs one application. *)
  let terms = Array.length (Solver.poisson_weights ~epsilon ~qt:(lambda *. t)) in
  ignore (Solver.transient ~epsilon ~t c [| 1.0; 0.0; 0.0 |]);
  Alcotest.(check int) "one run recorded" 1 (Metrics.counter_value "solver.runs");
  Alcotest.(check int) "iterations = Poisson terms - 1" (terms - 1)
    (Metrics.counter_value "solver.iterations");
  let residual = Metrics.gauge_value "solver.residual" in
  Alcotest.(check bool) "residual is the truncation deficit" true
    (residual >= 0.0 && residual <= epsilon);
  Alcotest.(check int) "no non-convergence flagged" 0
    (Metrics.counter_value "solver.non_converged");
  (* The span taxonomy carries the same run. *)
  Trace.start ~gc:false ();
  ignore (Solver.transient ~epsilon ~t c [| 1.0; 0.0; 0.0 |]);
  Trace.stop ();
  let seen = ref false in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth:_ ~args:_ ->
      if name = "solver.transient" then seen := true);
  Alcotest.(check bool) "solver.transient span present" true !seen;
  Trace.clear ();
  Metrics.set_enabled false;
  Metrics.reset ()

(* Gauss–Seidel's set-up (ordering, permutation, transposition) has a
   span of its own beside the sweeps' span, so a trace attributes both. *)
let test_gauss_seidel_spans () =
  let c =
    Ctmc.of_triplets 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0); (3, 0, 3.0); (2, 0, 1.0) ]
  in
  Trace.start ~gc:false ();
  ignore (Solver.steady_state_gauss_seidel ~ordering:Solver.Rcm ~relax:0.9 c);
  Trace.stop ();
  let count = Hashtbl.create 4 in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth ~args:_ ->
      Alcotest.(check int) (name ^ " at top level") 0 depth;
      Hashtbl.replace count name (1 + Option.value ~default:0 (Hashtbl.find_opt count name)));
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (n ^ " recorded once") (Some 1) (Hashtbl.find_opt count n))
    [ "solver.gs_setup"; "solver.gauss_seidel" ];
  Trace.clear ()

(* Generation's spans: a traced [explore_symbolic] plus [md_of] records
   saturation, the descriptor and the MD build once each, nested under
   the caller's span; an untraced run records none. *)
let test_generation_spans () =
  let m = Mdl_models.Kanban.model (Mdl_models.Kanban.default ~cards:1) in
  let run () = ignore (Mdl_san.Model.md_of (Mdl_san.Model.explore_symbolic m)) in
  let names = [ "san.saturate"; "san.finalize"; "san.md_of" ] in
  let before = Trace.span_count () in
  run ();
  Alcotest.(check int) "untraced run records no span" before (Trace.span_count ());
  Trace.start ~gc:false ();
  Trace.with_span "caller" run;
  Trace.stop ();
  let count = Hashtbl.create 4 in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth ~args:_ ->
      if List.mem name names then begin
        Alcotest.(check int) (name ^ " nested under the caller") 1 depth;
        Hashtbl.replace count name (1 + Option.value ~default:0 (Hashtbl.find_opt count name))
      end);
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (n ^ " recorded once") (Some 1) (Hashtbl.find_opt count n))
    names;
  Trace.clear ()

(* ----- instrumentation must never change pipeline outputs ----- *)

let test_tracing_changes_nothing () =
  let run () = lump_concrete () in
  let plain = run () in
  Trace.start ~gc:true ();
  let traced, c = Counters.of_run [ "refiner.splitter_passes" ] run in
  Trace.stop ();
  (* the instrumented run published the engine's counts *)
  Alcotest.(check bool) "some passes happened" true (c "refiner.splitter_passes" > 0);
  Alcotest.(check int) "one key evaluation per pass" (c "refiner.splitter_passes")
    (fst (Metrics.histogram_stats "key_cache.eval_rows"));
  Alcotest.(check int) "same level count"
    (Array.length plain.Compositional.partitions)
    (Array.length traced.Compositional.partitions);
  Array.iteri
    (fun i p ->
      Alcotest.check partition_testable
        (Printf.sprintf "level %d partition" (i + 1))
        p
        traced.Compositional.partitions.(i))
    plain.Compositional.partitions;
  Alcotest.(check bool) "same lumped diagram" true
    (Md.equal plain.Compositional.lumped traced.Compositional.lumped);
  (* the traced run actually produced the span taxonomy *)
  let names = Hashtbl.create 8 in
  Trace.iter_events (fun ~name ~cat:_ ~start_ns:_ ~dur_ns:_ ~depth:_ ~args:_ ->
      Hashtbl.replace names name ());
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (Hashtbl.mem names n))
    [ "lump"; "lump.level"; "lump.initial_partition"; "lump.fixpoint"; "refine.run";
      "refine.pass"; "lump.rebuild" ];
  Trace.clear ();
  Metrics.reset ()

(* ----- logging ----- *)

let test_logging_levels () =
  let lvl s = Logging.level_of_string s in
  Alcotest.(check bool) "debug" true (lvl "debug" = Some (Some Logs.Debug));
  Alcotest.(check bool) "warn alias" true (lvl "warn" = Some (Some Logs.Warning));
  Alcotest.(check bool) "case-insensitive" true (lvl "INFO" = Some (Some Logs.Info));
  Alcotest.(check bool) "quiet" true (lvl "quiet" = Some None);
  Alcotest.(check bool) "off alias" true (lvl "off" = Some None);
  Alcotest.(check bool) "unknown" true (lvl "shouting" = None);
  let srcs = Logging.sources () in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " registered") true (List.mem s srcs))
    [ "mdl.refine"; "mdl.solve"; "mdl.oracle" ]

let tests =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span nesting errors" `Quick test_span_nesting_errors;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "chrome trace JSON well-formed" `Quick test_chrome_trace_json;
    Alcotest.test_case "span minor words count the minor heap" `Quick test_span_minor_words;
    Alcotest.test_case "phase totals" `Quick test_phase_totals;
    Alcotest.test_case "contexts on parallel domains" `Quick test_ctx_parallel_domains;
    Alcotest.test_case "with_ctx install/restore" `Quick test_with_ctx_install;
    Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics gauges" `Quick test_metrics_gauges;
    Alcotest.test_case "log buckets" `Quick test_log_buckets;
    Alcotest.test_case "metrics histograms" `Quick test_metrics_histograms;
    Alcotest.test_case "metrics JSON" `Quick test_metrics_json;
    Alcotest.test_case "transient metrics pin" `Quick test_transient_metrics_pin;
    Alcotest.test_case "gauss-seidel set-up and sweep spans" `Quick test_gauss_seidel_spans;
    Alcotest.test_case "generation spans" `Quick test_generation_spans;
    Alcotest.test_case "tracing changes no output" `Quick test_tracing_changes_nothing;
    Alcotest.test_case "logging levels" `Quick test_logging_levels;
  ]
