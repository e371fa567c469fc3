(* Tests for the lumpd service layer (Mdl_serve): the JSON codec, the
   typed protocol and its framing, and the daemon's robustness shell —
   deadlines, backpressure, graceful drain — plus the end-to-end pin
   that results over the socket are bit-identical to the in-process
   sweep engine ([Compositional.sweep_create] and [sweep_point]).

   The server enables the process-global metrics registry; every test
   that boots one restores the disabled state it found. *)

module Json = Mdl_serve.Json
module P = Mdl_serve.Protocol
module Server = Mdl_serve.Server
module Client = Mdl_serve.Client
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Prng = Mdl_util.Prng
module Compositional = Mdl_core.Compositional
module Decomposed = Mdl_core.Decomposed
module State_lumping = Mdl_lumping.State_lumping
module Partition = Mdl_partition.Partition
module Statespace = Mdl_md.Statespace
module Md = Mdl_md.Md
module Model = Mdl_san.Model

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---- JSON codec ---- *)

let test_json_basics () =
  let doc = {| {"a": 1, "b": [true, null, -2.5, "x\ny"], "c": {"d": 1e3}} |} in
  let j = Json.parse doc in
  checkb "int member" true (Json.member "a" j = Some (Json.Int 1));
  (match Json.member "b" j with
  | Some (Json.List [ Json.Bool true; Json.Null; Json.Float f; Json.Str s ]) ->
      checkb "-2.5" true (f = -2.5);
      checks "escapes" "x\ny" s
  | _ -> Alcotest.fail "array shape");
  (match Json.member "c" j with
  | Some inner -> checkb "1e3 is a float" true (Json.member "d" inner = Some (Json.Float 1000.0))
  | None -> Alcotest.fail "missing c");
  (* reprint/reparse is the identity *)
  checkb "round trip" true (Json.equal j (Json.parse (Json.to_string j)))

let test_json_unicode () =
  let j = Json.parse {| "a\u00e9b\ud83d\ude00c" |} in
  match j with
  | Json.Str s ->
      checks "utf8 encoding" "a\xc3\xa9b\xf0\x9f\x98\x80c" s;
      (* the printer passes raw UTF-8 through; reparse preserves it *)
      checkb "round trip" true (Json.equal j (Json.parse (Json.to_string j)))
  | _ -> Alcotest.fail "expected a string"

let test_json_duplicate_keys () =
  let j = Json.parse {| {"k": 1, "k": 2} |} in
  checkb "last wins" true (Json.member "k" j = Some (Json.Int 2))

let test_json_int_float_distinction () =
  checkb "1 is Int" true (Json.parse "1" = Json.Int 1);
  checkb "1.0 is Float" true (Json.parse "1.0" = Json.Float 1.0);
  checkb "printer keeps .0" true (Json.to_string (Json.Float 1.0) = "1.0");
  checkb "reparse keeps Float" true (Json.parse (Json.to_string (Json.Float 1.0)) = Json.Float 1.0)

let test_json_errors () =
  let bad s =
    match Json.parse_result s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "1 2";
      "\"unterminated";
      "\"\\u12";
      "\"\\ud800x\"";
      "01";
      "nul";
      "\"ctrl \x01\"";
      String.concat "" (List.init 600 (fun _ -> "[") @ [ "1" ]
                        @ List.init 600 (fun _ -> "]"));
    ]

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun f -> Json.Float f) (oneofl [ 0.0; 1.0; -1.0; 0.5; 1e-300; 1.2345678901234567 ]);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun ms ->
                  (* unique keys so equal-after-reparse holds *)
                  let seen = Hashtbl.create 8 in
                  Json.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else (Hashtbl.add seen k (); true))
                       ms))
                (list_size (int_range 0 4) (pair key (self (depth - 1)))) );
          ])
    3

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse round trip" ~count:500
    (QCheck.make json_gen) (fun j ->
      Json.equal j (Json.parse (Json.to_string j)))

(* ---- protocol codec ---- *)

let reward_gen =
  let open QCheck.Gen in
  map3
    (fun l ge k -> { P.ind_level = l; ind_ge = ge; ind_k = k })
    (int_range 1 5) bool (int_range 0 20)

let ident_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let request_gen =
  let open QCheck.Gen in
  let family = oneofl [ P.Tandem; P.Polling; P.Workstations; P.Multitier; P.Kanban ] in
  let solver = oneofl [ P.Power; P.Gauss_seidel; P.Krylov ] in
  let verb =
    oneof
      [
        ( family >>= fun f ->
          ident_gen >>= fun m ->
          opt (int_range 1 9) >>= fun size ->
          (* distinct parameter names: the decoder rejects a repeated one *)
          oneofl
            [ []; [ ("hyper_dim", 2) ]; [ ("msmq_servers", 2); ("msmq_queues", 3) ] ]
          >>= fun params ->
          return
            (P.Submit_model { sm_model = m; sm_family = f; sm_size = size; sm_params = params }) );
        ( ident_gen >>= fun m ->
          oneofl [ P.Ordinary; P.Exact ] >>= fun mode ->
          list_size (int_range 0 3) reward_gen >>= fun extra ->
          return (P.Lump { lp_model = m; lp_mode = mode; lp_extra = extra }) );
        ( ident_gen >>= fun m ->
          list_size (int_range 1 4)
            (map (fun e -> { P.pt_extra = e }) (list_size (int_range 0 2) reward_gen))
          >>= fun pts -> return (P.Sweep { sw_model = m; sw_points = pts }) );
        ( ident_gen >>= fun m ->
          solver >>= fun s -> return (P.Solve { sv_model = m; sv_solver = s }) );
        return P.Stats;
        map (fun ms -> P.Ping { pg_sleep_ms = ms }) (int_range 0 50);
        return P.Shutdown;
      ]
  in
  map2
    (fun (id, deadline, trace) verb ->
      { P.rq_id = id; rq_deadline_ms = deadline; rq_trace = trace; rq_verb = verb })
    (triple (opt ident_gen) (opt (int_range 1 60000)) bool)
    verb

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round trip" ~count:500
    (QCheck.make request_gen) (fun rq ->
      match P.request_of_string (Json.to_string (P.request_to_json rq)) with
      | Ok rq' -> rq = rq'
      | Error (_, msg) -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let float_gen =
  QCheck.Gen.(
    oneof
      [
        float_range 0.0 1e6;
        oneofl [ 0.0; 1.0; 0.1; 1e-12; 0.9756097561038778 ];
      ])

let response_gen =
  let open QCheck.Gen in
  let family = oneofl [ P.Tandem; P.Polling; P.Workstations; P.Multitier; P.Kanban ] in
  let point_result =
    map3
      (fun l c w -> { P.pr_lumped_states = l; pr_classes = c; pr_wall_s = w })
      (int_range 0 1000)
      (list_size (int_range 1 4) (int_range 1 100))
      float_gen
  in
  let payload =
    oneof
      [
        ( family >>= fun f ->
          ident_gen >>= fun m ->
          int_range 1 10000 >>= fun states ->
          list_size (int_range 1 4) (int_range 1 100) >>= fun sizes ->
          bool >>= fun fresh ->
          return
            (P.Model_info
               {
                 mi_model = m;
                 mi_family = f;
                 mi_states = states;
                 mi_levels = List.length sizes;
                 mi_level_sizes = sizes;
                 mi_fresh = fresh;
               }) );
        map3
          (fun l c w ->
            P.Lump_result { lr_lumped_states = l; lr_classes = c; lr_wall_s = w })
          (int_range 0 1000)
          (list_size (int_range 1 4) (int_range 1 100))
          float_gen;
        ( list_size (int_range 1 3) point_result >>= fun pts ->
          int_range 0 100 >>= fun reused ->
          float_gen >>= fun w ->
          return
            (P.Sweep_result
               {
                 sr_points = pts;
                 sr_level_reused = reused;
                 sr_rebuilds_reused = reused / 2;
                 sr_wall_s = w;
               }) );
        ( oneofl [ P.Power; P.Gauss_seidel; P.Krylov ] >>= fun s ->
          int_range 0 100000 >>= fun iters ->
          bool >>= fun conv ->
          float_gen >>= fun resid ->
          list_size (int_range 0 3) (pair ident_gen float_gen) >>= fun ms ->
          let seen = Hashtbl.create 8 in
          let ms =
            List.filter
              (fun (k, _) ->
                if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
              ms
          in
          float_gen >>= fun w ->
          return
            (P.Solve_result
               {
                 so_solver = s;
                 so_iterations = iters;
                 so_converged = conv;
                 so_residual = resid;
                 so_measures = ms;
                 so_wall_s = w;
               }) );
        ( float_gen >>= fun up ->
          bool >>= fun dr ->
          int_range 0 8 >>= fun infl ->
          int_range 0 100 >>= fun n ->
          list_size (int_range 0 2)
            ( ident_gen >>= fun m ->
              family >>= fun f ->
              int_range 1 1000 >>= fun states ->
              return
                {
                  P.ms_model = m;
                  ms_family = f;
                  ms_states = states;
                  ms_gid_count = states / 3;
                  ms_points = states / 5;
                } )
          >>= fun models ->
          list_size (int_range 0 3)
            ( ident_gen >>= fun v ->
              int_range 0 100 >>= fun reqs ->
              float_gen >>= fun p50 ->
              return
                {
                  P.vs_verb = v;
                  vs_requests = reqs;
                  vs_errors = reqs / 3;
                  vs_p50_s = p50;
                  vs_p95_s = p50 *. 2.0;
                  vs_p99_s = p50 *. 3.0;
                } )
          >>= fun verbs ->
          return
            (P.Stats_result
               {
                 st_uptime_s = up;
                 st_draining = dr;
                 st_inflight = infl;
                 st_queue_depth = n;
                 st_requests = n * 2;
                 st_rejected_queue_full = n / 2;
                 st_rejected_deadline = n / 3;
                 st_protocol_errors = n / 4;
                 st_verbs = verbs;
                 st_models = models;
               }) );
        return P.Pong;
        map (fun d -> P.Shutdown_ack { draining = d }) bool;
      ]
  in
  let error =
    pair
      (oneofl
         [
           P.Parse_error; P.Bad_request; P.Unknown_verb; P.Unsupported_version;
           P.Frame_too_large; P.Unknown_model; P.Model_exists; P.Queue_full;
           P.Deadline_exceeded; P.Shutting_down; P.Internal;
         ])
      (string_size ~gen:printable (int_range 0 30))
  in
  let trace_rollup =
    ident_gen >>= fun req ->
    list_size (int_range 0 3)
      ( ident_gen >>= fun n ->
        int_range 1 50 >>= fun c ->
        float_gen >>= fun s ->
        return { P.sp_name = n; sp_count = c; sp_total_s = s } )
    >>= fun spans -> return { P.tr_request = "r-" ^ req; tr_spans = spans }
  in
  map3
    (fun id trace body -> { P.resp_id = id; resp_trace = trace; resp_body = body })
    (opt ident_gen) (opt trace_rollup)
    (oneof [ map Result.ok payload; map Result.error error ])

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode round trip" ~count:500
    (QCheck.make response_gen) (fun resp ->
      match P.response_of_string (Json.to_string (P.response_to_json resp)) with
      | Ok resp' -> resp = resp'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let test_unknown_fields_ignored () =
  let doc =
    {| {"v":1,"verb":"ping","sleep_ms":2,"future_extension":{"deep":[1,2]},"another":null} |}
  in
  match P.request_of_string doc with
  | Ok { P.rq_verb = P.Ping { pg_sleep_ms = 2 }; _ } -> ()
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg

let test_version_gate () =
  (match P.request_of_string {| {"v":1,"verb":"stats"} |} with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "v:1 must be accepted");
  (match P.request_of_string {| {"verb":"stats"} |} with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "missing v defaults to 1");
  match P.request_of_string {| {"v":2,"verb":"stats"} |} with
  | Error (P.Unsupported_version, _) -> ()
  | _ -> Alcotest.fail "v:2 must be unsupported_version"

let test_decode_errors () =
  let code s =
    match P.request_of_string s with Error (c, _) -> Some c | Ok _ -> None
  in
  checkb "not json" true (code "{nope" = Some P.Parse_error);
  checkb "not an object" true (code "[1]" = Some P.Bad_request);
  checkb "no verb" true (code "{}" = Some P.Bad_request);
  checkb "unknown verb" true (code {| {"verb":"frobnicate"} |} = Some P.Unknown_verb);
  checkb "missing model" true (code {| {"verb":"lump"} |} = Some P.Bad_request);
  checkb "bad reward op" true
    (code {| {"verb":"lump","model":"m","extra_rewards":[{"level":1,"op":"<=","k":2}]} |}
     = Some P.Bad_request);
  checkb "empty sweep" true
    (code {| {"verb":"sweep","model":"m","points":[]} |} = Some P.Bad_request);
  checkb "sweep point not an object" true
    (code {| {"verb":"sweep","model":"m","points":[1]} |} = Some P.Bad_request);
  checkb "sweep points null and string" true
    (code {| {"verb":"sweep","model":"m","points":[null,"x"]} |} = Some P.Bad_request);
  checkb "empty point object is the base point" true
    (code {| {"verb":"sweep","model":"m","points":[{}]} |} = None);
  checkb "repeated parameter name" true
    (code
       {| {"verb":"submit-model","model":"m","family":"tandem",
           "params":{"hyper_dim":2,"hyper_dim":3}} |}
     = Some P.Bad_request);
  checkb "bad deadline" true
    (code {| {"verb":"stats","deadline_ms":0} |} = Some P.Bad_request)

let test_decoder_fuzz () =
  let rng = Prng.of_seed 7 in
  for i = 0 to 999 do
    let r = Prng.fork rng i in
    let len = Prng.int r 64 in
    let s = String.init len (fun _ -> Char.chr (Prng.int r 256)) in
    (* must classify, never raise *)
    match P.request_of_string s with Ok _ | Error _ -> ()
  done;
  (* structured fuzz: near-valid requests with random mutations *)
  let base = {| {"v":1,"id":"x","verb":"sweep","model":"m","points":[{"extra_rewards":[{"level":1,"op":">=","k":2}]}]} |} in
  for i = 0 to 999 do
    let r = Prng.fork rng (10_000 + i) in
    let b = Bytes.of_string base in
    let n = 1 + Prng.int r 4 in
    for _ = 1 to n do
      Bytes.set b (Prng.int r (Bytes.length b)) (Char.chr (Prng.int r 256))
    done;
    match P.request_of_string (Bytes.to_string b) with Ok _ | Error _ -> ()
  done

(* ---- framing ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let w = ref 0 in
  while !w < n do
    w := !w + Unix.write fd b !w (n - !w)
  done

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let r = P.reader b in
      P.write_frame a "hello";
      P.write_frame a "";
      (* two frames in one write, and a payload containing newlines *)
      write_all a (P.frame_string "line1\nline2" ^ P.frame_string "x");
      checkb "f1" true (P.read_frame r = Ok "hello");
      checkb "f2" true (P.read_frame r = Ok "");
      checkb "f3" true (P.read_frame r = Ok "line1\nline2");
      checkb "f4" true (P.read_frame r = Ok "x");
      Unix.close a;
      checkb "eof" true (P.read_frame r = Error P.Eof))

let test_frame_split_writes () =
  with_socketpair (fun a b ->
      let r = P.reader b in
      let s = P.frame_string "abcdefgh" in
      let result = ref (Error P.Eof) in
      let th =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                write_all a (String.make 1 c);
                Thread.delay 0.001)
              s)
          ()
      in
      result := P.read_frame r;
      Thread.join th;
      checkb "reassembled" true (!result = Ok "abcdefgh"))

let test_frame_truncated () =
  with_socketpair (fun a b ->
      let r = P.reader b in
      write_all a "10\nabc";
      Unix.close a;
      checkb "truncated" true (P.read_frame r = Error P.Truncated))

let test_frame_oversized () =
  with_socketpair (fun a b ->
      let r = P.reader ~max_frame:16 b in
      write_all a "17\n";
      checkb "oversized" true (P.read_frame r = Error (P.Oversized 17)))

let test_frame_malformed () =
  with_socketpair (fun a b ->
      let r = P.reader b in
      write_all a "12x\n";
      match P.read_frame r with
      | Error (P.Malformed _) -> ()
      | _ -> Alcotest.fail "expected Malformed");
  with_socketpair (fun a b ->
      let r = P.reader b in
      write_all a (string_of_int 5 ^ "\nabcdeX");
      match P.read_frame r with
      | Error (P.Malformed _) -> ()
      | _ -> Alcotest.fail "expected Malformed terminator")

let test_frame_stop () =
  with_socketpair (fun _a b ->
      let r = P.reader b in
      let stop = ref false in
      let th =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            stop := true)
          ()
      in
      let got = P.read_frame ~stop:(fun () -> !stop) r in
      Thread.join th;
      checkb "stopped" true (got = Error P.Stopped))

let test_reader_fuzz () =
  let rng = Prng.of_seed 23 in
  for i = 0 to 199 do
    let r = Prng.fork rng i in
    with_socketpair (fun a b ->
        let reader = P.reader ~max_frame:4096 b in
        let len = Prng.int r 200 in
        write_all a (String.init len (fun _ -> Char.chr (Prng.int r 256)));
        Unix.close a;
        (* drain: every outcome is fine, raising or hanging is not *)
        let rec go n =
          if n > 0 then
            match P.read_frame reader with
            | Ok _ -> go (n - 1)
            | Error _ -> ()
        in
        go 64)
  done

(* ---- server fixtures ---- *)

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lumpd-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?metrics_port ?(max_inflight = 1) ?(queue_capacity = 32)
    ?default_deadline_ms ?access_log f =
  let was_enabled = Metrics.enabled () in
  let config =
    {
      (Server.default_config ~listen:(Server.Unix_socket (fresh_path ()))) with
      Server.metrics_port;
      max_inflight;
      queue_capacity;
      default_deadline_ms;
      access_log;
    }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Metrics.set_enabled was_enabled)
    (fun () -> f server)

let ok_result what = function
  | Ok { P.resp_body = Ok payload; _ } -> payload
  | Ok { P.resp_body = Error (c, msg); _ } ->
      Alcotest.failf "%s: protocol error %s: %s" what (P.error_code_string c) msg
  | Error msg -> Alcotest.failf "%s: transport error: %s" what msg

let err_code what = function
  | Ok { P.resp_body = Error (c, _); _ } -> c
  | Ok { P.resp_body = Ok _; _ } -> Alcotest.failf "%s: unexpectedly succeeded" what
  | Error msg -> Alcotest.failf "%s: transport error: %s" what msg

let rq ?id ?deadline_ms ?(trace = false) verb =
  { P.rq_id = id; rq_deadline_ms = deadline_ms; rq_trace = trace; rq_verb = verb }

let submit_polling ?(name = "p") client =
  ok_result "submit"
    (Client.request client
       (rq (P.Submit_model
              { sm_model = name; sm_family = P.Polling; sm_size = Some 3; sm_params = [] })))

(* ---- golden wire bytes ---- *)

(* The exact payloads the encoders write, member for member.  The round
   trip properties run one codec in both directions, so they cannot see a
   member renamed or reordered on both sides; these literals can.  Each
   literal also decodes back to its value. *)

let wire parts = String.concat "" parts

let spec l ge k = { P.ind_level = l; ind_ge = ge; ind_k = k }

let golden_requests =
  [
    ( rq ~id:"g-1" ~deadline_ms:2500 ~trace:true
        (P.Submit_model
           {
             sm_model = "t3";
             sm_family = P.Tandem;
             sm_size = Some 2;
             sm_params = [ ("hyper_dim", 3); ("msmq_servers", 2) ];
           }),
      wire
        [
          {|{"v":1,"id":"g-1","deadline_ms":2500,"trace":true,"verb":"submit-model",|};
          {|"model":"t3","family":"tandem","size":2,|};
          {|"params":{"hyper_dim":3,"msmq_servers":2}}|};
        ] );
    ( rq (P.Submit_model
            { sm_model = "k"; sm_family = P.Kanban; sm_size = None; sm_params = [] }),
      {|{"v":1,"verb":"submit-model","model":"k","family":"kanban"}|} );
    ( rq ~id:"g-2"
        (P.Lump
           {
             lp_model = "t3";
             lp_mode = P.Exact;
             lp_extra = [ spec 3 true 2; spec 1 false 0 ];
           }),
      wire
        [
          {|{"v":1,"id":"g-2","verb":"lump","model":"t3","mode":"exact",|};
          {|"extra_rewards":[{"level":3,"op":">=","k":2},{"level":1,"op":"<","k":0}]}|};
        ] );
    ( rq (P.Lump { lp_model = "t3"; lp_mode = P.Ordinary; lp_extra = [] }),
      {|{"v":1,"verb":"lump","model":"t3","mode":"ordinary","extra_rewards":[]}|} );
    ( rq ~deadline_ms:60000
        (P.Sweep
           {
             sw_model = "t3";
             sw_points = [ { P.pt_extra = [] }; { P.pt_extra = [ spec 2 false 48 ] } ];
           }),
      wire
        [
          {|{"v":1,"deadline_ms":60000,"verb":"sweep","model":"t3","points":|};
          {|[{"extra_rewards":[]},{"extra_rewards":[{"level":2,"op":"<","k":48}]}]}|};
        ] );
    ( rq (P.Solve { sv_model = "t3"; sv_solver = P.Gauss_seidel }),
      {|{"v":1,"verb":"solve","model":"t3","solver":"gauss-seidel"}|} );
    (rq ~id:"g-3" P.Stats, {|{"v":1,"id":"g-3","verb":"stats"}|});
    (rq (P.Ping { pg_sleep_ms = 25 }), {|{"v":1,"verb":"ping","sleep_ms":25}|});
    (rq ~trace:true (P.Ping { pg_sleep_ms = 0 }), {|{"v":1,"trace":true,"verb":"ping"}|});
    (rq P.Shutdown, {|{"v":1,"verb":"shutdown"}|});
  ]

let ok_resp ?id ?trace payload =
  { P.resp_id = id; resp_trace = trace; resp_body = Ok payload }

let golden_responses =
  [
    ( ok_resp ~id:"g-1"
        (P.Model_info
           {
             mi_model = "t3";
             mi_family = P.Tandem;
             mi_states = 9152;
             mi_levels = 3;
             mi_level_sizes = [ 4; 16; 143 ];
             mi_fresh = true;
           }),
      wire
        [
          {|{"v":1,"id":"g-1","ok":true,"verb":"submit-model","result":{"model":"t3",|};
          {|"family":"tandem","states":9152,"levels":3,"level_sizes":[4,16,143],|};
          {|"fresh":true}}|};
        ] );
    ( ok_resp
        (P.Lump_result
           { lr_lumped_states = 390; lr_classes = [ 4; 16; 13 ]; lr_wall_s = 0.0123 }),
      wire
        [
          {|{"v":1,"ok":true,"verb":"lump","result":{"lumped_states":390,|};
          {|"classes":[4,16,13],"wall_s":0.0123}}|};
        ] );
    ( ok_resp
        (P.Sweep_result
           {
             sr_points =
               [
                 { P.pr_lumped_states = 390; pr_classes = [ 4; 16; 13 ];
                   pr_wall_s = 0.5 };
                 { P.pr_lumped_states = 12; pr_classes = [ 1; 2 ]; pr_wall_s = 1e-06 };
               ];
             sr_level_reused = 12;
             sr_rebuilds_reused = 5;
             sr_wall_s = 0.0214;
           }),
      wire
        [
          {|{"v":1,"ok":true,"verb":"sweep","result":{"points":[{"lumped_states":390,|};
          {|"classes":[4,16,13],"wall_s":0.5},{"lumped_states":12,"classes":[1,2],|};
          {|"wall_s":9.9999999999999995e-07}],|};
          {|"level_reused":12,"rebuilds_reused":5,|};
          {|"wall_s":0.021399999999999999}}|};
        ] );
    ( ok_resp
        (P.Solve_result
           {
             so_solver = P.Krylov;
             so_iterations = 41;
             so_converged = true;
             so_residual = 4.1e-13;
             so_measures = [ ("availability", 0.9756097561038778); ("msmq jobs", 2.0) ];
             so_wall_s = 0.182;
           }),
      wire
        [
          {|{"v":1,"ok":true,"verb":"solve","result":{"solver":"krylov",|};
          {|"iterations":41,"converged":true,"residual":4.1000000000000002e-13,|};
          {|"measures":{"availability":0.97560975610387779,"msmq jobs":2.0},|};
          {|"wall_s":0.182}}|};
        ] );
    ( ok_resp
        (P.Stats_result
           {
             st_uptime_s = 12.75;
             st_draining = false;
             st_inflight = 1;
             st_queue_depth = 0;
             st_requests = 42;
             st_rejected_queue_full = 3;
             st_rejected_deadline = 1;
             st_protocol_errors = 2;
             st_verbs =
               [
                 {
                   P.vs_verb = "lump";
                   vs_requests = 12;
                   vs_errors = 1;
                   vs_p50_s = 0.0021;
                   vs_p95_s = 0.0124;
                   vs_p99_s = 0.0125;
                 };
               ];
             st_models =
               [
                 {
                   P.ms_model = "t3";
                   ms_family = P.Polling;
                   ms_states = 9152;
                   ms_gid_count = 22;
                   ms_points = 13;
                 };
               ];
           }),
      wire
        [
          {|{"v":1,"ok":true,"verb":"stats","result":{"uptime_s":12.75,|};
          {|"draining":false,"inflight":1,"queue_depth":0,"requests":42,|};
          {|"rejected_queue_full":3,"rejected_deadline":1,"protocol_errors":2,|};
          {|"verbs":[{"verb":"lump","requests":12,"errors":1,|};
          {|"p50_s":0.0020999999999999999,"p95_s":0.0124,|};
          {|"p99_s":0.012500000000000001}],"models":[{"model":"t3",|};
          {|"family":"polling","states":9152,"gid_count":22,|};
          {|"points":13}]}}|};
        ] );
    ( ok_resp ~id:"g-2" P.Pong,
      {|{"v":1,"id":"g-2","ok":true,"verb":"ping","result":{}}|} );
    ( ok_resp (P.Shutdown_ack { draining = true }),
      {|{"v":1,"ok":true,"verb":"shutdown","result":{"draining":true}}|} );
    ( {
        P.resp_id = Some "g-4";
        resp_trace = None;
        resp_body = Error (P.Deadline_exceeded, "deadline expired before execution");
      },
      wire
        [
          {|{"v":1,"id":"g-4","ok":false,"error":{"code":"deadline_exceeded",|};
          {|"message":"deadline expired before execution"}}|};
        ] );
    ( ok_resp ~id:"g-5"
        ~trace:
          {
            P.tr_request = "r-17";
            tr_spans =
              [
                { P.sp_name = "serve.ping"; sp_count = 1; sp_total_s = 2.5e-05 };
                { P.sp_name = "serve.request"; sp_count = 1; sp_total_s = 3e-05 };
              ];
          }
        P.Pong,
      wire
        [
          {|{"v":1,"id":"g-5","trace":{"request":"r-17","spans":[{"name":"serve.ping",|};
          {|"count":1,"total_s":2.5000000000000001e-05},{"name":"serve.request",|};
          {|"count":1,"total_s":3.0000000000000001e-05}]},"ok":true,"verb":"ping",|};
          {|"result":{}}|};
        ] );
  ]

let test_golden_wire () =
  List.iter
    (fun (request, bytes) ->
      checks "request bytes" bytes (Json.to_string (P.request_to_json request));
      checkb ("request decodes: " ^ bytes) true (P.request_of_string bytes = Ok request))
    golden_requests;
  List.iter
    (fun (response, bytes) ->
      checks "response bytes" bytes (Json.to_string (P.response_to_json response));
      checkb ("response decodes: " ^ bytes) true
        (P.response_of_string bytes = Ok response))
    golden_responses

(* ---- end-to-end: socket results vs the in-process sweep engine ---- *)

let test_e2e_bit_identical () =
  with_server ~metrics_port:0 (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match submit_polling c with
      | P.Model_info mi ->
          checkb "fresh" true mi.P.mi_fresh;
          checki "levels" (List.length mi.P.mi_level_sizes) mi.P.mi_levels
      | _ -> Alcotest.fail "expected model_info");
      (* resubmitting identically is idempotent; a different config conflicts *)
      (match submit_polling c with
      | P.Model_info mi -> checkb "not fresh" false mi.P.mi_fresh
      | _ -> Alcotest.fail "expected model_info");
      checkb "conflict" true
        (err_code "conflicting submit"
           (Client.request c
              (rq (P.Submit_model
                     { sm_model = "p"; sm_family = P.Polling; sm_size = Some 4; sm_params = [] })))
         = P.Model_exists);
      let specs =
        [
          [];
          [ { P.ind_level = 1; ind_ge = true; ind_k = 2 } ];
          [ { P.ind_level = 1; ind_ge = false; ind_k = 2 } ];
        ]
      in
      let sweep_result =
        match
          ok_result "sweep"
            (Client.request c
               (rq (P.Sweep
                      {
                        sw_model = "p";
                        sw_points = List.map (fun e -> { P.pt_extra = e }) specs;
                      })))
        with
        | P.Sweep_result r -> r
        | _ -> Alcotest.fail "expected sweep_result"
      in
      (* the same computation in-process, through the library *)
      let b = Mdl_models.Polling.build (Mdl_models.Polling.default ~customers:3) in
      let md = b.Mdl_models.Polling.md in
      let ss = b.Mdl_models.Polling.exploration.Model.statespace in
      let base =
        [
          b.Mdl_models.Polling.rewards_busy_servers;
          b.Mdl_models.Polling.rewards_queued_jobs;
        ]
      in
      let sizes = Md.sizes md in
      let indicator (s : P.reward_spec) =
        Decomposed.of_level ~sizes ~level:s.P.ind_level (fun v ->
            if (if s.P.ind_ge then v >= s.P.ind_k else v < s.P.ind_k) then 1.0 else 0.0)
      in
      let sweep points =
        let sw = Compositional.sweep_create State_lumping.Ordinary md in
        List.map
          (fun rewards ->
            Compositional.sweep_point sw ~rewards ~initial:b.Mdl_models.Polling.initial)
          points
      in
      let local = sweep (List.map (fun extra -> List.map indicator extra @ base) specs) in
      checki "same number of points" (List.length local) (List.length sweep_result.P.sr_points);
      List.iter2
        (fun (r : Compositional.result) (pr : P.point_result) ->
          checki "lumped states" (Statespace.size (Compositional.lump_statespace r ss))
            pr.P.pr_lumped_states;
          check (Alcotest.list Alcotest.int) "classes per level"
            (Array.to_list (Array.map Partition.num_classes r.Compositional.partitions))
            pr.P.pr_classes)
        local sweep_result.P.sr_points;
      (* warm second request: served from the same engine, with reuse *)
      let warm =
        match
          ok_result "warm sweep"
            (Client.request c
               (rq (P.Sweep
                      {
                        sw_model = "p";
                        sw_points = List.map (fun e -> { P.pt_extra = e }) specs;
                      })))
        with
        | P.Sweep_result r -> r
        | _ -> Alcotest.fail "expected sweep_result"
      in
      checkb "levels reused on the warm pass" true
        (warm.P.sr_level_reused > sweep_result.P.sr_level_reused);
      checkb "rebuilds reused on the warm pass" true
        (warm.P.sr_rebuilds_reused > sweep_result.P.sr_rebuilds_reused);
      List.iter2
        (fun (cold : P.point_result) (w : P.point_result) ->
          checki "warm lumped states equal" cold.P.pr_lumped_states w.P.pr_lumped_states;
          check (Alcotest.list Alcotest.int) "warm classes equal" cold.P.pr_classes
            w.P.pr_classes)
        sweep_result.P.sr_points warm.P.sr_points;
      (* solve: measures equal the in-process solver's, bit-exactly *)
      let solve =
        match
          ok_result "solve"
            (Client.request c (rq (P.Solve { sv_model = "p"; sv_solver = P.Power })))
        with
        | P.Solve_result r -> r
        | _ -> Alcotest.fail "expected solve_result"
      in
      let r0 = List.hd (sweep [ base ]) in
      let lumped_ss = Compositional.lump_statespace r0 ss in
      let pi, _ =
        Mdl_core.Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000
          r0.Compositional.lumped lumped_ss
      in
      let expect name d =
        Mdl_ctmc.Solver.expected_reward pi
          (Decomposed.to_vector (Compositional.lumped_rewards r0 d) lumped_ss)
        |> fun v -> (name, v)
      in
      let local_measures =
        [
          expect "busy servers" b.Mdl_models.Polling.rewards_busy_servers;
          expect "queued jobs" b.Mdl_models.Polling.rewards_queued_jobs;
        ]
      in
      checkb "solver converged" true solve.P.so_converged;
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          checks "measure name" n1 n2;
          checkb (Printf.sprintf "measure %s bit-identical" n1) true (Float.equal v1 v2))
        local_measures solve.P.so_measures;
      (* stats reflect the work *)
      (match ok_result "stats" (Client.request c (rq P.Stats)) with
      | P.Stats_result st ->
          checkb "requests counted" true (st.P.st_requests >= 6);
          (match st.P.st_models with
          | [ m ] ->
              checks "model name" "p" m.P.ms_model;
              checkb "keys interned" true (m.P.ms_gid_count > 0);
              checki "points served" 7 m.P.ms_points
          | ms -> Alcotest.failf "expected one model, got %d" (List.length ms))
      | _ -> Alcotest.fail "expected stats_result");
      (* unknown model is a typed error *)
      checkb "unknown model" true
        (err_code "lump of unknown model"
           (Client.request c
              (rq (P.Lump { lp_model = "nope"; lp_mode = P.Ordinary; lp_extra = [] })))
         = P.Unknown_model);
      (* the Prometheus endpoint serves every family of series *)
      let port = Option.get (Server.metrics_port server) in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
      in
      slurp ();
      Unix.close fd;
      let body = Buffer.contents buf in
      checkb "http 200" true
        (String.length body > 15 && String.sub body 0 15 = "HTTP/1.0 200 OK");
      let contains needle =
        let nl = String.length needle and bl = String.length body in
        let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle ->
          checkb (Printf.sprintf "scrape contains %s" needle) true (contains needle))
        [
          "# TYPE serve_requests counter";
          "# TYPE serve_request_seconds histogram";
          "serve_request_seconds_bucket{le=\"+Inf\"}";
          "serve_request_seconds_count";
          "serve_inflight";
          "serve_uptime_seconds";
          "# TYPE serve_control_seconds histogram";
          (* per-verb families, with the dots (and the dash of
             submit-model) mangled to underscores *)
          "# TYPE serve_verb_lump_exec_seconds histogram";
          "serve_verb_lump_queue_seconds_count";
          "serve_verb_sweep_requests";
          "serve_verb_submit_model_requests";
          "serve_verb_ping_errors";
          "# TYPE lump_runs counter";
          "# TYPE key_cache_eval_seconds histogram";
        ])

(* ---- metrics endpoint: request framing and silent clients ---- *)

let connect_metrics server =
  let port = Option.get (Server.metrics_port server) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let read_to_eof fd =
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let test_scrape_split_request_line () =
  (* TCP may deliver a request line in pieces; the endpoint must answer
     the whole line, not the first piece. *)
  with_server ~metrics_port:0 (fun server ->
      List.iter
        (fun (first, rest) ->
          let fd = connect_metrics server in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          write_all fd first;
          Thread.delay 0.05;
          write_all fd rest;
          let reply = read_to_eof fd in
          checkb
            (Printf.sprintf "%S then %S answered 200" first rest)
            true
            (String.length reply >= 15 && String.sub reply 0 15 = "HTTP/1.0 200 OK"))
        [ ("GET /met", "rics HTTP/1.0\r\n\r\n"); ("GE", "T /metrics HTTP/1.0\r\n\r\n") ])

let test_scrape_silent_client_does_not_block_stop () =
  (* A client that connects to the metrics port and sends nothing must
     not keep [Server.stop] from returning.  The watchdog closes the
     client after 5 s, so a wedged stop fails the test instead of
     hanging it. *)
  let was_enabled = Metrics.enabled () in
  let server =
    Server.start
      {
        (Server.default_config ~listen:(Server.Unix_socket (fresh_path ()))) with
        Server.metrics_port = Some 0;
      }
  in
  let accepted0 = Metrics.counter_value "serve.connections" in
  let fd = connect_metrics server in
  let waited = ref 0 in
  while Metrics.counter_value "serve.connections" = accepted0 && !waited < 100 do
    Thread.delay 0.02;
    incr waited
  done;
  checkb "metrics connection accepted" true
    (Metrics.counter_value "serve.connections" > accepted0);
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop server;
        Atomic.set stopped true)
      ()
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < 5.0 do
    Thread.delay 0.05
  done;
  let returned = Atomic.get stopped in
  Unix.close fd;
  Thread.join stopper;
  Metrics.set_enabled was_enabled;
  checkb "stop returned within 5 s" true returned

(* ---- robustness: deadlines, backpressure, drain ---- *)

let test_deadline_expiry_frees_slot () =
  with_server ~max_inflight:1 (fun server ->
      let a = Client.connect (Server.address server) in
      let b = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          (* A holds the only slot; B's deadline expires while queued *)
          let slow = Thread.create (fun () ->
              Client.request a (rq (P.Ping { pg_sleep_ms = 400 }))) ()
          in
          Thread.delay 0.05;
          let t0 = Unix.gettimeofday () in
          let code =
            err_code "queued past deadline"
              (Client.request b (rq ~deadline_ms:80 (P.Ping { pg_sleep_ms = 0 })))
          in
          let waited = Unix.gettimeofday () -. t0 in
          checkb "deadline_exceeded" true (code = P.Deadline_exceeded);
          checkb "rejected promptly, not after the slot opened" true (waited < 0.35);
          (match Thread.join slow with () -> ());
          (* the slot is free again: an undeadlined request succeeds *)
          match ok_result "after drain" (Client.request b (rq (P.Ping { pg_sleep_ms = 0 }))) with
          | P.Pong -> ()
          | _ -> Alcotest.fail "expected pong"))

let test_deadline_during_execution () =
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let code =
        err_code "ping outliving its deadline"
          (Client.request c (rq ~deadline_ms:50 (P.Ping { pg_sleep_ms = 400 })))
      in
      checkb "deadline_exceeded" true (code = P.Deadline_exceeded))

let test_queue_full () =
  with_server ~max_inflight:1 ~queue_capacity:0 (fun server ->
      let a = Client.connect (Server.address server) in
      let b = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          let slow = Thread.create (fun () ->
              Client.request a (rq (P.Ping { pg_sleep_ms = 300 }))) ()
          in
          Thread.delay 0.05;
          let code = err_code "flooded" (Client.request b (rq (P.Ping { pg_sleep_ms = 0 }))) in
          checkb "queue_full" true (code = P.Queue_full);
          (* stats still answers while the slot is held *)
          (match ok_result "stats under load" (Client.request b (rq P.Stats)) with
          | P.Stats_result st ->
              checkb "rejection counted" true (st.P.st_rejected_queue_full >= 1)
          | _ -> Alcotest.fail "expected stats_result");
          Thread.join slow))

let test_shutdown_drains () =
  with_server (fun server ->
      let a = Client.connect (Server.address server) in
      let b = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          (* A's request is in flight when B asks for shutdown *)
          let slow = ref (Error "unset") in
          let th =
            Thread.create
              (fun () -> slow := Client.request a (rq (P.Ping { pg_sleep_ms = 250 })))
              ()
          in
          Thread.delay 0.05;
          (match ok_result "shutdown" (Client.request b (rq P.Shutdown)) with
          | P.Shutdown_ack { draining = true } -> ()
          | _ -> Alcotest.fail "expected a draining ack");
          checkb "draining" true (Server.draining server);
          Thread.join th;
          (* the in-flight request finished normally *)
          (match !slow with
          | Ok { P.resp_body = Ok P.Pong; _ } -> ()
          | _ -> Alcotest.fail "in-flight request must complete during drain");
          Server.wait server))

let test_handle_in_process () =
  (* the socketless path the bench uses: same handler, no transport *)
  with_server (fun server ->
      (match (Server.handle server (rq ~id:"i" P.Stats)).P.resp_body with
      | Ok (P.Stats_result _) -> ()
      | _ -> Alcotest.fail "stats via handle");
      let resp = Server.handle server (rq (P.Lump { lp_model = "m"; lp_mode = P.Ordinary; lp_extra = [] })) in
      checkb "unknown model via handle" true
        (match resp.P.resp_body with Error (P.Unknown_model, _) -> true | _ -> false);
      let resp = Server.handle server (rq P.Shutdown) in
      checkb "shutdown via handle" true
        (match resp.P.resp_body with Ok (P.Shutdown_ack _) -> true | _ -> false);
      checkb "drain triggered" true (Server.draining server))

(* ---- submit-model: parameter resolution ---- *)

let submit_tandem server ?size name params =
  (Server.handle server
     (rq (P.Submit_model
            { sm_model = name; sm_family = P.Tandem; sm_size = size; sm_params = params })))
    .P.resp_body

let test_submit_rejects_bad_params () =
  with_server (fun server ->
      let rejected what expected = function
        | Error (P.Bad_request, msg) -> checks what expected msg
        | _ -> Alcotest.failf "%s: expected bad_request" what
      in
      rejected "unknown name"
        "unknown parameter \"jbos\" for family tandem (known: jobs, hyper_dim, \
         msmq_servers, msmq_queues)"
        (submit_tandem server "t" [ ("jbos", 1) ]);
      rejected "size and main knob" "parameter \"jobs\" conflicts with \"size\""
        (submit_tandem server ~size:1 "t" [ ("jobs", 1) ]);
      rejected "zero value" "all model parameters must be >= 1"
        (submit_tandem server "t" [ ("hyper_dim", 0) ]);
      rejected "zero size" "all model parameters must be >= 1"
        (submit_tandem server ~size:0 "t" []))

let model_info what = function
  | Ok (P.Model_info mi) -> mi
  | Ok _ -> Alcotest.failf "%s: expected model_info" what
  | Error (c, msg) -> Alcotest.failf "%s: %s: %s" what (P.error_code_string c) msg

let test_submit_size_means_main_knob () =
  with_server (fun server ->
      let by_size = model_info "size 1" (submit_tandem server ~size:1 "a" []) in
      let explicit =
        model_info "explicit defaults"
          (submit_tandem server "b"
             [ ("jobs", 1); ("hyper_dim", 3); ("msmq_servers", 3); ("msmq_queues", 4) ])
      in
      checki "states" by_size.P.mi_states explicit.P.mi_states;
      check Alcotest.(list int) "level sizes" by_size.P.mi_level_sizes
        explicit.P.mi_level_sizes)

let test_submit_param_order_is_not_identity () =
  with_server (fun server ->
      let first =
        model_info "first" (submit_tandem server "t" [ ("jobs", 1); ("hyper_dim", 2) ])
      in
      let again =
        model_info "reordered" (submit_tandem server "t" [ ("hyper_dim", 2); ("jobs", 1) ])
      in
      checkb "first is fresh" true first.P.mi_fresh;
      checkb "reordered is not fresh" false again.P.mi_fresh)

let test_far_deadline_never_expires () =
  (* a deadline too far away for the nanosecond clock never expires *)
  with_server (fun server ->
      List.iter
        (fun ms ->
          let ping = rq ~deadline_ms:ms (P.Ping { pg_sleep_ms = 0 }) in
          match (Server.handle server ping).P.resp_body with
          | Ok P.Pong -> ()
          | Ok _ -> Alcotest.failf "deadline_ms %d: expected pong" ms
          | Error (c, msg) ->
              Alcotest.failf "deadline_ms %d: %s: %s" ms (P.error_code_string c) msg)
        [ 4_611_686_018_427; 4_611_686_018_428; 9_000_000_000_000; max_int ])

let test_malformed_frames_over_socket () =
  with_server (fun server ->
      let path =
        match Server.address server with
        | Server.Unix_socket p -> p
        | _ -> Alcotest.fail "expected a unix socket"
      in
      (* bad JSON inside a good frame: typed error, connection survives *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let reader = P.reader fd in
      write_all fd (P.frame_string "{nope");
      (match P.read_frame reader with
      | Ok payload -> (
          match P.response_of_string payload with
          | Ok { P.resp_body = Error (P.Parse_error, _); _ } -> ()
          | _ -> Alcotest.fail "expected parse_error response")
      | Error _ -> Alcotest.fail "connection must survive bad JSON");
      write_all fd (P.frame_string {| {"verb":"stats"} |});
      (match P.read_frame reader with
      | Ok payload -> (
          match P.response_of_string payload with
          | Ok { P.resp_body = Ok (P.Stats_result _); _ } -> ()
          | _ -> Alcotest.fail "expected stats after recovery")
      | Error _ -> Alcotest.fail "connection must stay usable");
      (* a broken length prefix is fatal for the connection *)
      write_all fd "notanumber\n";
      (match P.read_frame reader with
      | Ok payload -> (
          match P.response_of_string payload with
          | Ok { P.resp_body = Error (P.Parse_error, _); _ } -> ()
          | _ -> Alcotest.fail "expected framing error response")
      | Error P.Eof -> ()
      | Error e ->
          Alcotest.failf "unexpected frame error: %s"
            (match e with
             | P.Truncated -> "truncated" | P.Oversized _ -> "oversized"
             | P.Malformed m -> m | P.Stopped -> "stopped" | P.Eof -> "eof"));
      (* ... after which the server closes *)
      (match P.read_frame reader with
      | Error (P.Eof | P.Truncated) -> ()
      | _ -> Alcotest.fail "server must close after a framing fault");
      Unix.close fd;
      (* an oversized declaration also answers before closing *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let reader = P.reader fd in
      write_all fd (string_of_int (64 * 1024 * 1024) ^ "\n");
      (match P.read_frame reader with
      | Ok payload -> (
          match P.response_of_string payload with
          | Ok { P.resp_body = Error (P.Frame_too_large, _); _ } -> ()
          | _ -> Alcotest.fail "expected frame_too_large")
      | Error _ -> Alcotest.fail "expected a frame_too_large response first");
      Unix.close fd)

(* ---- streaming traces ---- *)

let test_streaming_trace_bounded () =
  let path = Filename.temp_file "mdl-stream" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.stream_to_file ~gc:false path;
  let n = 5000 in
  for i = 1 to n do
    Trace.begin_span "tick";
    if i mod 2 = 0 then Trace.begin_span "nested";
    if i mod 2 = 0 then Trace.end_span "nested";
    Trace.end_span "tick"
  done;
  (* bounded memory: nothing buffers, everything streams *)
  checki "no buffered events" 0 (Trace.span_count ());
  checki "all events streamed" (n + (n / 2)) (Trace.streamed_count ());
  Trace.stop ();
  checkb "stopped" false (Trace.enabled ());
  (* the streamed file is valid JSON with one object per event *)
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match Json.parse body with
  | Json.List events ->
      checki "event count" (n + (n / 2)) (List.length events);
      List.iteri
        (fun i ev ->
          if i < 10 then begin
            checkb "ph is X" true (Json.member "ph" ev = Some (Json.Str "X"));
            checkb "has ts" true (Option.is_some (Json.member "ts" ev));
            checkb "has dur" true (Option.is_some (Json.member "dur" ev))
          end)
        events
  | _ -> Alcotest.fail "streamed trace is not a JSON array"

let test_streaming_vs_buffered_identical_shape () =
  (* the same span program through both sinks yields the same events *)
  let run_spans () =
    Trace.begin_span "outer";
    Trace.begin_span ~args:[ ("k", Trace.Int 7) ] "inner";
    Trace.end_span "inner";
    Trace.end_span "outer"
  in
  let path = Filename.temp_file "mdl-stream" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.stream_to_file ~gc:false path;
  run_spans ();
  Trace.stop ();
  let ic = open_in path in
  let streamed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Trace.start ~gc:false ();
  run_spans ();
  Trace.stop ();
  let buf = Buffer.create 256 in
  Trace.export_json buf;
  Trace.clear ();
  (* two separate executions: wall-clock fields necessarily differ *)
  let strip ev = match ev with
    | Json.Obj ms -> Json.Obj (List.filter (fun (k, _) -> k <> "ts" && k <> "dur") ms)
    | j -> j
  in
  match (Json.parse streamed, Json.parse (Buffer.contents buf)) with
  | Json.List s, Json.Obj members -> (
      match List.assoc_opt "traceEvents" members with
      | Some (Json.List b) ->
          checki "same event count" (List.length b) (List.length s);
          List.iter2
            (fun a b' ->
              checkb "same event (modulo absolute ts)" true
                (Json.equal (strip a) (strip b')))
            s b
      | _ -> Alcotest.fail "buffered export has no traceEvents")
  | _ -> Alcotest.fail "unexpected export shapes"

(* ---- request-scoped tracing over the socket ---- *)

let trace_of what = function
  | Ok { P.resp_trace = Some tr; resp_body = Ok _; _ } -> tr
  | Ok { P.resp_trace = None; _ } -> Alcotest.failf "%s: no trace rollup" what
  | Ok { P.resp_body = Error (c, msg); _ } ->
      Alcotest.failf "%s: protocol error %s: %s" what (P.error_code_string c) msg
  | Error msg -> Alcotest.failf "%s: transport error: %s" what msg

let has_span tr name = List.exists (fun s -> s.P.sp_name = name) tr.P.tr_spans

(* Two traced requests executing concurrently (max_inflight 2) come
   back with distinct server request ids and disjoint span rollups —
   each sees exactly its own spans, nothing interleaves. *)
let test_traced_concurrent_requests () =
  with_server ~max_inflight:2 (fun server ->
      let a = Client.connect (Server.address server) in
      let b = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          let results = Array.make 2 (Error "unset") in
          let fire i c =
            Thread.create
              (fun () ->
                results.(i) <-
                  Client.request c (rq ~trace:true (P.Ping { pg_sleep_ms = 150 })))
              ()
          in
          let t1 = fire 0 a in
          Thread.delay 0.02;
          let t2 = fire 1 b in
          Thread.join t1;
          Thread.join t2;
          let tr1 = trace_of "first traced ping" results.(0) in
          let tr2 = trace_of "second traced ping" results.(1) in
          checkb "distinct request ids" true (tr1.P.tr_request <> tr2.P.tr_request);
          List.iter
            (fun tr ->
              (* exactly one root and one verb span each: nothing from
                 the concurrent request leaked into this context *)
              List.iter
                (fun (s : P.span_stat) ->
                  checki (Printf.sprintf "span %s count" s.P.sp_name) 1 s.P.sp_count;
                  checkb "span total positive" true (s.P.sp_total_s >= 0.0))
                tr.P.tr_spans;
              checkb "has serve.request root" true (has_span tr "serve.request");
              checkb "has serve.ping" true (has_span tr "serve.ping");
              checki "no foreign spans" 2 (List.length tr.P.tr_spans))
            [ tr1; tr2 ];
          (* an untraced request carries no rollup *)
          match Client.request a (rq (P.Ping { pg_sleep_ms = 0 })) with
          | Ok { P.resp_trace = None; resp_body = Ok P.Pong; _ } -> ()
          | _ -> Alcotest.fail "untraced ping must not carry a trace"))

(* A traced lump's rollup reaches through the service layer into the
   engine: the pipeline's own spans ride along, tagged per request. *)
let test_traced_lump_rollup () =
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ignore (submit_polling c);
      let tr =
        trace_of "traced lump"
          (Client.request c
             (rq ~trace:true
                (P.Lump { lp_model = "p"; lp_mode = P.Ordinary; lp_extra = [] })))
      in
      checkb "has serve.request root" true (has_span tr "serve.request");
      checkb "has serve.lump" true (has_span tr "serve.lump");
      checkb "engine spans present" true (List.length tr.P.tr_spans > 2);
      (* spans nest inside the root, so no span outlasts it *)
      let root =
        List.find (fun s -> s.P.sp_name = "serve.request") tr.P.tr_spans
      in
      List.iter
        (fun (s : P.span_stat) ->
          checkb
            (Printf.sprintf "span %s within the root" s.P.sp_name)
            true
            (s.P.sp_total_s <= root.P.sp_total_s +. 1e-9))
        tr.P.tr_spans)

(* ---- per-verb stats and the access log ---- *)

let test_stats_verbs () =
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match ok_result "ping" (Client.request c (rq (P.Ping { pg_sleep_ms = 0 }))) with
      | P.Pong -> ()
      | _ -> Alcotest.fail "expected pong");
      checkb "lump of unknown model errors" true
        (err_code "lump"
           (Client.request c
              (rq (P.Lump { lp_model = "ghost"; lp_mode = P.Ordinary; lp_extra = [] })))
         = P.Unknown_model);
      match ok_result "stats" (Client.request c (rq P.Stats)) with
      | P.Stats_result st ->
          checki "one entry per verb" 7 (List.length st.P.st_verbs);
          let find v = List.find (fun s -> s.P.vs_verb = v) st.P.st_verbs in
          let ping = find "ping" in
          checkb "ping served" true (ping.P.vs_requests >= 1);
          checki "ping errors" 0 ping.P.vs_errors;
          checkb "ping quantiles monotone" true
            (ping.P.vs_p50_s <= ping.P.vs_p95_s && ping.P.vs_p95_s <= ping.P.vs_p99_s);
          let lump = find "lump" in
          checkb "lump error counted" true (lump.P.vs_errors >= 1);
          checkb "lump errors <= requests" true (lump.P.vs_errors <= lump.P.vs_requests);
          let solve = find "solve" in
          checki "unserved verb at zero" 0 solve.P.vs_requests;
          checkb "uptime positive" true (st.P.st_uptime_s >= 0.0)
      | _ -> Alcotest.fail "expected stats_result")

let test_access_log () =
  let path = Filename.temp_file "lumpd-access" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_server ~access_log:path (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ignore (submit_polling c);
      (match ok_result "ping" (Client.request c (rq ~id:"al-1" (P.Ping { pg_sleep_ms = 0 }))) with
      | P.Pong -> ()
      | _ -> Alcotest.fail "expected pong");
      ignore
        (err_code "bad lump"
           (Client.request c
              (rq ~id:"al-2" (P.Lump { lp_model = "nope"; lp_mode = P.Ordinary; lp_extra = [] })))));
  (* the server is stopped: the log is flushed and closed *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  checki "one line per request" 3 (List.length lines);
  let parsed = List.map Json.parse lines in
  let str j k =
    match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  in
  let int_of j k =
    match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
  in
  List.iter
    (fun j ->
      checkb "has ts" true (Option.is_some (Json.member "ts" j));
      (match str j "request" with
      | Some r -> checkb "server id shape" true (String.length r > 2 && String.sub r 0 2 = "r-")
      | None -> Alcotest.fail "line lacks request id");
      checkb "has verb" true (Option.is_some (str j "verb"));
      checkb "queue_ns non-negative" true
        (match int_of j "queue_ns" with Some n -> n >= 0 | None -> false);
      checkb "exec_ns non-negative" true
        (match int_of j "exec_ns" with Some n -> n >= 0 | None -> false);
      checkb "bytes positive" true
        (match int_of j "bytes" with Some n -> n > 0 | None -> false))
    parsed;
  (* distinct, monotonically assigned server ids *)
  let ids = List.filter_map (fun j -> str j "request") parsed in
  checki "distinct server ids" 3 (List.length (List.sort_uniq compare ids));
  (* client ids and statuses travel verbatim *)
  let by_id id = List.find (fun j -> str j "id" = Some id) parsed in
  checkb "ping logged ok" true (str (by_id "al-1") "status" = Some "ok");
  checkb "error status is the code" true
    (str (by_id "al-2") "status" = Some "unknown_model");
  checkb "verb recorded" true (str (by_id "al-2") "verb" = Some "lump")

let qcheck_tests =
  [ qcheck_json_roundtrip; qcheck_request_roundtrip; qcheck_response_roundtrip ]

(* The socket layer keeps only a port's low 16 bits, so an out-of-range
   port used to listen somewhere else: 65536 on an ephemeral port, -1 on
   65535.  A server that does start is stopped, so the test fails
   cleanly. *)
let test_start_rejects_out_of_range_ports () =
  let was_enabled = Metrics.enabled () in
  let base = Server.default_config ~listen:(Server.Unix_socket (fresh_path ())) in
  let rejects what config expected =
    match Server.start config with
    | server ->
        Server.stop server;
        Alcotest.failf "%s: server started" what
    | exception Invalid_argument msg -> Alcotest.(check string) what expected msg
  in
  let listen_msg = "Server.start: listen port outside 0-65535" in
  rejects "listen port 65536"
    { base with Server.listen = Server.Tcp ("127.0.0.1", 65536) }
    listen_msg;
  rejects "listen port -1" { base with Server.listen = Server.Tcp ("127.0.0.1", -1) } listen_msg;
  rejects "metrics port 65536"
    { base with Server.metrics_port = Some 65536 }
    "Server.start: metrics port outside 0-65535";
  Metrics.set_enabled was_enabled

let tests =
  [
    Alcotest.test_case "json: basics" `Quick test_json_basics;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_unicode;
    Alcotest.test_case "json: duplicate keys last-wins" `Quick test_json_duplicate_keys;
    Alcotest.test_case "json: int/float distinction survives" `Quick
      test_json_int_float_distinction;
    Alcotest.test_case "json: malformed documents rejected" `Quick test_json_errors;
    Alcotest.test_case "protocol: unknown fields ignored" `Quick test_unknown_fields_ignored;
    Alcotest.test_case "protocol: version gate" `Quick test_version_gate;
    Alcotest.test_case "protocol: decode error taxonomy" `Quick test_decode_errors;
    Alcotest.test_case "protocol: decoder never raises (fuzz)" `Quick test_decoder_fuzz;
    Alcotest.test_case "protocol: golden wire bytes" `Quick test_golden_wire;
    Alcotest.test_case "framing: round trip and batching" `Quick test_frame_roundtrip;
    Alcotest.test_case "framing: byte-at-a-time writes" `Quick test_frame_split_writes;
    Alcotest.test_case "framing: truncated frame" `Quick test_frame_truncated;
    Alcotest.test_case "framing: oversized declaration" `Quick test_frame_oversized;
    Alcotest.test_case "framing: malformed prefix/terminator" `Quick test_frame_malformed;
    Alcotest.test_case "framing: stop interrupts an idle read" `Quick test_frame_stop;
    Alcotest.test_case "framing: reader survives random bytes (fuzz)" `Quick
      test_reader_fuzz;
    Alcotest.test_case "e2e: socket results bit-identical to lump_sweep" `Slow
      test_e2e_bit_identical;
    Alcotest.test_case "robustness: deadline expiry frees the slot" `Slow
      test_deadline_expiry_frees_slot;
    Alcotest.test_case "robustness: deadline enforced during execution" `Slow
      test_deadline_during_execution;
    Alcotest.test_case "robustness: bounded queue rejects the flood" `Slow
      test_queue_full;
    Alcotest.test_case "robustness: shutdown drains in-flight work" `Slow
      test_shutdown_drains;
    Alcotest.test_case "robustness: in-process handle path" `Quick test_handle_in_process;
    Alcotest.test_case "start: ports outside 0-65535 rejected" `Quick
      test_start_rejects_out_of_range_ports;
    Alcotest.test_case "submit: bad parameters answered bad_request" `Quick
      test_submit_rejects_bad_params;
    Alcotest.test_case "submit: size means the main parameter" `Slow
      test_submit_size_means_main_knob;
    Alcotest.test_case "submit: parameter order is not identity" `Quick
      test_submit_param_order_is_not_identity;
    Alcotest.test_case "robustness: far deadlines never expire" `Quick
      test_far_deadline_never_expires;
    Alcotest.test_case "robustness: malformed frames answered then closed" `Slow
      test_malformed_frames_over_socket;
    Alcotest.test_case "metrics: request line split across writes" `Quick
      test_scrape_split_request_line;
    Alcotest.test_case "metrics: silent client does not block stop" `Slow
      test_scrape_silent_client_does_not_block_stop;
    Alcotest.test_case "trace: streaming sink is bounded and valid" `Quick
      test_streaming_trace_bounded;
    Alcotest.test_case "trace: streamed events equal buffered events" `Quick
      test_streaming_vs_buffered_identical_shape;
    Alcotest.test_case "trace: concurrent traced requests stay disjoint" `Slow
      test_traced_concurrent_requests;
    Alcotest.test_case "trace: lump rollup reaches the engine" `Slow
      test_traced_lump_rollup;
    Alcotest.test_case "stats: per-verb counters and quantiles" `Slow test_stats_verbs;
    Alcotest.test_case "access log: one JSON line per request" `Slow test_access_log;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
