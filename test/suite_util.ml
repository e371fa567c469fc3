(* Unit and property tests for Mdl_util. *)

module Dynarray = Mdl_util.Dynarray
module Floatx = Mdl_util.Floatx
module Prng = Mdl_util.Prng
module Hashx = Mdl_util.Hashx

let test_dynarray_push_get () =
  let t = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.push t (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dynarray.length t);
  Alcotest.(check int) "get 7" 49 (Dynarray.get t 7);
  Alcotest.(check int) "get 99" 9801 (Dynarray.get t 99)

let test_dynarray_pop () =
  let t = Dynarray.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "pop" 3 (Dynarray.pop t);
  Alcotest.(check int) "len after pop" 2 (Dynarray.length t);
  Alcotest.(check int) "pop" 2 (Dynarray.pop t);
  Alcotest.(check int) "pop" 1 (Dynarray.pop t);
  Alcotest.check_raises "pop empty" (Invalid_argument "Dynarray.pop: empty") (fun () ->
      ignore (Dynarray.pop t))

let test_dynarray_bounds () =
  let t = Dynarray.of_list [ 10 ] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Dynarray.get: index 1 out of bounds [0,1)") (fun () ->
      ignore (Dynarray.get t 1));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Dynarray.set: index -1 out of bounds [0,1)") (fun () ->
      Dynarray.set t (-1) 0)

let test_dynarray_sort () =
  let t = Dynarray.of_list [ 3; 1; 2 ] in
  Dynarray.sort compare t;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Dynarray.to_list t)

let test_dynarray_iterators () =
  let t = Dynarray.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Dynarray.fold_left ( + ) 0 t);
  Alcotest.(check bool) "exists" true (Dynarray.exists (fun x -> x = 3) t);
  Alcotest.(check bool) "not exists" false (Dynarray.exists (fun x -> x = 9) t);
  let sum = ref 0 in
  Dynarray.iteri (fun i x -> sum := !sum + (i * x)) t;
  Alcotest.(check int) "iteri" 20 !sum

let test_floatx_approx () =
  Alcotest.(check bool) "eq exact" true (Floatx.approx_eq 1.0 1.0);
  Alcotest.(check bool) "eq close" true (Floatx.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "neq" false (Floatx.approx_eq 1.0 1.001);
  Alcotest.(check bool) "near zero" true (Floatx.approx_eq 0.0 1e-12);
  Alcotest.(check bool) "relative large" true (Floatx.approx_eq 1e12 (1e12 +. 1.0));
  Alcotest.(check int) "compare eq" 0 (Floatx.compare_approx 2.0 (2.0 +. 1e-13));
  Alcotest.(check bool) "compare lt" true (Floatx.compare_approx 1.0 2.0 < 0)

let test_floatx_quantize () =
  (* same bucket -> identical representative (bucket equality is
     transitive, unlike compare_approx) *)
  Alcotest.(check (float 0.0)) "close values identical" (Floatx.quantize 1.0)
    (Floatx.quantize (1.0 +. 1e-12));
  Alcotest.(check bool) "distant values differ" true
    (Floatx.quantize 1.0 <> Floatx.quantize 1.001);
  Alcotest.(check (float 0.0)) "negative zero merged" (Floatx.quantize 0.0)
    (Floatx.quantize (-0.0));
  Alcotest.(check bool) "plus zero positive sign" true
    (1.0 /. Floatx.quantize (-0.0) > 0.0);
  Alcotest.(check (float 0.0)) "idempotent" (Floatx.quantize 2.5)
    (Floatx.quantize (Floatx.quantize 2.5));
  (* overflow-of-the-grid passthrough *)
  Alcotest.(check (float 0.0)) "huge value passes through" Float.max_float
    (Floatx.quantize Float.max_float);
  Alcotest.(check bool) "infinity passes through" true
    (Floatx.quantize Float.infinity = Float.infinity);
  (* explicit eps *)
  Alcotest.(check (float 0.0)) "eps grid" 1.5 (Floatx.quantize ~eps:0.5 1.4)

let test_timer_monotonic () =
  let t = Mdl_util.Timer.start () in
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  let e1 = Mdl_util.Timer.elapsed_s t in
  Alcotest.(check bool) "elapsed non-negative" true (e1 >= 0.0);
  let e2 = Mdl_util.Timer.elapsed_s t in
  Alcotest.(check bool) "elapsed non-decreasing" true (e2 >= e1);
  let r, s = Mdl_util.Timer.time (fun () -> !x) in
  Alcotest.(check bool) "time returns result" true (r > 0);
  Alcotest.(check bool) "time non-negative" true (s >= 0.0)

let test_timer_now_ns_monotonic () =
  (* The raw monotonic clock behind the observability spans: 1e5
     consecutive reads must never decrease, and the whole sweep must
     advance the clock by a representable (positive) amount. *)
  let n = 100_000 in
  let prev = ref (Mdl_util.Timer.now_ns ()) in
  let first = !prev in
  for _ = 1 to n do
    let t = Mdl_util.Timer.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "now_ns went backwards: %Ld after %Ld" t !prev;
    prev := t
  done;
  Alcotest.(check bool) "clock advanced" true (Int64.compare !prev first > 0);
  let t0 = Mdl_util.Timer.start () in
  let e = Mdl_util.Timer.elapsed_ns t0 in
  Alcotest.(check bool) "elapsed_ns non-negative" true (Int64.compare e 0L >= 0)

let test_dynarray_no_leak () =
  (* pop and clear must drop references to the stored elements so the GC
     can collect them (the slots are junk-filled / released) *)
  let t = Dynarray.create () in
  let w = Weak.create 2 in
  Dynarray.push t (Bytes.create 16);
  Dynarray.push t (Bytes.create 16);
  Weak.set w 0 (Some (Dynarray.get t 0));
  Weak.set w 1 (Some (Dynarray.get t 1));
  ignore (Sys.opaque_identity (Dynarray.pop t));
  Gc.full_major ();
  Alcotest.(check bool) "popped element collectable" true (Weak.get w 1 = None);
  Alcotest.(check bool) "remaining element alive" true (Weak.get w 0 <> None);
  Dynarray.clear t;
  Gc.full_major ();
  Alcotest.(check bool) "cleared elements collectable" true (Weak.get w 0 = None);
  Alcotest.(check int) "cleared length" 0 (Dynarray.length t);
  (* still usable after clear *)
  Dynarray.push t (Bytes.create 16);
  Alcotest.(check int) "push after clear" 1 (Dynarray.length t)

let test_sortx () =
  let n = 200 in
  let g = Prng.of_seed 99 in
  let keys = Array.init n (fun _ -> Prng.int g 20) in
  let idx = Array.init n (fun i -> i) in
  Mdl_util.Sortx.sort_by (fun a b -> compare keys.(a) keys.(b)) idx;
  for i = 1 to n - 1 do
    let a = idx.(i - 1) and b = idx.(i) in
    if keys.(a) > keys.(b) then Alcotest.fail "not sorted";
    (* stability: equal keys keep original order *)
    if keys.(a) = keys.(b) && a > b then Alcotest.fail "not stable"
  done;
  let empty = [||] in
  Mdl_util.Sortx.sort_by compare empty;
  Alcotest.(check (array int)) "empty ok" [||] empty

(* Naive model of the fused run sorts: stable sort of (cls, key, state)
   triples, only the first n entries, trailing scratch untouched. *)
let check_sort_runs ~sort ~pp_key cls keys states n =
  let expect =
    Array.init n (fun i -> (cls.(i), keys.(i), states.(i)))
  in
  Array.stable_sort compare expect;
  let tail_c = Array.sub cls n (Array.length cls - n) in
  let tail_k = Array.sub keys n (Array.length keys - n) in
  let tail_s = Array.sub states n (Array.length states - n) in
  sort ~cls ~keys ~states n;
  for i = 0 to n - 1 do
    let c, k, s = expect.(i) in
    if cls.(i) <> c || keys.(i) <> k || states.(i) <> s then
      Alcotest.fail
        (Printf.sprintf "entry %d: got (%d,%s,%d) want (%d,%s,%d)" i cls.(i)
           (pp_key keys.(i)) states.(i) c (pp_key k) s)
  done;
  Alcotest.(check (array int)) "cls tail untouched" tail_c
    (Array.sub cls n (Array.length cls - n));
  Alcotest.(check (array int)) "state tail untouched" tail_s
    (Array.sub states n (Array.length states - n));
  if tail_k <> Array.sub keys n (Array.length keys - n) then
    Alcotest.fail "key tail touched"

let test_sort_runs_fused () =
  let g = Prng.of_seed 1234 in
  for trial = 0 to 49 do
    let n = Prng.int g 64 in
    let cap = n + Prng.int g 8 in
    ignore trial;
    let cls = Array.init cap (fun _ -> Prng.int g 5) in
    let states = Array.init cap (fun i -> i) in
    let fkeys = Array.init cap (fun _ -> float_of_int (Prng.int g 6) /. 2.0) in
    check_sort_runs ~sort:Mdl_util.Sortx.sort_runs_float ~pp_key:string_of_float
      (Array.copy cls) fkeys (Array.copy states) n;
    let ikeys = Array.init cap (fun _ -> Prng.int g 6) in
    check_sort_runs ~sort:Mdl_util.Sortx.sort_runs_int ~pp_key:string_of_int
      (Array.copy cls) ikeys (Array.copy states) n
  done

let test_kahan () =
  let a = Array.make 10_000 0.1 in
  Alcotest.(check bool) "kahan sum" true
    (Float.abs (Floatx.sum_kahan a -. 1000.0) < 1e-10)

let test_prng_deterministic () =
  let g1 = Prng.create 42L and g2 = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 g1) (Prng.int64 g2)
  done

let test_prng_split_independent () =
  let g = Prng.create 7L in
  let g' = Prng.split g in
  let a = Prng.int64 g and b = Prng.int64 g' in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_prng_bounds () =
  let g = Prng.create 1L in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Prng.float g 2.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_of_seed_fork () =
  (* of_seed is deterministic in the int seed *)
  let a = Prng.of_seed 42 and b = Prng.of_seed 42 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "of_seed same stream" (Prng.int64 a) (Prng.int64 b)
  done;
  Alcotest.(check bool) "different seeds differ" true
    (Prng.int64 (Prng.of_seed 1) <> Prng.int64 (Prng.of_seed 2));
  (* fork is deterministic, keyed, and does not advance the parent *)
  let master = Prng.of_seed 7 in
  let before = Prng.int64 (Prng.fork master 0) in
  let f1 = Prng.int64 (Prng.fork master 1) in
  let f1' = Prng.int64 (Prng.fork master 1) in
  Alcotest.(check int64) "fork keyed deterministically" f1 f1';
  Alcotest.(check int64) "fork does not advance parent" before
    (Prng.int64 (Prng.fork master 0));
  Alcotest.(check bool) "distinct keys give distinct streams" true (before <> f1);
  (* streams from distinct keys look independent: no pairwise
     collisions across a modest family *)
  let firsts = Array.init 64 (fun k -> Prng.int64 (Prng.fork master k)) in
  let tbl = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) firsts;
  Alcotest.(check int) "64 forks, 64 distinct first draws" 64 (Hashtbl.length tbl)

let test_hashx () =
  Alcotest.(check bool) "combine order-sensitive" true
    (Hashx.combine 1 2 <> Hashx.combine 2 1);
  Alcotest.(check bool) "float hash distinguishes" true
    (Hashx.float 1.0 <> Hashx.float 2.0);
  Alcotest.(check int) "int_array stable" (Hashx.int_array [| 1; 2; 3 |])
    (Hashx.int_array [| 1; 2; 3 |])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"dynarray to_array of_array roundtrip"
      (small_list int) (fun l ->
        Dynarray.to_list (Dynarray.of_list l) = l);
    Test.make ~count:200 ~name:"prng int bound respected"
      (pair (int_bound 1000) small_int) (fun (bound, seed) ->
        let bound = bound + 1 in
        let g = Prng.create (Int64.of_int seed) in
        let x = Prng.int g bound in
        x >= 0 && x < bound);
    Test.make ~count:200 ~name:"approx_eq reflexive" float (fun f ->
        (Float.is_nan f) || Floatx.approx_eq f f);
    (* Lists up to 100 long, so both the insertion sort (up to 16) and
       the heap sort run; the suffix beyond the prefix must not move. *)
    Test.make ~count:300 ~name:"sort_int_prefix sorts the prefix only"
      (pair (list_of_size Gen.(int_range 0 100) (int_range (-50) 50)) small_nat)
      (fun (l, cut) ->
        let a = Array.of_list l in
        let n = cut mod (Array.length a + 1) in
        let prefix = Array.sub a 0 n in
        Array.sort compare prefix;
        let want = Array.append prefix (Array.sub a n (Array.length a - n)) in
        Mdl_util.Sortx.sort_int_prefix a n;
        a = want);
  ]

let tests =
  [
    Alcotest.test_case "dynarray push/get" `Quick test_dynarray_push_get;
    Alcotest.test_case "dynarray pop" `Quick test_dynarray_pop;
    Alcotest.test_case "dynarray bounds" `Quick test_dynarray_bounds;
    Alcotest.test_case "dynarray sort" `Quick test_dynarray_sort;
    Alcotest.test_case "dynarray iterators" `Quick test_dynarray_iterators;
    Alcotest.test_case "floatx approx" `Quick test_floatx_approx;
    Alcotest.test_case "floatx quantize" `Quick test_floatx_quantize;
    Alcotest.test_case "timer monotonic" `Quick test_timer_monotonic;
    Alcotest.test_case "timer now_ns monotonic 1e5" `Quick test_timer_now_ns_monotonic;
    Alcotest.test_case "dynarray no space leak" `Quick test_dynarray_no_leak;
    Alcotest.test_case "sortx stable sort" `Quick test_sortx;
    Alcotest.test_case "sortx fused run sorts" `Quick test_sort_runs_fused;
    Alcotest.test_case "kahan summation" `Quick test_kahan;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng of_seed/fork" `Quick test_prng_of_seed_fork;
    Alcotest.test_case "hashx" `Quick test_hashx;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
