module Dynarray = Mdl_util.Dynarray
module Sortx = Mdl_util.Sortx
module Timer = Mdl_util.Timer
module Floatx = Mdl_util.Floatx
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics

let log_src = Logs.Src.create "mdl.refine" ~doc:"partition-refinement engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Registry metrics, the only store of the engine's counts.  The int
   counters are published once per refinement run ([finish]); the
   latency histograms are fed per pass, guarded by [Metrics.enabled] so
   the disabled cost is one branch. *)
let m_pass_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-7 ~hi:1.0 ~per_decade:3)
    "refiner.pass_seconds"

let m_sort_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-7 ~hi:1.0 ~per_decade:3)
    "refiner.sort_seconds"

let m_run_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-6 ~hi:10.0 ~per_decade:3)
    "refiner.run_seconds"

let m_pass_keys =
  Metrics.histogram
    ~buckets:[| 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0 |]
    "refiner.pass_keys"

type slice = int array * int * int

type 'k spec = {
  size : int;
  key_compare : 'k -> 'k -> int;
  splitter_keys : slice -> (int * 'k) list;
}

(* One run's counts.  The tally lives only as long as its run: the
   [refine.run] span arguments and the [mdl.refine] debug line read it,
   and [finish] publishes it into the registry. *)
type tally = {
  mutable splitter_passes : int;  (* worklist pops *)
  mutable key_evals : int;  (* (state, key) pairs the splitters returned *)
  mutable splits : int;
  mutable blocks_created : int;  (* new class ids allocated by splits *)
  mutable largest_skips : int;
  mutable counting_sort_passes : int;
  mutable intern_keys : int;  (* largest per-pass rank alphabet *)
  mutable wall_s : float;
}

let new_tally () =
  {
    splitter_passes = 0;
    key_evals = 0;
    splits = 0;
    blocks_created = 0;
    largest_skips = 0;
    counting_sort_passes = 0;
    intern_keys = 0;
    wall_s = 0.0;
  }

let pp_tally ppf s =
  Format.fprintf ppf
    "passes %d (counting-sorted %d), key evals %d, splits %d, blocks created %d, \
     largest skips %d, key alphabet %d, %.4fs"
    s.splitter_passes s.counting_sort_passes s.key_evals s.splits s.blocks_created
    s.largest_skips s.intern_keys s.wall_s

(* One splitter pass's keyed states after sorting, shared by both
   pipelines: [pd_states]/[pd_classes] hold the touched states and their
   classes (recorded before any split of this pass relabels them),
   sorted by (class, key, state); [pd_newkey.(i)] marks positions whose
   key differs from position [i-1] (consulted only within one class's
   span, [pd_newkey.(0)] is never read across class boundaries).  The
   arrays are pipeline-owned scratch, valid in positions [0 .. m-1]. *)
type pass_data = {
  mutable pd_states : int array;
  mutable pd_classes : int array;
  mutable pd_newkey : bool array;
}

(* The worklist holds class ids; [in_wl] tracks membership so the
   Derisavi/Hermanns/Sanders bookkeeping can distinguish pending
   splitters (whose sub-blocks must all stay pending) from settled ones
   (whose largest sub-block may be skipped).  An id popped from the
   queue denotes the class's members at pop time, which is exactly the
   replace-parent-by-sub-blocks semantics of the original algorithm.
   [prepare pd p slice] is the pipeline-specific part: evaluate the
   splitter's keys and leave them sorted in [pd], returning the pair
   count.

   The working partition is an id-preserving [Partition.copy] of the
   input, not a renumbering round-trip: class ids and slice layouts stay
   the input's until a class itself splits, so a splitter's member
   sequence is determined by the input layout and the splits alone —
   what lets the sweep engine's level memo key a fixed point by its
   initial layout. *)
let core_body st ~prepare ~initial =
  let timer = Timer.start () in
  let p = Partition.copy initial in
  let worklist = Queue.create () in
  let in_wl = Dynarray.create () in
  for c = 0 to Partition.num_classes p - 1 do
    Queue.add c worklist;
    Dynarray.push in_wl true
  done;
  (* Scratch reused across splits of one pass. *)
  let bounds = ref (Array.make 8 0) in
  let pd = { pd_states = [||]; pd_classes = [||]; pd_newkey = [||] } in
  (* Captured once per run: the observability switches are toggled
     between runs, not during one, and a single load per pass keeps the
     disabled path at a branch. *)
  let traced = Trace.enabled () in
  let metered = Metrics.enabled () in
  while not (Queue.is_empty worklist) do
    let splitter = Queue.pop worklist in
    Dynarray.set in_wl splitter false;
    st.splitter_passes <- st.splitter_passes + 1;
    if traced then Trace.begin_span ~cat:"refine" "refine.pass";
    let t0 = if metered then Timer.now_ns () else 0L in
    let m = prepare pd p (Partition.view p splitter) in
    st.key_evals <- st.key_evals + m;
    if m > 0 then begin
      let tc = pd.pd_classes in
      let all_members = pd.pd_states in
      let nk = pd.pd_newkey in
      let a = ref 0 in
      while !a < m do
        (* [a, b) = touched states of one class [cc]. *)
        let cc = tc.(!a) in
        let b = ref (!a + 1) in
        while !b < m && tc.(!b) = cc do incr b done;
        let b = !b in
        (* Cut [a, b) into runs of equal keys. *)
        let nruns = ref 1 in
        for i = !a + 1 to b - 1 do
          if nk.(i) then incr nruns
        done;
        let nruns = !nruns in
        if Array.length !bounds < nruns + 1 then bounds := Array.make (nruns + 1) 0;
        let bnd = !bounds in
        bnd.(0) <- 0;
        let r = ref 0 in
        for i = !a + 1 to b - 1 do
          if nk.(i) then begin
            incr r;
            bnd.(!r) <- i - !a
          end
        done;
        bnd.(nruns) <- b - !a;
        let touched = b - !a in
        if nruns > 1 || touched < Partition.class_size p cc then begin
          let members = Array.sub all_members !a touched in
          let ids = Partition.split_runs p cc ~members ~bounds:bnd ~nruns in
          match ids with
          | [ _ ] -> () (* whole class in one run: no split *)
          | ids ->
              st.splits <- st.splits + 1;
              st.blocks_created <- st.blocks_created + List.length ids - 1;
              (* Grow the membership table for the fresh ids. *)
              while Dynarray.length in_wl < Partition.num_classes p do
                Dynarray.push in_wl false
              done;
              if Dynarray.get in_wl cc then
                (* Pending splitter split: its sub-blocks must all stay
                   pending ([cc] already queued; queue the rest). *)
                List.iter
                  (fun id ->
                    if not (Dynarray.get in_wl id) then begin
                      Dynarray.set in_wl id true;
                      Queue.add id worklist
                    end)
                  ids
              else begin
                (* Settled splitter: all sub-blocks but the largest
                   become splitters.  Keys are additive over disjoint
                   splitter unions, so stability against the parent and
                   the small sub-blocks implies it for the largest. *)
                let largest = ref cc and largest_size = ref (-1) in
                List.iter
                  (fun id ->
                    let s = Partition.class_size p id in
                    if s > !largest_size then begin
                      largest := id;
                      largest_size := s
                    end)
                  ids;
                st.largest_skips <- st.largest_skips + 1;
                List.iter
                  (fun id ->
                    if id <> !largest && not (Dynarray.get in_wl id) then begin
                      Dynarray.set in_wl id true;
                      Queue.add id worklist
                    end)
                  ids
              end
        end;
        a := b
      done
    end;
    if metered then begin
      Metrics.observe m_pass_seconds
        (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
      Metrics.observe m_pass_keys (float_of_int m)
    end;
    if traced then begin
      Trace.add_args [ ("splitter", Trace.Int splitter); ("keys", Trace.Int m) ];
      Trace.end_span "refine.pass"
    end
  done;
  st.wall_s <- st.wall_s +. Timer.elapsed_s timer;
  p

let core st ~fn ~size ~prepare ~initial =
  if Partition.size initial <> size then
    invalid_arg (Printf.sprintf "Refiner.%s: partition size mismatch" fn);
  if not (Trace.enabled ()) then core_body st ~prepare ~initial
  else
    Trace.with_span ~cat:"refine" ~args:[ ("pipeline", Trace.Str fn) ] "refine.run"
      (fun () ->
        let p = core_body st ~prepare ~initial in
        Trace.add_args
          [
            ("passes", Trace.Int st.splitter_passes);
            ("splits", Trace.Int st.splits);
            ("classes", Trace.Int (Partition.num_classes p));
          ];
        p)

(* The registry cells each run's tally is published into. *)
let c_splitter_passes = Metrics.counter "refiner.splitter_passes"

let c_key_evals = Metrics.counter "refiner.key_evals"

let c_splits = Metrics.counter "refiner.splits"

let c_blocks_created = Metrics.counter "refiner.blocks_created"

let c_largest_skips = Metrics.counter "refiner.largest_skips"

let c_counting_sort_passes = Metrics.counter "refiner.counting_sort_passes"

let c_runs = Metrics.counter "refiner.runs"

let g_intern_alphabet = Metrics.gauge "refiner.intern_alphabet"

(* Per-run epilogue shared by both pipelines: registry publication and
   the debug log line. *)
let finish ~fn st =
  if Metrics.enabled () then begin
    Metrics.incr c_runs;
    Metrics.add c_splitter_passes st.splitter_passes;
    Metrics.add c_key_evals st.key_evals;
    Metrics.add c_splits st.splits;
    Metrics.add c_blocks_created st.blocks_created;
    Metrics.add c_largest_skips st.largest_skips;
    Metrics.add c_counting_sort_passes st.counting_sort_passes;
    Metrics.set_max g_intern_alphabet (float_of_int st.intern_keys);
    Metrics.observe m_run_seconds st.wall_s
  end;
  Log.debug (fun m -> m "%s: %a" fn pp_tally st)

(* ---- monomorphic float pipeline ---- *)

type float_buf = {
  mutable fb_states : int array;
  mutable fb_keys : float array;
  mutable fb_len : int;
}

let[@inline] emit buf s k =
  let i = buf.fb_len in
  if i = Array.length buf.fb_states then begin
    let cap = max 64 (2 * i) in
    let states = Array.make cap 0 in
    let keys = Array.make cap 0.0 in
    Array.blit buf.fb_states 0 states 0 i;
    Array.blit buf.fb_keys 0 keys 0 i;
    buf.fb_states <- states;
    buf.fb_keys <- keys
  end;
  buf.fb_states.(i) <- s;
  buf.fb_keys.(i) <- k;
  buf.fb_len <- i + 1

type float_spec = {
  fsize : int;
  fsplitter_keys : slice -> float_buf -> unit;
}

let comp_lumping_float fspec ~initial =
  let st = new_tally () in
  let buf = { fb_states = [||]; fb_keys = [||]; fb_len = 0 } in
  let cls = ref [||] in
  let nk = ref [||] in
  let prepare pd p slice =
    buf.fb_len <- 0;
    fspec.fsplitter_keys slice buf;
    let m = buf.fb_len in
    if m > 0 then begin
      let states = buf.fb_states in
      let keys = buf.fb_keys in
      (* Quantize inline: grouping happens on the deterministic grid
         representative, never on a non-transitive tolerant compare. *)
      Floatx.quantize_range keys 0 m;
      if Array.length !cls < Array.length states then begin
        cls := Array.make (Array.length states) 0;
        nk := Array.make (Array.length states) true
      end;
      let cls = !cls in
      for i = 0 to m - 1 do
        cls.(i) <- Partition.class_of p states.(i)
      done;
      (* Fused sort over the scratch buffers themselves. *)
      Sortx.sort_runs_float ~cls ~keys ~states m;
      let nk = !nk in
      nk.(0) <- true;
      for i = 1 to m - 1 do
        nk.(i) <- keys.(i - 1) <> keys.(i)
      done;
      pd.pd_states <- states;
      pd.pd_classes <- cls;
      pd.pd_newkey <- nk
    end;
    m
  in
  let p = core st ~fn:"comp_lumping_float" ~size:fspec.fsize ~prepare ~initial in
  finish ~fn:"comp_lumping_float" st;
  p

(* ---- ranked pipeline (pre-interned integer keys) ---- *)

(* Counting sort costs two stable scatter passes plus O(alphabet)
   bucket resets; it wins when keys actually repeat and the pass is not
   tiny.  With no repetition (alphabet ~ m) the fused comparison sort's
   cache behaviour wins despite the log factor. *)
let use_counting_sort ~m ~alphabet = m >= 16 && 2 * alphabet <= m

let ensure_int r n =
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0

(* Ranked-pipeline scratch: parallel (state, rank, class) triples plus
   a ping buffer for the two counting-sort scatter passes. *)
type indexed_scratch = {
  a_states : int array ref;
  a_ranks : int array ref;
  a_cls : int array ref;
  b_states : int array ref;
  b_ranks : int array ref;
  b_cls : int array ref;
  nk : bool array ref;
  rank_counts : int array ref;
  dense_counts : int array ref;
  class_remap : int array;
      (* class id -> dense first-seen id during one counting pass;
         entries are reset to -1 for exactly the touched classes
         afterwards *)
}

let indexed_scratch ~size =
  {
    a_states = ref [||];
    a_ranks = ref [||];
    a_cls = ref [||];
    b_states = ref [||];
    b_ranks = ref [||];
    b_cls = ref [||];
    nk = ref [||];
    rank_counts = ref [||];
    dense_counts = ref [||];
    class_remap = Array.make (max size 1) (-1);
  }

let ensure_indexed sc m =
  ensure_int sc.a_states m;
  ensure_int sc.a_ranks m;
  ensure_int sc.a_cls m;
  if Array.length !(sc.nk) < m then
    sc.nk := Array.make (max m (2 * Array.length !(sc.nk))) true

(* Order this pass's m filled triples by (class, rank) — counting sort
   when the rank alphabet is small enough, fused comparison sort
   otherwise — and publish the runs to the core's pass data. *)
let sort_indexed st sc pd ~m ~alphabet =
  if alphabet > st.intern_keys then st.intern_keys <- alphabet;
  let metered = Metrics.enabled () in
  let t0 = if metered then Timer.now_ns () else 0L in
  let sa = !(sc.a_states) and ra = !(sc.a_ranks) and ca = !(sc.a_cls) in
  let class_remap = sc.class_remap in
  (if use_counting_sort ~m ~alphabet then begin
        st.counting_sort_passes <- st.counting_sort_passes + 1;
        ensure_int sc.b_states m;
        ensure_int sc.b_ranks m;
        ensure_int sc.b_cls m;
        let sb = !(sc.b_states) and rb = !(sc.b_ranks) and cb = !(sc.b_cls) in
        (* Scatter 1: stable counting sort by rank, a -> b. *)
        ensure_int sc.rank_counts alphabet;
        let rc = !(sc.rank_counts) in
        Array.fill rc 0 alphabet 0;
        for i = 0 to m - 1 do
          rc.(ra.(i)) <- rc.(ra.(i)) + 1
        done;
        let acc = ref 0 in
        for r = 0 to alphabet - 1 do
          let c = rc.(r) in
          rc.(r) <- !acc;
          acc := !acc + c
        done;
        for i = 0 to m - 1 do
          let r = ra.(i) in
          let dst = rc.(r) in
          rc.(r) <- dst + 1;
          sb.(dst) <- sa.(i);
          rb.(dst) <- r;
          cb.(dst) <- ca.(i)
        done;
        (* Scatter 2: stable counting sort by class, b -> a.  Classes
           are remapped to dense first-seen ids so the buckets stay
           O(touched classes), not O(num_classes); any class order is
           fine — the core only needs each class's span contiguous. *)
        let dclasses = ref 0 in
        for i = 0 to m - 1 do
          let c = cb.(i) in
          if class_remap.(c) < 0 then begin
            class_remap.(c) <- !dclasses;
            incr dclasses
          end
        done;
        ensure_int sc.dense_counts !dclasses;
        let dc = !(sc.dense_counts) in
        Array.fill dc 0 !dclasses 0;
        for i = 0 to m - 1 do
          let d = class_remap.(cb.(i)) in
          dc.(d) <- dc.(d) + 1
        done;
        let acc = ref 0 in
        for d = 0 to !dclasses - 1 do
          let c = dc.(d) in
          dc.(d) <- !acc;
          acc := !acc + c
        done;
        for i = 0 to m - 1 do
          let c = cb.(i) in
          let d = class_remap.(c) in
          let dst = dc.(d) in
          dc.(d) <- dst + 1;
          sa.(dst) <- sb.(i);
          ra.(dst) <- rb.(i);
          ca.(dst) <- c
        done;
        for i = 0 to m - 1 do
          class_remap.(ca.(i)) <- -1
        done
  end
  else Sortx.sort_runs_int ~cls:ca ~keys:ra ~states:sa m);
  if metered then
    Metrics.observe m_sort_seconds
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9);
  let nk = !(sc.nk) in
  nk.(0) <- true;
  for i = 1 to m - 1 do
    nk.(i) <- ra.(i - 1) <> ra.(i)
  done;
  pd.pd_states <- sa;
  pd.pd_classes <- ca;
  pd.pd_newkey <- nk

type ranked_spec = {
  rsize : int;
  rsplitter_keys : slice -> int array * int array;
}

(* Grow [r] to at least [n] entries, zero-filling the new tail but
   keeping the existing contents (unlike [ensure_int], whose arrays are
   pure per-pass scratch). *)
let ensure_int_keep r n =
  let len = Array.length !r in
  if len < n then begin
    let a = Array.make (max n (2 * len)) 0 in
    Array.blit !r 0 a 0 len;
    r := a
  end

let comp_lumping_ranked rspec ~initial =
  let st = new_tally () in
  let sc = indexed_scratch ~size:rspec.rsize in
  (* gid -> per-pass dense rank, via a stamp instead of clearing:
     [rank_of.(g)] is valid only when [stamp.(g)] equals the current
     pass number (fresh zero-filled entries can never match — the
     counter starts at 1). *)
  let stamp = ref [||] and rank_of = ref [||] in
  let pass_no = ref 0 in
  let prepare pd p slice =
    incr pass_no;
    let states, gids = rspec.rsplitter_keys slice in
    let m = Array.length states in
    if m > 0 then begin
      ensure_indexed sc m;
      let sa = !(sc.a_states) and ra = !(sc.a_ranks) and ca = !(sc.a_cls) in
      Array.blit states 0 sa 0 m;
      (* Ranks are dense ids in order of first appearance over the pair
         array, which is what makes them independent of the gid
         numbering. *)
      let alphabet = ref 0 in
      for i = 0 to m - 1 do
        let g = gids.(i) in
        if g >= Array.length !stamp then begin
          ensure_int_keep stamp (g + 1);
          ensure_int_keep rank_of (g + 1)
        end;
        let sta = !stamp and rko = !rank_of in
        if sta.(g) <> !pass_no then begin
          sta.(g) <- !pass_no;
          rko.(g) <- !alphabet;
          incr alphabet
        end;
        ra.(i) <- rko.(g)
      done;
      for i = 0 to m - 1 do
        ca.(i) <- Partition.class_of p states.(i)
      done;
      sort_indexed st sc pd ~m ~alphabet:!alphabet
    end;
    m
  in
  let p = core st ~fn:"comp_lumping_ranked" ~size:rspec.rsize ~prepare ~initial in
  finish ~fn:"comp_lumping_ranked" st;
  p

let is_stable spec p =
  let stable = ref true in
  for splitter = 0 to Partition.num_classes p - 1 do
    let keyed = spec.splitter_keys (Partition.view p splitter) in
    let key_of = Hashtbl.create 16 in
    List.iter (fun (s, k) -> Hashtbl.replace key_of s k) keyed;
    for c = 0 to Partition.num_classes p - 1 do
      let first = Hashtbl.find_opt key_of (Partition.representative p c) in
      Partition.iter_class
        (fun s ->
          let k = Hashtbl.find_opt key_of s in
          let same =
            match (first, k) with
            | None, None -> true
            | Some k1, Some k2 -> spec.key_compare k1 k2 = 0
            | None, Some _ | Some _, None -> false
          in
          if not same then stable := false)
        p c
    done
  done;
  !stable
