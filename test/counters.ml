(* The metrics registry is the only store of the engine's counts, so the
   suites read them from there.  [of_run names f] zeroes and enables the
   registry, runs [f], and returns its result with a reader of the named
   counters as [f] left them; the reader raises [Not_found] on a name
   that was not asked for.  The registry's enabled flag is restored. *)

module Metrics = Mdl_obs.Metrics

let of_run names f =
  let was_enabled = Metrics.enabled () in
  Metrics.reset ();
  Metrics.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) f in
  let values = List.map (fun n -> (n, Metrics.counter_value n)) names in
  (r, fun n -> List.assoc n values)

(* [words f] is the number of words [f ()] allocates, minor and major
   heap together ([Gc.allocated_bytes]'s count: a vector of more than
   256 floats goes straight to the major heap, where [Gc.minor_words]
   does not see it).  The minor heap is emptied first, so that what is
   promoted during [f] is [f]'s own, and again after: the runtime's
   counters add a minor heap's words only when it is collected, so
   without it up to a whole minor heap of [f]'s allocation goes
   uncounted. *)
let words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
