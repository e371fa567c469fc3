(* Work distribution: jobs carry an atomic claim counter and an atomic
   completion counter.  Claiming is [fetch_and_add] on [next]; the
   claimer that observes the counter past [n] retires the job from the
   shared queue.  Workers sleep on [cond] and are woken both when a job
   is submitted and when one completes (submitters block on the same
   condition while waiting for stragglers). *)

type job = {
  fn : int -> unit;
  n : int;
  next : int Atomic.t; (* next unclaimed index *)
  unfinished : int Atomic.t; (* tasks not yet completed *)
  mutable dequeued : bool; (* protected by the pool lock *)
  mutable failure : (exn * Printexc.raw_backtrace) option; (* pool lock *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  jobs : job Queue.t; (* jobs that may still have unclaimed indices *)
  mutable closing : bool;
  mutable workers : unit Domain.t list;
  pool_size : int;
  chaos_enabled : bool;
}

let size t = t.pool_size

let chaos t = t.chaos_enabled

(* Deterministic per-claim spin under MDL_CHAOS: a cheap LCG stream per
   domain, seeded by the worker index, whose draws only decide how many
   cpu_relax spins precede a task — timing noise, never data. *)
let chaos_spin state =
  state := (!state * 1103515245) + 12345;
  let spins = (!state lsr 16) land 15 in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

(* Run claimed task [i] of [j]; record the first failure. *)
let run_task t j i =
  (try j.fn i
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock t.lock;
     if j.failure = None then j.failure <- Some (e, bt);
     Mutex.unlock t.lock);
  if Atomic.fetch_and_add j.unfinished (-1) = 1 then begin
    (* Last task of the job: wake its submitter (and idle workers). *)
    Mutex.lock t.lock;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  end

let retire t j =
  Mutex.lock t.lock;
  if not j.dequeued then begin
    j.dequeued <- true;
    (* [j] is in the queue exactly once; drop it wherever it sits. *)
    let keep = Queue.create () in
    Queue.iter (fun j' -> if j' != j then Queue.add j' keep) t.jobs;
    Queue.clear t.jobs;
    Queue.transfer keep t.jobs
  end;
  Mutex.unlock t.lock

(* Claim and run indices of [j] until none are left. *)
let drain t j chaos_state =
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.n then begin
      if t.chaos_enabled then chaos_spin chaos_state;
      run_task t j i;
      go ()
    end
    else if not j.dequeued then retire t j
  in
  go ()

let worker t idx () =
  let chaos_state = ref ((idx * 2654435761) lor 1) in
  let rec loop () =
    Mutex.lock t.lock;
    let rec next_job () =
      if t.closing then None
      else
        match Queue.peek_opt t.jobs with
        | Some j when not j.dequeued -> Some j
        | Some _ ->
            ignore (Queue.pop t.jobs);
            next_job ()
        | None ->
            Condition.wait t.cond t.lock;
            next_job ()
    in
    let j = next_job () in
    Mutex.unlock t.lock;
    match j with
    | None -> ()
    | Some j ->
        drain t j chaos_state;
        loop ()
  in
  loop ()

let create ~domains =
  let pool_size = max 1 domains in
  let chaos_enabled =
    match Sys.getenv_opt "MDL_CHAOS" with Some "" | None -> false | Some _ -> true
  in
  let t =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      closing = false;
      workers = [];
      pool_size;
      chaos_enabled;
    }
  in
  t.workers <- List.init (pool_size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.closing <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let run t ~n fn =
  if n <= 0 then ()
  else if t.pool_size = 1 || n = 1 || t.closing then
    for i = 0 to n - 1 do
      fn i
    done
  else begin
    let j =
      {
        fn;
        n;
        next = Atomic.make 0;
        unfinished = Atomic.make n;
        dequeued = false;
        failure = None;
      }
    in
    Mutex.lock t.lock;
    Queue.add j t.jobs;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    (* The submitter participates: drain our own job first (nested
       submissions from worker tasks bottom out here), then wait for
       indices claimed by other domains to finish. *)
    let chaos_state = ref 1 in
    drain t j chaos_state;
    Mutex.lock t.lock;
    while Atomic.get j.unfinished > 0 do
      Condition.wait t.cond t.lock
    done;
    let failure = j.failure in
    Mutex.unlock t.lock;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
