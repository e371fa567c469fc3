(* Entries are immutable (hash, key, value) triples in immutable lists,
   and every mutable step on the read path goes through an [Atomic.t]
   (the bucket cells; the bucket-array pointer is a racy-but-well-formed
   mutable read: in the OCaml 5 memory model it yields some previously
   written array, at worst one missing the newest entries).  So a reader
   is properly synchronised with the writer that published the entry it
   finds, and a stale view only sends [find_or_add] to the locked slow
   path, never to a wrong answer. *)

type ('k, 'v) shard = {
  lock : Mutex.t;
  mutable buckets : ('k, 'v) bucket_array; (* publish via [Atomic.t] cells inside *)
  mutable population : int; (* bindings in this shard; protected by [lock] *)
}

and ('k, 'v) bucket_array = (int * 'k * 'v) list Atomic.t array

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  shard_mask : int;
  shards : ('k, 'v) shard array;
}

let fresh_buckets n = Array.init n (fun _ -> Atomic.make [])

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = 16) ~hash ~equal () =
  let nshards = round_pow2 (max 1 shards) in
  {
    hash;
    equal;
    shard_mask = nshards - 1;
    shards =
      Array.init nshards (fun _ ->
          { lock = Mutex.create (); buckets = fresh_buckets 16; population = 0 });
  }

(* The low hash bits pick the shard; bucket indexing uses higher bits so
   the per-shard tables spread even when shards see hash-correlated
   keys. *)
let[@inline] shard_of t h = t.shards.(h land t.shard_mask)

let[@inline] bucket_index buckets h = (h lsr 4) land (Array.length buckets - 1)

(* The value bound to [k] in a bucket, or [Not_found]: a hit allocates
   nothing, which keeps [Gid_table.intern]'s hit path as cheap as a
   lookup. *)
let rec find_entry equal h k = function
  | [] -> raise_notrace Not_found
  | (h', k', v) :: rest -> if h' = h && equal k k' then v else find_entry equal h k rest

let find t k =
  let h = t.hash k land max_int in
  let s = shard_of t h in
  let buckets = s.buckets in
  match find_entry t.equal h k (Atomic.get buckets.(bucket_index buckets h)) with
  | v -> Some v
  | exception Not_found -> None

(* Growth runs under the shard lock: rebuild into fresh atomic cells,
   then publish the new array.  Readers on the old array miss entries
   inserted after the swap and fall through to the locked path. *)
let grow s =
  let old = s.buckets in
  let cap = 2 * Array.length old in
  let buckets = fresh_buckets cap in
  Array.iter
    (fun cell ->
      List.iter
        (fun ((h, _, _) as entry) ->
          let b = buckets.(bucket_index buckets h) in
          Atomic.set b (entry :: Atomic.get b))
        (Atomic.get cell))
    old;
  s.buckets <- buckets

let find_or_add t k make =
  let h = t.hash k land max_int in
  let s = shard_of t h in
  let buckets = s.buckets in
  match find_entry t.equal h k (Atomic.get buckets.(bucket_index buckets h)) with
  | v -> v
  | exception Not_found ->
      Mutex.protect s.lock (fun () ->
          (* Re-read under the lock: the fast path may have raced an
             insert of this very key, or a growth that moved its bucket. *)
          let buckets = s.buckets in
          let cell = buckets.(bucket_index buckets h) in
          match find_entry t.equal h k (Atomic.get cell) with
          | v -> v
          | exception Not_found ->
              let v = make () in
              Atomic.set cell ((h, k, v) :: Atomic.get cell);
              s.population <- s.population + 1;
              if s.population > 2 * Array.length buckets then grow s;
              v)

let size t = Array.fold_left (fun acc s -> acc + s.population) 0 t.shards

let clear t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      s.buckets <- fresh_buckets 16;
      s.population <- 0;
      Mutex.unlock s.lock)
    t.shards
