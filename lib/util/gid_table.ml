(* A gid is taken from the counter under the shard lock of its first
   insert, so each distinct value gets exactly one; hits go through the
   map's lock-free read path.  [fresh] is made once per table, so an
   intern allocates nothing on a hit. *)

type 'k t = {
  gids : ('k, int) Shard_map.t;
  next_gid : int Atomic.t;
  fresh : unit -> int;
}

let create ?shards ~hash ~equal () =
  let next_gid = Atomic.make 0 in
  {
    gids = Shard_map.create ?shards ~hash ~equal ();
    next_gid;
    fresh = (fun () -> Atomic.fetch_and_add next_gid 1);
  }

let intern t k = Shard_map.find_or_add t.gids k t.fresh

let find t k = Shard_map.find t.gids k

let size t = Atomic.get t.next_gid
