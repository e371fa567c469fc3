module Prng = Mdl_util.Prng

type chain = { states : int; extra : int; planted : bool; seed : int }

type kron = {
  sizes : int array;
  events : int;
  symmetric : bool;
  ring : bool;
  merged : bool;
  seed : int;
}

type direct = { sizes : int array; width : int; symmetric : bool; seed : int }

type model = Chain of chain | Kron of kron | Direct of direct

let sizes_string sizes =
  String.concat "," (Array.to_list (Array.map string_of_int sizes))

let to_string = function
  | Chain c ->
      Printf.sprintf "chain{states=%d;extra=%d;planted=%b;seed=%d}" c.states c.extra
        c.planted c.seed
  | Kron k ->
      Printf.sprintf "kron{sizes=%s;events=%d;symmetric=%b;ring=%b;merged=%b;seed=%d}"
        (sizes_string k.sizes) k.events k.symmetric k.ring k.merged k.seed
  | Direct d ->
      Printf.sprintf "direct{sizes=%s;width=%d;symmetric=%b;seed=%d}"
        (sizes_string d.sizes) d.width d.symmetric d.seed

let random prng ~max_levels =
  let max_levels = max 1 max_levels in
  let seed = Prng.int prng 1_000_000 in
  let random_sizes () =
    let n = 1 + Prng.int prng max_levels in
    Array.init n (fun _ -> 2 + Prng.int prng 3)
  in
  match Prng.int prng 3 with
  | 0 ->
      Chain
        {
          states = 2 + Prng.int prng 12;
          extra = Prng.int prng 30;
          planted = Prng.bool prng;
          seed;
        }
  | 1 ->
      Kron
        {
          sizes = random_sizes ();
          events = 1 + Prng.int prng 3;
          symmetric = Prng.bool prng;
          ring = true;
          merged = Prng.bool prng;
          seed;
        }
  | _ ->
      Direct
        {
          sizes = random_sizes ();
          width = 1 + Prng.int prng 3;
          symmetric = Prng.bool prng;
          seed;
        }
