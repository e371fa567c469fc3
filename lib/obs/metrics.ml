type counter = { c_name : string; c_value : int Atomic.t }

type gauge = { g_name : string; g_value : float Atomic.t }

(* Histograms shard their mutable state by domain so concurrent
   [observe]s contend only when domain ids collide modulo the shard
   count; readers merge shards under the per-shard locks. *)
let hist_shards = 8

type hist_shard = {
  s_lock : Mutex.t;
  s_counts : int array; (* length: bounds + 1 (overflow) *)
  mutable s_sum : float;
  mutable s_count : int;
}

type histogram = {
  h_name : string;
  h_bounds : float array; (* strictly increasing upper bounds *)
  h_shard : hist_shard array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* The registry itself (creation, name lookup, dump) is guarded by one
   mutex — registration happens at module initialisation and reads are
   report-time only, so the lock is never on a hot path.  Metric
   {e updates} never touch it. *)
let registry_lock = Mutex.create ()

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let order : string list ref = ref [] (* reverse registration order *)

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name m =
  Hashtbl.add registry name m;
  order := name :: !order

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics.%s: %S is registered as another metric kind" want name)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some _ -> kind_error name "counter"
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          register name (Counter c);
          c)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value 1)

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Atomic.get c.c_value
      | _ -> 0)

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g
      | Some _ -> kind_error name "gauge"
      | None ->
          let g = { g_name = name; g_value = Atomic.make 0.0 } in
          register name (Gauge g);
          g)

let set g v = if Atomic.get enabled_flag then Atomic.set g.g_value v

let set_max g v =
  if Atomic.get enabled_flag then begin
    let rec cas () =
      let cur = Atomic.get g.g_value in
      if v > cur && not (Atomic.compare_and_set g.g_value cur v) then cas ()
    in
    cas ()
  end

let gauge_value name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> Atomic.get g.g_value
      | _ -> 0.0)

let log_buckets ~lo ~hi ~per_decade =
  if not (lo > 0.0 && hi > lo) || per_decade < 1 then
    invalid_arg "Metrics.log_buckets: need 0 < lo < hi and per_decade >= 1";
  let step = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec build acc b = if b >= hi then List.rev (b :: acc) else build (b :: acc) (b *. step) in
  Array.of_list (build [] lo)

let default_latency_buckets = lazy (log_buckets ~lo:1e-7 ~hi:10.0 ~per_decade:3)

let histogram ?buckets name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) ->
          (match buckets with
          | Some b when b <> h.h_bounds ->
              invalid_arg
                (Printf.sprintf "Metrics.histogram: %S re-registered with different buckets"
                   name)
          | _ -> ());
          h
      | Some _ -> kind_error name "histogram"
      | None ->
          let bounds =
            match buckets with Some b -> b | None -> Lazy.force default_latency_buckets
          in
          if Array.length bounds = 0 then
            invalid_arg "Metrics.histogram: empty bucket bounds";
          for i = 1 to Array.length bounds - 1 do
            if not (bounds.(i) > bounds.(i - 1)) then
              invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
          done;
          let h =
            {
              h_name = name;
              h_bounds = bounds;
              h_shard =
                Array.init hist_shards (fun _ ->
                    {
                      s_lock = Mutex.create ();
                      s_counts = Array.make (Array.length bounds + 1) 0;
                      s_sum = 0.0;
                      s_count = 0;
                    });
            }
          in
          register name (Histogram h);
          h)

let observe h v =
  if Atomic.get enabled_flag then begin
    (* Binary search for the first bound >= v; the overflow bucket is
       index [length bounds]. *)
    let n = Array.length h.h_bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if h.h_bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    let s = h.h_shard.((Domain.self () :> int) land (hist_shards - 1)) in
    Mutex.lock s.s_lock;
    s.s_counts.(!lo) <- s.s_counts.(!lo) + 1;
    s.s_sum <- s.s_sum +. v;
    s.s_count <- s.s_count + 1;
    Mutex.unlock s.s_lock
  end

(* Merge the shards of [h] under their locks: (count, sum, counts). *)
let merge_hist h =
  let counts = Array.make (Array.length h.h_bounds + 1) 0 in
  let sum = ref 0.0 and count = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.s_counts;
      sum := !sum +. s.s_sum;
      count := !count + s.s_count;
      Mutex.unlock s.s_lock)
    h.h_shard;
  (!count, !sum, counts)

let histogram_stats name =
  let h =
    locked (fun () ->
        match Hashtbl.find_opt registry name with Some (Histogram h) -> Some h | _ -> None)
  in
  match h with
  | Some h ->
      let count, sum, _ = merge_hist h in
      (count, sum)
  | None -> (0, 0.0)

type hist_snapshot = {
  hs_bounds : float array;
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
}

let histogram_snapshot name =
  let h =
    locked (fun () ->
        match Hashtbl.find_opt registry name with Some (Histogram h) -> Some h | _ -> None)
  in
  match h with
  | Some h ->
      let count, sum, counts = merge_hist h in
      Some { hs_bounds = Array.copy h.h_bounds; hs_counts = counts; hs_count = count; hs_sum = sum }
  | None -> None

(* Linear interpolation inside the winning bucket, the standard
   Prometheus [histogram_quantile] estimate; the overflow bucket
   degrades to its lower bound (the largest finite bound). *)
let snapshot_quantile s q =
  if s.hs_count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = q *. float_of_int s.hs_count in
    let nb = Array.length s.hs_bounds in
    let cum = ref 0 and i = ref 0 in
    while !i < Array.length s.hs_counts && float_of_int (!cum + s.hs_counts.(!i)) < rank do
      cum := !cum + s.hs_counts.(!i);
      i := !i + 1
    done;
    if !i >= nb then (if nb = 0 then 0.0 else s.hs_bounds.(nb - 1))
    else begin
      let lo = if !i = 0 then 0.0 else s.hs_bounds.(!i - 1) in
      let hi = s.hs_bounds.(!i) in
      let in_bucket = s.hs_counts.(!i) in
      if in_bucket = 0 then hi
      else lo +. ((hi -. lo) *. (rank -. float_of_int !cum) /. float_of_int in_bucket)
    end
  end

let histogram_buckets name =
  let h =
    locked (fun () ->
        match Hashtbl.find_opt registry name with Some (Histogram h) -> Some h | _ -> None)
  in
  match h with
  | Some h ->
      let _, _, counts = merge_hist h in
      Array.init
        (Array.length counts)
        (fun i ->
          ((if i < Array.length h.h_bounds then h.h_bounds.(i) else infinity), counts.(i)))
  | None -> [||]

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
              Array.iter
                (fun s ->
                  Mutex.lock s.s_lock;
                  Array.fill s.s_counts 0 (Array.length s.s_counts) 0;
                  s.s_sum <- 0.0;
                  s.s_count <- 0;
                  Mutex.unlock s.s_lock)
                h.h_shard)
        registry)

(* Metrics in registration order, resolved under the lock so dumps
   never race a registration. *)
let metrics_snapshot () =
  locked (fun () -> List.rev_map (fun name -> Hashtbl.find registry name) !order)

let pp ppf () =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun m ->
      match m with
      | Counter c ->
          let v = Atomic.get c.c_value in
          if v <> 0 then Format.fprintf ppf "%-34s %d@," c.c_name v
      | Gauge g ->
          let v = Atomic.get g.g_value in
          if v <> 0.0 then Format.fprintf ppf "%-34s %g@," g.g_name v
      | Histogram h ->
          let count, sum, counts = merge_hist h in
          if count > 0 then begin
            Format.fprintf ppf "%-34s n=%d sum=%g mean=%g@," h.h_name count sum
              (sum /. float_of_int count);
            Array.iteri
              (fun i c ->
                if c > 0 then
                  if i < Array.length h.h_bounds then
                    Format.fprintf ppf "  %-32s le=%.3g: %d@," "" h.h_bounds.(i) c
                  else Format.fprintf ppf "  %-32s le=inf: %d@," "" c)
              counts
          end)
    (metrics_snapshot ());
  Format.pp_close_box ppf ()

let escape_json buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* ---- Prometheus text exposition format (version 0.0.4) ---- *)

(* Registry names are dotted ([serve.request_seconds]); Prometheus
   metric names are [[a-zA-Z_:][a-zA-Z0-9_:]*].  Dots and dashes map to
   underscores, anything else unexpected maps to '_' too. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let to_prometheus buf =
  List.iter
    (fun m ->
      match m with
      | Counter c ->
          let n = prom_name c.c_name in
          Buffer.add_string buf (Printf.sprintf "# HELP %s mdlump counter %s\n" n c.c_name);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" n (Atomic.get c.c_value))
      | Gauge g ->
          let n = prom_name g.g_name in
          Buffer.add_string buf (Printf.sprintf "# HELP %s mdlump gauge %s\n" n g.g_name);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" n (prom_float (Atomic.get g.g_value)))
      | Histogram h ->
          let n = prom_name h.h_name in
          let count, sum, counts = merge_hist h in
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s mdlump histogram %s\n" n h.h_name);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
          (* Prometheus buckets are cumulative, the per-shard counts are
             not; the running total converts, and the +Inf bucket equals
             the count series by construction. *)
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.h_bounds then prom_float h.h_bounds.(i) else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n le !cum))
            counts;
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (prom_float sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n count))
    (metrics_snapshot ())

let to_json buf =
  let snapshot = metrics_snapshot () in
  let items kind f =
    let first = ref true in
    List.iter
      (fun m ->
        let emit name =
          if !first then first := false else Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape_json buf name;
          Buffer.add_string buf "\": ";
          f m
        in
        match (m, kind) with
        | Counter c, `C -> emit c.c_name
        | Gauge g, `G -> emit g.g_name
        | Histogram h, `H -> emit h.h_name
        | _ -> ())
      snapshot
  in
  Buffer.add_string buf "{\"counters\": {";
  items `C (function
    | Counter c -> Buffer.add_string buf (string_of_int (Atomic.get c.c_value))
    | _ -> ());
  Buffer.add_string buf "}, \"gauges\": {";
  items `G (function
    | Gauge g -> Buffer.add_string buf (Printf.sprintf "%.17g" (Atomic.get g.g_value))
    | _ -> ());
  Buffer.add_string buf "}, \"histograms\": {";
  items `H (function
    | Histogram h ->
        let count, sum, counts = merge_hist h in
        Buffer.add_string buf
          (Printf.sprintf "{\"count\": %d, \"sum\": %.17g, \"buckets\": [" count sum);
        Array.iteri
          (fun i c ->
            if i > 0 then Buffer.add_string buf ", ";
            let le =
              if i < Array.length h.h_bounds then Printf.sprintf "%.17g" h.h_bounds.(i)
              else "\"inf\""
            in
            Buffer.add_string buf (Printf.sprintf "{\"le\": %s, \"count\": %d}" le c))
          counts;
        Buffer.add_string buf "]}"
    | _ -> ());
  Buffer.add_string buf "}}"
