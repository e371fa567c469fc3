let sort_by cmp a =
  let n = Array.length a in
  if n > 1 then begin
    let buf = Array.make n 0 in
    (* Bottom-up stable merge sort, ping-ponging between [a] and [buf].
       All reads/writes are on int arrays and the only calls are to the
       caller's comparator — no polymorphic compare, no boxing. *)
    let merge src dst lo mid hi =
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || cmp (Array.unsafe_get src !i) (Array.unsafe_get src !j) <= 0)
        then begin
          Array.unsafe_set dst k (Array.unsafe_get src !i);
          incr i
        end
        else begin
          Array.unsafe_set dst k (Array.unsafe_get src !j);
          incr j
        end
      done
    in
    let src = ref a and dst = ref buf in
    let width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        merge !src !dst !lo mid hi;
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := !width * 2
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* The two fused pipeline sorts below move the parallel (class, key,
   state) triples themselves instead of sorting an index permutation:
   no comparator closure at all, every comparison is a machine compare
   on an int or an unboxed float loaded straight from its array.  Both
   are bottom-up stable merges sorting only the first [n] entries. *)

let sort_runs_float ~cls ~keys ~states n =
  if n > 1 then begin
    let bc = Array.make n 0 and bk = Array.make n 0.0 and bs = Array.make n 0 in
    let merge sc sk ss dc dk ds lo mid hi =
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        let take_left =
          !i < mid
          && (!j >= hi
             ||
             let ci = Array.unsafe_get sc !i and cj = Array.unsafe_get sc !j in
             if ci <> cj then ci < cj
             else
               let ki = Array.unsafe_get sk !i and kj = Array.unsafe_get sk !j in
               if ki < kj then true
               else if ki > kj then false
               else Array.unsafe_get ss !i <= Array.unsafe_get ss !j)
        in
        let src = if take_left then i else j in
        Array.unsafe_set dc k (Array.unsafe_get sc !src);
        Array.unsafe_set dk k (Array.unsafe_get sk !src);
        Array.unsafe_set ds k (Array.unsafe_get ss !src);
        incr src
      done
    in
    let flip = ref false in
    let width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        if !flip then merge bc bk bs cls keys states !lo mid hi
        else merge cls keys states bc bk bs !lo mid hi;
        lo := hi
      done;
      flip := not !flip;
      width := !width * 2
    done;
    if !flip then begin
      Array.blit bc 0 cls 0 n;
      Array.blit bk 0 keys 0 n;
      Array.blit bs 0 states 0 n
    end
  end

let sort_runs_int ~cls ~keys ~states n =
  if n > 1 then begin
    let bc = Array.make n 0 and bk = Array.make n 0 and bs = Array.make n 0 in
    let merge sc sk ss dc dk ds lo mid hi =
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        let take_left =
          !i < mid
          && (!j >= hi
             ||
             let ci = Array.unsafe_get sc !i and cj = Array.unsafe_get sc !j in
             if ci <> cj then ci < cj
             else
               let ki = Array.unsafe_get sk !i and kj = Array.unsafe_get sk !j in
               if ki <> kj then ki < kj
               else Array.unsafe_get ss !i <= Array.unsafe_get ss !j)
        in
        let src = if take_left then i else j in
        Array.unsafe_set dc k (Array.unsafe_get sc !src);
        Array.unsafe_set dk k (Array.unsafe_get sk !src);
        Array.unsafe_set ds k (Array.unsafe_get ss !src);
        incr src
      done
    in
    let flip = ref false in
    let width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        if !flip then merge bc bk bs cls keys states !lo mid hi
        else merge cls keys states bc bk bs !lo mid hi;
        lo := hi
      done;
      flip := not !flip;
      width := !width * 2
    done;
    if !flip then begin
      Array.blit bc 0 cls 0 n;
      Array.blit bk 0 keys 0 n;
      Array.blit bs 0 states 0 n
    end
  end

(* Insertion sort for a short prefix; a heap sort above that, so a long
   prefix costs O(n log n) and nothing is allocated either way. *)
let sort_int_prefix (a : int array) n =
  if n <= 16 then
    for k = 1 to n - 1 do
      let v = a.(k) in
      let i = ref (k - 1) in
      while !i >= 0 && a.(!i) > v do
        a.(!i + 1) <- a.(!i);
        decr i
      done;
      a.(!i + 1) <- v
    done
  else begin
    (* Move [a.(root)] down the max-heap [a.(0 .. stop - 1)]. *)
    let sift root stop =
      let root = ref root and sifting = ref true in
      while !sifting do
        let c = (2 * !root) + 1 in
        if c >= stop then sifting := false
        else begin
          let c = if c + 1 < stop && a.(c) < a.(c + 1) then c + 1 else c in
          if a.(!root) < a.(c) then begin
            let v = a.(!root) in
            a.(!root) <- a.(c);
            a.(c) <- v;
            root := c
          end
          else sifting := false
        end
      done
    in
    for root = (n / 2) - 1 downto 0 do
      sift root n
    done;
    for stop = n - 1 downto 1 do
      let v = a.(0) in
      a.(0) <- a.(stop);
      a.(stop) <- v;
      sift 0 stop
    done
  end

let find_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else raise Not_found
