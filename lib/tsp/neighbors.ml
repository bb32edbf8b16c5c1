(** k-nearest-neighbor candidate lists for local search.

    Only finite, non-locked edges are useful candidates: locked pair edges
    are always in the tour already and forbidden pairs can never improve a
    tour.  Lists are sorted by increasing cost so searches can stop
    early.

    The candidate set is known from the symmetrization structure alone —
    an out-city's partners are exactly the other cities' in-cities and
    vice versa — so the lists are built from the sparse directed
    instance without scanning a materialized 2n×2n matrix: each city's
    sorted explicit deviations are merged with its default-cost tail,
    emitting the k cheapest partners in O(k + deg) per city once the
    shared streams are built (docs/PERFORMANCE.md).

    Ties break by distance in compiler block order along the edge, so
    among equally cheap candidates the blocks the compiler placed next
    to each other come first: an out-city of block i ranks the in-city
    of j by (cost, (j − i) mod n), an in-city of j ranks the out-city of
    r by (cost, (j − r) mod n).  The key is a strict total order on each
    city's partners, so every list is the {e unique} k-cheapest prefix
    and checkable against any correct oracle.

    Row construction is embarrassingly parallel: [exec] fans the cities
    out over contiguous chunks on the engine's domain pool and merges
    the slices in index order, so the lists are bit-identical at any job
    count. *)

module Executor = Ba_engine.Executor

(* deterministic chunked fan-out: compute [lo, hi) slices of the result
   on the executor, merge in index order — bit-identical at any job
   count because each city's list is a pure function of the instance *)
let chunked exec nn compute =
  match exec with
  | Executor.Seq -> compute 0 nn
  | _ ->
      let chunks = min nn (max 1 (Executor.jobs exec * 4)) in
      let size = (nn + chunks - 1) / chunks in
      let slices =
        Executor.init exec chunks (fun c ->
            let lo = c * size in
            let hi = min nn (lo + size) in
            if lo >= hi then [||] else compute lo hi)
      in
      Array.concat (Array.to_list slices)

(* canonical k-cheapest by merging sorted deviation streams with the
   default-cost tail — O(k + deg) per city after shared
   O(n log n + E log deg) stream preparation *)
let of_sym ?(exec = Executor.Seq) (s : Sym.t) ~k =
  let d = s.Sym.dir in
  let n = s.Sym.n_cities in
  let nn = s.Sym.nn in
  let k = max 0 (min k (n - 1)) in
  if k = 0 then Array.make nn [||]
  else begin
    (* (b − a) mod n, and x mod n for x in [0, 2n), without division *)
    let dist a b = if b >= a then b - a else b - a + n in
    let wrap x = if x >= n then x - n else x in
    (* lexicographic order on (cost, key) pairs, without polymorphic
       compare *)
    let by_pair (c, t) (c', t') =
      if c <> c' then Int.compare c c' else Int.compare t t'
    in
    (* out-city streams: per row i, the explicit off-diagonal
       deviations as (cost, (col − i) mod n), sorted *)
    let out_dev =
      Array.init n (fun i ->
          let cols = d.Dtsp.row_cols.(i) and costs = d.Dtsp.row_costs.(i) in
          let keep = ref [] in
          for kk = Array.length cols - 1 downto 0 do
            if cols.(kk) <> i then
              keep := (costs.(kk), dist i cols.(kk)) :: !keep
          done;
          let a = Array.of_list !keep in
          Array.sort by_pair a;
          a)
    in
    (* in-city streams: per column j, the explicit off-diagonal entries
       of rows r as (cost, (j − r) mod n), sorted *)
    let tmp = Array.make n [] in
    for i = n - 1 downto 0 do
      Array.iteri
        (fun kk c ->
          if c <> i then
            tmp.(c) <- (d.Dtsp.row_costs.(i).(kk), dist i c) :: tmp.(c))
        d.Dtsp.row_cols.(i)
    done;
    let in_dev =
      Array.init n (fun c ->
          let a = Array.of_list tmp.(c) in
          Array.sort by_pair a;
          a)
    in
    (* an in-city's default tail is the other rows' defaults: pre-sort
       the rows once by (default, row); each equal-default group is then
       walked downward from the largest row below the column, wrapping,
       which is ascending (j − r) mod n within the group *)
    let ord = Array.init n Fun.id in
    let defaults = d.Dtsp.row_default in
    Array.sort
      (fun r r' ->
        if defaults.(r) <> defaults.(r') then
          Int.compare defaults.(r) defaults.(r')
        else Int.compare r r')
      ord;
    (* group_end.(p) = one past the last index of p's equal-default run *)
    let group_end = Array.make n n in
    for p = n - 2 downto 0 do
      group_end.(p) <-
        (if defaults.(ord.(p)) = defaults.(ord.(p + 1))
         then group_end.(p + 1)
         else p + 1)
    done;
    (* number of rows below [j] in the ascending slice ord.(lo..hi−1) *)
    let count_below lo hi j =
      let lo = ref lo and hi = ref hi in
      let base = !lo in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ord.(mid) < j then lo := mid + 1 else hi := mid
      done;
      !lo - base
    in
    let compute lo hi =
      (* per-chunk scratch: marks are stamped with the city id, so the
         array never needs clearing between cities *)
      let mark = Array.make n (-1) in
      Array.init (hi - lo) (fun off ->
          let a = lo + off in
          let stamp = a in
          let res = Array.make k 0 in
          if a land 1 = 1 then begin
            (* out-city of row i; tail = implicit columns i+1, i+2, …
               with wrap: distance t, column c = (i + t) mod n *)
            let i = a asr 1 in
            let dev = out_dev.(i) in
            let nd = Array.length dev in
            let default = defaults.(i) in
            Array.iter (fun (_, t) -> mark.(wrap (i + t)) <- stamp) dev;
            let ei = ref 0 and t = ref 1 and c = ref (wrap (i + 1)) in
            let step () =
              incr t;
              c := wrap (!c + 1)
            in
            let advance () =
              while !t < n && mark.(!c) = stamp do
                step ()
              done
            in
            advance ();
            for f = 0 to k - 1 do
              let explicit =
                !ei < nd
                && (!t >= n
                   ||
                   let cost, te = dev.(!ei) in
                   cost < default || (cost = default && te < !t))
              in
              if explicit then begin
                res.(f) <- 2 * wrap (i + snd dev.(!ei));
                incr ei
              end
              else begin
                res.(f) <- 2 * !c;
                step ();
                advance ()
              end
            done
          end
          else begin
            (* in-city of column j; tail = other rows' defaults, group
               by group in [ord] order *)
            let j = a asr 1 in
            let dev = in_dev.(j) in
            let nd = Array.length dev in
            Array.iter (fun (_, t) -> mark.(dist t j) <- stamp) dev;
            mark.(j) <- stamp;
            (* tail cursor: group ord.(g..g_end−1), walk position [p],
               [left] rows of the group not yet visited; [cur] the head
               row or −1 *)
            let g = ref 0 and g_end = ref 0 and p = ref 0 and left = ref 0
            and cur = ref (-1) and ei = ref 0 in
            let enter q =
              let e = group_end.(q) in
              let below = count_below q e j in
              g := q;
              g_end := e;
              p := (if below > 0 then q + below - 1 else e - 1);
              left := e - q
            in
            let advance () =
              cur := -1;
              while !cur < 0 && (!left > 0 || !g_end < n) do
                if !left = 0 then enter !g_end;
                let r = ord.(!p) in
                p := (if !p = !g then !g_end - 1 else !p - 1);
                decr left;
                if mark.(r) <> stamp then cur := r
              done
            in
            advance ();
            for f = 0 to k - 1 do
              let explicit =
                !ei < nd
                && (!cur < 0
                   ||
                   let cost, te = dev.(!ei) in
                   let cost' = defaults.(!cur) in
                   cost < cost' || (cost = cost' && te < dist !cur j))
              in
              if explicit then begin
                res.(f) <- (2 * dist (snd dev.(!ei)) j) + 1;
                incr ei
              end
              else begin
                res.(f) <- (2 * !cur) + 1;
                advance ()
              end
            done
          end;
          res)
    in
    chunked exec nn compute
  end
