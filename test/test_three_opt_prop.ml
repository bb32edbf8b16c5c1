(** Property suite for the 3-Opt search state ({!Ba_tsp.Three_opt}):
    after an arbitrary interleaving of [activate]/[try_city]/[run] the
    state's internal invariants must hold — [pos] and [tour] stay
    inverse permutations, locked in/out pair edges are never cut, and
    the work queue holds no duplicates and agrees with [in_queue]. *)

open Ba_tsp
module Budget = Ba_robust.Budget

let gen_seed = QCheck2.Gen.int_bound 1_000_000

(** Random directed instance: n ∈ [min_n, max_n], costs in [0, 100). *)
let dtsp_of_seed ?(min_n = 4) ?(max_n = 12) seed =
  let rng = Random.State.make [| seed |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  Dtsp.make
    (Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 100)))

let random_directed_tour rng n =
  let t = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = t.(i) in
    t.(i) <- t.(j);
    t.(j) <- tmp
  done;
  t

(** Fresh search state over a random tour of a random instance. *)
let state_of_seed seed =
  let d = dtsp_of_seed seed in
  let s = Sym.of_dtsp d in
  let rng = Random.State.make [| seed + 1 |] in
  let nbr = Neighbors.of_sym s ~k:8 in
  let tour = Sym.expand s (random_directed_tour rng d.Dtsp.n) in
  (d, s, Three_opt.init s ~nbr ~tour)

(** Drive the state through a random operation sequence. *)
let churn seed (st : Three_opt.state) =
  let rng = Random.State.make [| seed + 2 |] in
  let nn = st.Three_opt.s.Sym.nn in
  for _ = 1 to 30 do
    match Random.State.int rng 4 with
    | 0 -> Three_opt.activate st (Random.State.int rng nn)
    | 1 -> ignore (Three_opt.try_city st (Random.State.int rng nn))
    | 2 ->
        (* budgeted partial run: may stop mid-optimization *)
        Three_opt.run ~budget:(Budget.create ~max_moves:3 ()) st
    | _ -> Three_opt.activate_all st
  done

(* ---------------- invariants ---------------- *)

let inverse_permutations (st : Three_opt.state) =
  let nn = st.Three_opt.s.Sym.nn in
  let t = Three_opt.tour st in
  Array.length t = nn
  && Array.for_all (fun c -> 0 <= c && c < nn) t
  && Array.for_all
       (fun i ->
         let c = Three_opt.city_at st i in
         t.(i) = c
         && Three_opt.position st c = i
         && Three_opt.succ st c = t.((i + 1) mod nn)
         && Three_opt.pred st c = t.((i + nn - 1) mod nn))
       (Array.init nn Fun.id)

let locked_pairs_intact (st : Three_opt.state) =
  Sym.check_alternating st.Three_opt.s (Three_opt.tour st)

let queue_consistent (st : Three_opt.state) =
  let nn = st.Three_opt.s.Sym.nn in
  let seen = Array.make nn 0 in
  Queue.iter
    (fun c -> if c >= 0 && c < nn then seen.(c) <- seen.(c) + 1)
    st.Three_opt.queue;
  let no_dups = Array.for_all (fun k -> k <= 1) seen in
  let agrees =
    Array.for_all
      (fun c -> st.Three_opt.in_queue.(c) = (seen.(c) = 1))
      (Array.init nn Fun.id)
  in
  no_dups && agrees

let prop name check =
  QCheck2.Test.make ~count:200 ~name gen_seed (fun seed ->
      let _, _, st = state_of_seed seed in
      churn seed st;
      check st)

let prop_inverse = prop "pos and tour stay inverse permutations"
    inverse_permutations

let prop_locked = prop "locked pair edges never cut" locked_pairs_intact
let prop_queue = prop "queue has no duplicates and matches in_queue"
    queue_consistent

(** After a full (unbudgeted) run the tour must still extract to a
    valid directed tour whose directed cost matches the symmetric cost
    plus the transformation offset. *)
let prop_full_run_extracts =
  QCheck2.Test.make ~count:100 ~name:"full run leaves an extractable tour"
    gen_seed (fun seed ->
      let d, s, st = state_of_seed seed in
      Three_opt.activate_all st;
      Three_opt.run st;
      let sym_tour = Three_opt.tour st in
      let directed = Sym.extract s sym_tour in
      Dtsp.is_tour d directed
      && Dtsp.tour_cost d directed
         = Sym.tour_cost s sym_tour + s.Sym.offset)

(** The cached incremental cost never drifts from a from-scratch
    recomputation, whatever the operation interleaving. *)
let prop_cost_consistent =
  QCheck2.Test.make ~count:200 ~name:"incremental cost matches recomputation"
    gen_seed (fun seed ->
      let _, s, st = state_of_seed seed in
      churn seed st;
      Three_opt.cost st = Sym.tour_cost s (Three_opt.tour st))

(* ---------------- don't-look version stamps ---------------- *)

(** A failed-scan stamp may never run ahead of the tour version —
    otherwise a stale stamp could suppress a needed rescan. *)
let stamps_sound (st : Three_opt.state) =
  Array.for_all
    (fun v -> v <= st.Three_opt.version)
    st.Three_opt.last_fail

let prop_stamps_sound =
  prop "failed-scan stamps never exceed the tour version" stamps_sound

(** The tentpole claim: don't-look bits are trajectory-exact.  The same
    operation sequence against bits-on and bits-off states ends in
    identical tours, costs, and move counts — the bits may only elide
    provably futile rescans. *)
let prop_bits_trajectory_exact =
  QCheck2.Test.make ~count:200
    ~name:"bits-on run identical to bits-off (tour, cost, moves)" gen_seed
    (fun seed ->
      let d = dtsp_of_seed seed in
      let s = Sym.of_dtsp d in
      let rng = Random.State.make [| seed + 1 |] in
      let nbr = Neighbors.of_sym s ~k:8 in
      let tour = Sym.expand s (random_directed_tour rng d.Dtsp.n) in
      let on = Three_opt.init ~dont_look:true s ~nbr ~tour in
      let off = Three_opt.init ~dont_look:false s ~nbr ~tour in
      (* same deterministic op sequence on both states *)
      churn seed on;
      churn seed off;
      Three_opt.activate_all on;
      Three_opt.activate_all off;
      Three_opt.run on;
      Three_opt.run off;
      if Three_opt.tour on <> Three_opt.tour off then
        QCheck2.Test.fail_reportf "tours differ";
      if Three_opt.cost on <> Three_opt.cost off then
        QCheck2.Test.fail_reportf "costs differ";
      if
        on.Three_opt.moves_2opt <> off.Three_opt.moves_2opt
        || on.Three_opt.moves_3opt <> off.Three_opt.moves_3opt
      then QCheck2.Test.fail_reportf "move counts differ";
      if off.Three_opt.scans_skipped <> 0 then
        QCheck2.Test.fail_reportf "bits-off state skipped a scan";
      true)

(* run repeated full passes until one applies no move: every city's
   failed scan is then stamped with the final version *)
let rec settle (st : Three_opt.state) =
  let m = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
  Three_opt.activate_all st;
  Three_opt.run st;
  if st.Three_opt.moves_2opt + st.Three_opt.moves_3opt > m then settle st

(** Once converged, a full reactivation performs zero scans: every pop
    hits the don't-look stamp. *)
let prop_converged_pass_all_skipped =
  QCheck2.Test.make ~count:150
    ~name:"post-convergence pass skips every scan" gen_seed (fun seed ->
      let _, _, st = state_of_seed seed in
      settle st;
      let nn = st.Three_opt.s.Sym.nn in
      let skipped = st.Three_opt.scans_skipped in
      let moves = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
      Three_opt.activate_all st;
      Three_opt.run st;
      if st.Three_opt.moves_2opt + st.Three_opt.moves_3opt <> moves then
        QCheck2.Test.fail_reportf "converged state still moved";
      if st.Three_opt.scans_skipped <> skipped + nn then
        QCheck2.Test.fail_reportf "expected %d skips, got %d" nn
          (st.Three_opt.scans_skipped - skipped);
      true)

(** [set_tour] must invalidate every stamp, so no city can be skipped
    against the new tour it was never scanned on. *)
let prop_set_tour_invalidates =
  QCheck2.Test.make ~count:150
    ~name:"set_tour bumps version past every stamp" gen_seed (fun seed ->
      let _, s, st = state_of_seed seed in
      settle st;
      (* rotating the cyclic tour keeps the cycle (and the locked
         pairs) but changes the array: exactly what a kick does *)
      let t = Three_opt.tour st in
      let nn = Array.length t in
      let rot = Array.init nn (fun i -> t.((i + 2) mod nn)) in
      let v = st.Three_opt.version in
      Three_opt.set_tour st rot;
      if st.Three_opt.version <= v then
        QCheck2.Test.fail_reportf "set_tour did not bump the version";
      if
        not
          (Array.for_all
             (fun f -> f < st.Three_opt.version)
             st.Three_opt.last_fail)
      then QCheck2.Test.fail_reportf "a stamp survived set_tour";
      (* and the state still converges cleanly from the new tour *)
      settle st;
      inverse_permutations st
      && locked_pairs_intact st
      && Three_opt.cost st = Sym.tour_cost s (Three_opt.tour st))

let () =
  Alcotest.run "three-opt-prop"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_inverse;
          QCheck_alcotest.to_alcotest prop_locked;
          QCheck_alcotest.to_alcotest prop_queue;
          QCheck_alcotest.to_alcotest prop_cost_consistent;
          QCheck_alcotest.to_alcotest prop_full_run_extracts;
        ] );
      ( "dont-look",
        [
          QCheck_alcotest.to_alcotest prop_stamps_sound;
          QCheck_alcotest.to_alcotest prop_bits_trajectory_exact;
          QCheck_alcotest.to_alcotest prop_converged_pass_all_skipped;
          QCheck_alcotest.to_alcotest prop_set_tour_invalidates;
        ] );
    ]
