(** Differential suite for the in-place kick path of iterated 3-Opt.

    {!Ba_tsp.Iterated.solve} kicks in place (a T4 segment swap plus a
    position shift), keeps the run's cost from move gains and undoes a
    rejected kick by replaying the logged ops' inverses.  The oracle
    below is the loop it replaced, kept verbatim: copy the tour, build
    the double bridge in a fresh array, [set_tour] it, recompute the
    cost in full, and [set_tour] the run's best tour back on rejection.
    Both must take the same accept/reject decision on every kick and
    end with the same tour, cost, move counts and don't-look skips, on
    both tour representations.  The coverage case pins that the
    generator reaches the locked-wrap shift, a degenerate (skipped)
    kick and a budget-truncated descent. *)

open Ba_tsp
module Budget = Ba_robust.Budget

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let dtsp_of_seed ?(min_n = 4) ?(max_n = 24) seed =
  let rng = Random.State.make [| seed |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  Dtsp.make
    (Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 100)))

let random_tour rng n =
  let t = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = t.(i) in
    t.(i) <- t.(j);
    t.(j) <- tmp
  done;
  t

(* what the oracle saw, summed over every solve of a case *)
type seen = {
  mutable shifts : int;  (** kicks that rotated a locked wrap edge away *)
  mutable degenerate : int;  (** kicks skipped for want of three cuts *)
  mutable truncated : int;  (** kick descents stopped by the budget *)
}

let seen () = { shifts = 0; degenerate = 0; truncated = 0 }

(* ------------------------------------------------------------------ *)
(* oracle: the copy-and-set_tour kick loop                             *)

let full_cost (st : Three_opt.state) = Sym.tour_cost st.Three_opt.s (Three_opt.tour st)

let oracle_double_bridge seen (st : Three_opt.state) rng =
  let s = st.Three_opt.s in
  let n = s.Sym.nn in
  let t = Three_opt.tour st in
  let rotated = Sym.is_locked s t.(n - 1) t.(0) in
  if rotated then begin
    let first = t.(0) in
    Array.blit t 1 t 0 (n - 1);
    t.(n - 1) <- first
  end;
  let ok p = not (Sym.is_locked s t.(p - 1) t.(p)) in
  let rand_cut () =
    let p = ref (1 + Random.State.int rng (n - 1)) in
    while not (ok !p) do
      p := 1 + ((!p + 1 - 1) mod (n - 1))
    done;
    !p
  in
  let p1 = ref (rand_cut ()) and p2 = ref (rand_cut ()) and p3 = ref (rand_cut ()) in
  let attempts = ref 0 in
  while (!p1 = !p2 || !p2 = !p3 || !p1 = !p3) && !attempts < 64 do
    incr attempts;
    p2 := rand_cut ();
    p3 := rand_cut ()
  done;
  if !p1 = !p2 || !p2 = !p3 || !p1 = !p3 then begin
    seen.degenerate <- seen.degenerate + 1;
    []
  end
  else begin
    if rotated then seen.shifts <- seen.shifts + 1;
    let a = min !p1 (min !p2 !p3) and c = max !p1 (max !p2 !p3) in
    let b = !p1 + !p2 + !p3 - a - c in
    let t' = Array.make n 0 in
    let k = ref 0 in
    let push lo hi =
      for i = lo to hi do
        t'.(!k) <- t.(i);
        incr k
      done
    in
    push 0 (a - 1);
    push b (c - 1);
    push a (b - 1);
    push c (n - 1);
    let touched =
      [ t.(0); t.(n - 1); t.(a - 1); t.(a); t.(b - 1); t.(b); t.(c - 1); t.(c) ]
    in
    Three_opt.set_tour st t';
    touched
  end

type outcome = {
  tour : int array;
  best_cost : int;
  runs_with_best : int;
  kicks : int;
  decisions : bool list;  (** accept/reject per kick, in order *)
  moves_2opt : int;
  moves_3opt : int;
  scans_skipped : int;
  timed_out : bool;
}

(* one run's kicks; the state ends at the run's best tour, which the
   rejected kicks were reset to *)
let oracle_iterate seen ~budget ~kicks (st : Three_opt.state) rng =
  let run_best = ref (Three_opt.tour st) and run_best_cost = ref (full_cost st) in
  let decisions = ref [] and kick = ref 0 in
  while !kick < kicks && not (Budget.exhausted budget) do
    incr kick;
    let touched = oracle_double_bridge seen st rng in
    List.iter (Three_opt.activate st) touched;
    Three_opt.run ~budget st;
    if not (Queue.is_empty st.Three_opt.queue) then
      seen.truncated <- seen.truncated + 1;
    let c = full_cost st in
    let accept = c < !run_best_cost in
    decisions := accept :: !decisions;
    if accept then begin
      run_best_cost := c;
      run_best := Three_opt.tour st
    end
    else Three_opt.set_tour st !run_best
  done;
  List.rev !decisions

let oracle_solve seen ~(config : Iterated.config) ~rng ~budget (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let s = Sym.of_dtsp d in
  let nbr = Neighbors.of_sym s ~k:config.neighbors in
  let kicks_per_run = min config.max_kicks (config.kick_factor * n) in
  let best_tour = ref None and best_cost = ref max_int in
  let runs_with_best = ref 0 and total_kicks = ref 0 and decisions = ref [] in
  let m2 = ref 0 and m3 = ref 0 and skipped = ref 0 in
  let run = ref 0 in
  while !run = 0 || (!run < config.runs && not (Budget.exhausted budget)) do
    let start =
      if !run = 0 then Construct.identity n
      else if !run land 1 = 1 then
        Construct.greedy_edge ~rng ~skip_prob:config.greedy_skip d
      else
        Construct.nearest_neighbor ~rng ~choices:config.nn_choices d
          ~start:(Random.State.int rng n)
    in
    let st =
      Three_opt.init ~repr:config.tour_repr s ~nbr ~tour:(Sym.expand s start)
    in
    Three_opt.activate_all st;
    Three_opt.run ~budget st;
    let verdicts = oracle_iterate seen ~budget ~kicks:kicks_per_run st rng in
    total_kicks := !total_kicks + List.length verdicts;
    decisions := List.rev_append verdicts !decisions;
    m2 := !m2 + st.Three_opt.moves_2opt;
    m3 := !m3 + st.Three_opt.moves_3opt;
    skipped := !skipped + st.Three_opt.scans_skipped;
    let directed_cost = full_cost st + s.Sym.offset in
    if directed_cost < !best_cost then begin
      best_cost := directed_cost;
      best_tour := Some (Sym.extract s (Three_opt.tour st));
      runs_with_best := 1
    end
    else if directed_cost = !best_cost then incr runs_with_best;
    incr run
  done;
  {
    tour = Option.get !best_tour;
    best_cost = !best_cost;
    runs_with_best = !runs_with_best;
    kicks = !total_kicks;
    decisions = List.rev !decisions;
    moves_2opt = !m2;
    moves_3opt = !m3;
    scans_skipped = !skipped;
    timed_out = Budget.exhausted budget;
  }

let solve ~config ~rng ~budget d =
  let decisions = ref [] in
  let on_kick accepted = decisions := accepted :: !decisions in
  let tour, (st : Iterated.stats) = Iterated.solve ~config ~rng ~budget ~on_kick d in
  {
    tour;
    best_cost = st.best_cost;
    runs_with_best = st.runs_with_best;
    kicks = st.kicks;
    decisions = List.rev !decisions;
    moves_2opt = st.moves_2opt;
    moves_3opt = st.moves_3opt;
    scans_skipped = st.scans_skipped;
    timed_out = st.timed_out;
  }

(* One differential case: the solve under [rng_seed] (fresh budgets of
   [max_moves], or none) against the oracle, on both representations. *)
let differential seen ~config ~rng_seed ~max_moves d =
  let budget () =
    match max_moves with
    | Some m -> Budget.create ~max_moves:m ()
    | None -> Budget.unlimited ()
  in
  List.iter
    (fun repr ->
      let config = { config with Iterated.tour_repr = repr } in
      let rng () = Random.State.make [| rng_seed |] in
      let want = oracle_solve seen ~config ~rng:(rng ()) ~budget:(budget ()) d in
      let got = solve ~config ~rng:(rng ()) ~budget:(budget ()) d in
      let name = Tour_repr.kind_name repr in
      if got.decisions <> want.decisions then
        QCheck2.Test.fail_reportf "%s: accept/reject sequences differ" name;
      if got.tour <> want.tour then QCheck2.Test.fail_reportf "%s: tours differ" name;
      if got <> want then
        QCheck2.Test.fail_reportf
          "%s: stats differ: cost %d/%d moves %d+%d/%d+%d skipped %d/%d" name
          got.best_cost want.best_cost got.moves_2opt got.moves_3opt
          want.moves_2opt want.moves_3opt got.scans_skipped want.scans_skipped)
    [ Tour_repr.Array; Tour_repr.Two_level ]

let case_of_seed seed =
  let rng = Random.State.make [| seed + 17 |] in
  let config =
    {
      Iterated.default with
      runs = 1 + Random.State.int rng 3;
      max_kicks = 1 + Random.State.int rng 30;
    }
  in
  (* a third of the cases run out of moves, most often mid-descent *)
  let max_moves =
    if Random.State.int rng 3 = 0 then Some (1 + Random.State.int rng 80)
    else None
  in
  (config, max_moves)

(* [Iterated.solve] starts every run from an expanded directed tour,
   whose in/out pairs sit at positions (2k, 2k+1); every move and kick
   keeps that alignment, so its wrap-around edge is never locked.  The
   locked-wrap shift is reached from a start rotated by one position,
   one level down: [Iterated.iterate] against the oracle's kick loop on
   the same descended state. *)
let iterate_differential seen ~seed ~kicks ~max_moves =
  let d = dtsp_of_seed seed in
  let s = Sym.of_dtsp d in
  let nbr = Neighbors.of_sym s ~k:8 in
  let rng = Random.State.make [| seed + 3 |] in
  let aligned = Sym.expand s (random_tour rng d.Dtsp.n) in
  let nn = s.Sym.nn in
  let tour = Array.init nn (fun p -> aligned.((p + 1) mod nn)) in
  let budget () =
    match max_moves with
    | Some m -> Budget.create ~max_moves:m ()
    | None -> Budget.unlimited ()
  in
  List.iter
    (fun repr ->
      let descended () =
        let st = Three_opt.init ~repr s ~nbr ~tour in
        let budget = budget () in
        Three_opt.activate_all st;
        Three_opt.run ~budget st;
        (st, budget)
      in
      let want_st, want_budget = descended () in
      let want =
        oracle_iterate seen ~budget:want_budget ~kicks want_st
          (Random.State.make [| seed |])
      in
      let got_st, got_budget = descended () in
      let decisions = ref [] in
      let n_kicks, n_accepted =
        Iterated.iterate ~budget:got_budget ~kicks
          ~on_kick:(fun a -> decisions := a :: !decisions)
          got_st (Random.State.make [| seed |])
      in
      let name = Tour_repr.kind_name repr in
      if List.rev !decisions <> want then
        QCheck2.Test.fail_reportf "%s: accept/reject sequences differ" name;
      if n_kicks <> List.length want
         || n_accepted <> List.length (List.filter Fun.id want)
      then QCheck2.Test.fail_reportf "%s: kick counts differ" name;
      if Three_opt.tour got_st <> Three_opt.tour want_st then
        QCheck2.Test.fail_reportf "%s: tours differ" name;
      if Three_opt.cost got_st <> full_cost got_st then
        QCheck2.Test.fail_reportf "%s: running cost drifted" name;
      let counts (st : Three_opt.state) =
        Three_opt.(st.moves_2opt, st.moves_3opt, st.scans_skipped)
      in
      if counts got_st <> counts want_st then
        QCheck2.Test.fail_reportf "%s: moves or scans_skipped differ" name)
    [ Tour_repr.Array; Tour_repr.Two_level ]

let prop_iterate_matches_oracle =
  QCheck2.Test.make ~count:150
    ~name:"Iterated.iterate = oracle kick loop from a locked-wrap start"
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed + 29 |] in
      let max_moves =
        if Random.State.int rng 3 = 0 then Some (1 + Random.State.int rng 80)
        else None
      in
      iterate_differential (seen ()) ~seed ~kicks:(1 + Random.State.int rng 30)
        ~max_moves;
      true)

let prop_matches_oracle =
  QCheck2.Test.make ~count:150
    ~name:"in-place kicks + undo = copy-and-set_tour oracle, both reprs"
    gen_seed (fun seed ->
      let config, max_moves = case_of_seed seed in
      differential (seen ()) ~config ~rng_seed:seed ~max_moves
        (dtsp_of_seed seed);
      true)

(* The first rng seed whose first kick on a 4-city instance finds no
   three distinct cuts: with 8 symmetric cities only three cut
   positions are legal, so 65 draws in a row can all collide.  Whether
   a kick degenerates depends only on the draws, never on the tour. *)
let degenerate_seed () =
  let d = dtsp_of_seed ~min_n:4 ~max_n:4 0 in
  let s = Sym.of_dtsp d in
  let st =
    Three_opt.init s ~nbr:(Neighbors.of_sym s ~k:8)
      ~tour:(Sym.expand s (Construct.identity 4))
  in
  let probe = seen () in
  let rec search k =
    if k > 20_000_000 then Alcotest.fail "no degenerate kick seed found"
    else begin
      ignore (oracle_double_bridge probe st (Random.State.make [| k |]));
      if probe.degenerate > 0 then k else search (k + 1)
    end
  in
  (d, search 0)

let test_coverage () =
  let seen = seen () in
  for seed = 0 to 59 do
    let config, max_moves = case_of_seed seed in
    differential seen ~config ~rng_seed:seed ~max_moves (dtsp_of_seed seed);
    iterate_differential seen ~seed ~kicks:20
      ~max_moves:(if seed mod 3 = 0 then Some (5 + seed) else None)
  done;
  let d, rng_seed = degenerate_seed () in
  (* one run: its first kick draws the rng's first numbers *)
  differential seen
    ~config:{ Iterated.default with runs = 1; max_kicks = 4 }
    ~rng_seed ~max_moves:None d;
  Alcotest.(check bool) "locked-wrap shifts exercised" true (seen.shifts > 0);
  Alcotest.(check bool) "degenerate kicks exercised" true (seen.degenerate > 0);
  Alcotest.(check bool)
    "budget-truncated descents exercised" true (seen.truncated > 0)

(* ------------------------------------------------------------------ *)
(* op level: exact undo, running cost                                  *)

(* [Three_opt.run] without the stamps, checking after every move and
   stopping after [limit] moves *)
let descend ?(limit = max_int) (st : Three_opt.state) check =
  let moves = ref 0 in
  while !moves < limit && not (Queue.is_empty st.Three_opt.queue) do
    let a = Queue.pop st.Three_opt.queue in
    st.Three_opt.in_queue.(a) <- false;
    while !moves < limit && Three_opt.try_city st a do
      incr moves;
      check "move"
    done
  done

(* ops undone by the property below, by kind: on tours that are valid
   expansions only T4 swaps improve (a reversal turns in/out pairs
   around), so the other kinds come from scrambled starts *)
let undone = Array.make 6 0

let kind_index = function
  | Three_opt.Reverse _ -> 0
  | Reconnect (T3, _, _, _) -> 1
  | Reconnect (T4, _, _, _) -> 2
  | Reconnect (T5, _, _, _) -> 3
  | Reconnect (T6, _, _, _) -> 4
  | Shift _ -> 5

let prop_undo_exact =
  QCheck2.Test.make ~count:150
    ~name:"undo restores the exact tour; running cost = Sym.tour_cost"
    gen_seed (fun seed ->
      List.iter
        (fun repr ->
          let d = dtsp_of_seed ~max_n:30 seed in
          let s = Sym.of_dtsp d in
          let rng = Random.State.make [| seed + 5 |] in
          let nn = s.Sym.nn in
          (* any permutation of the symmetric cities: pairs split, wrap
             edge locked or not *)
          let st =
            Three_opt.init ~repr s ~nbr:(Neighbors.of_sym s ~k:8)
              ~tour:(random_tour rng nn)
          in
          let check what =
            if Three_opt.cost st <> full_cost st then
              QCheck2.Test.fail_reportf "%s: running cost %d <> %d after a %s"
                (Tour_repr.kind_name repr) (Three_opt.cost st) (full_cost st)
                what
          in
          check "init";
          Three_opt.checkpoint st;
          for _ = 1 to 25 do
            let before = Three_opt.tour st and cost_before = Three_opt.cost st in
            let touched = Iterated.double_bridge st rng in
            check "kick";
            List.iter (Three_opt.activate st) touched;
            for _ = 1 to 4 do
              Three_opt.activate st (Random.State.int rng nn)
            done;
            descend ~limit:(Random.State.int rng 12) st check;
            if Random.State.bool rng then begin
              let version = st.Three_opt.version in
              List.iter
                (fun op ->
                  let k = kind_index op in
                  undone.(k) <- undone.(k) + 1)
                st.Three_opt.log;
              Three_opt.undo st;
              check "undo";
              if Three_opt.tour st <> before then
                QCheck2.Test.fail_reportf "%s: undo did not restore the tour"
                  (Tour_repr.kind_name repr);
              if Three_opt.cost st <> cost_before then
                QCheck2.Test.fail_reportf "%s: undo did not restore the cost"
                  (Tour_repr.kind_name repr);
              if st.Three_opt.version <> version + 1 then
                QCheck2.Test.fail_reportf "undo must bump the version once"
            end
            else Three_opt.checkpoint st
          done)
        [ Tour_repr.Array; Tour_repr.Two_level ];
      true)

let test_every_op_undone () =
  Array.iteri
    (fun k name ->
      Alcotest.(check bool) (name ^ " undone") true (undone.(k) > 0))
    [| "reverse"; "T3"; "T4"; "T5"; "T6"; "shift" |]

let prop_shift =
  QCheck2.Test.make ~count:200
    ~name:"Tour_repr.shift moves every position by d, both reprs" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 200 in
      let tour = random_tour rng n in
      List.iter
        (fun kind ->
          let r = Tour_repr.make kind ~n_cities:n tour in
          let d = Random.State.int rng (3 * n) - n in
          Tour_repr.shift r d;
          let want = Array.make n 0 in
          Array.iteri (fun p c -> want.((((p + d) mod n) + n) mod n) <- c) tour;
          if Tour_repr.to_array r <> want then
            QCheck2.Test.fail_reportf "%s: shift %d diverged (n=%d)"
              (Tour_repr.kind_name kind) d n;
          Array.iteri
            (fun p c ->
              if Tour_repr.pos r c <> p then
                QCheck2.Test.fail_reportf "%s: pos after shift"
                  (Tour_repr.kind_name kind))
            want)
        [ Tour_repr.Array; Tour_repr.Two_level ];
      true)

let () =
  Alcotest.run "kick-prop"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_oracle;
          QCheck_alcotest.to_alcotest prop_iterate_matches_oracle;
          Alcotest.test_case "shift, degenerate and truncated kicks covered"
            `Quick test_coverage;
        ] );
      ( "undo",
        [
          QCheck_alcotest.to_alcotest prop_shift;
          QCheck_alcotest.to_alcotest prop_undo_exact;
          Alcotest.test_case "every op kind undone" `Quick
            test_every_op_undone;
        ] );
    ]
