(** Iterated 3-Opt for the directed TSP (via symmetrization).

    Following the paper's appendix: each {e run} starts from a
    construction tour (the original ordering once, randomized greedy and
    randomized nearest-neighbor for the rest), optimizes it with 3-Opt to
    exhaustion, then performs a number of {e iterations}, each consisting
    of a random double-bridge 4-Opt kick [20] followed by 3-Opt
    re-optimization; a worsening iteration is undone.  The best tour over
    all runs is returned.  The paper uses 10 runs of 2·N iterations.

    An iteration costs O((moves + 1)·√n), not O(n): the kick is a T4
    segment swap applied in place, the run's cost is kept from move
    gains, and a worsening iteration is undone by replaying its logged
    ops inverted ({!Three_opt.undo}; DESIGN.md §6). *)

type config = {
  runs : int;  (** independent restarts (paper: 10) *)
  kick_factor : int;  (** iterations per run = kick_factor × n (paper: 2) *)
  max_kicks : int;  (** hard cap on iterations per run *)
  neighbors : int;  (** candidate-list width for 3-Opt *)
  nn_choices : int;  (** randomization width of nearest-neighbor starts *)
  greedy_skip : float;  (** skip probability of randomized greedy starts *)
  seed : int;
  deadline_ms : int option;  (** wall-clock budget per solve; [None] = none *)
  max_moves : int option;  (** improving-move budget per solve *)
  tour_repr : Tour_repr.kind;
      (** tour representation for the 3-Opt states (trajectory-neutral;
          [Auto] gates on instance size) *)
}

let default =
  {
    runs = 10;
    kick_factor = 2;
    max_kicks = 2000;
    neighbors = 12;
    nn_choices = 3;
    greedy_skip = 0.1;
    seed = 0x5eed;
    deadline_ms = None;
    max_moves = None;
    tour_repr = Tour_repr.Auto;
  }

type stats = {
  best_cost : int;  (** directed cost of the best tour *)
  runs_with_best : int;  (** how many runs ended at the best cost *)
  kicks : int;  (** total kicks over all runs *)
  kicks_accepted : int;  (** kicks that improved their run's best tour *)
  undo_ops : int;  (** tour ops replayed to undo rejected kicks *)
  moves_2opt : int;
  moves_3opt : int;
  scans_skipped : int;  (** scans elided by the don't-look stamps *)
  timed_out : bool;  (** the budget ran out before the search finished *)
}

(* ------------------------------------------------------------------ *)

(** Random double-bridge kick that never cuts a locked pair edge,
    applied in place ({!Three_opt.swap_segments}).  Returns the
    boundary cities whose don't-look bits must be cleared. *)
let double_bridge (st : Three_opt.state) rng =
  let s = st.Three_opt.s in
  let n = s.Sym.nn in
  (* make sure the wrap-around edge (t[n-1], t[0]) is not locked: read
     the tour one position on, the frame the kick rotates into when it
     is not skipped (the rotation does not change the cycle) *)
  let shift =
    Sym.is_locked s (Three_opt.city_at st (n - 1)) (Three_opt.city_at st 0)
  in
  let at p = Three_opt.city_at st (if shift then (p + 1) mod n else p) in
  let ok p = not (Sym.is_locked s (at (p - 1)) (at p)) in
  let rand_cut () =
    let p = ref (1 + Random.State.int rng (n - 1)) in
    while not (ok !p) do
      p := 1 + ((!p + 1 - 1) mod (n - 1))
    done;
    !p
  in
  let p1 = ref (rand_cut ()) and p2 = ref (rand_cut ()) and p3 = ref (rand_cut ()) in
  (* need three distinct sorted cut positions *)
  let attempts = ref 0 in
  while (!p1 = !p2 || !p2 = !p3 || !p1 = !p3) && !attempts < 64 do
    incr attempts;
    p2 := rand_cut ();
    p3 := rand_cut ()
  done;
  if !p1 = !p2 || !p2 = !p3 || !p1 = !p3 then [] (* degenerate: skip kick *)
  else begin
    let a = min !p1 (min !p2 !p3) and c = max !p1 (max !p2 !p3) in
    let b = !p1 + !p2 + !p3 - a - c in
    (* A = t[0..a-1], B = t[a..b-1], C = t[b..c-1], D = t[c..n-1];
       double bridge: A C B D *)
    let touched =
      [
        at 0; at (n - 1);
        at (a - 1); at a;
        at (b - 1); at b;
        at (c - 1); at c;
      ]
    in
    Three_opt.swap_segments st ~shift ~a ~b ~c;
    touched
  end

(** [iterate ?on_kick ~budget ~kicks st rng] runs up to [kicks]
    double-bridge kicks on a descended state, each re-optimized by
    3-Opt and undone unless it beats the best tour seen (the
    {e current} tour is always that best between kicks: an accepted
    kick becomes the new checkpoint, a rejected one is undone back to
    it).  Stops early once [budget] is exhausted; [on_kick] hears each
    kick's verdict.  Costs are compared as exact deltas from the
    entry tour, so neither the magnitude of the symmetric sums nor the
    n·m locked-edge offset enters.  Returns the kicks made and the kicks
    accepted. *)
let iterate ?(on_kick = ignore) ~budget ~kicks st rng =
  let base = Three_opt.cost st in
  let best = ref 0 and accepted = ref 0 and kick = ref 0 in
  Three_opt.checkpoint st;
  while !kick < kicks && not (Ba_robust.Budget.exhausted budget) do
    incr kick;
    let touched = double_bridge st rng in
    List.iter (Three_opt.activate st) touched;
    Three_opt.run ~budget st;
    let delta = Three_opt.cost st - base in
    let improved = delta < !best in
    if improved then begin
      best := delta;
      incr accepted;
      Three_opt.checkpoint st
    end
    else Three_opt.undo st;
    on_kick improved
  done;
  (!kick, !accepted)

(* ------------------------------------------------------------------ *)

let brute_force (d : Dtsp.t) =
  (* for n <= 3 every cyclic order is exhausted trivially *)
  match d.Dtsp.n with
  | 2 ->
      let t = [| 0; 1 |] in
      (t, Dtsp.tour_cost d t)
  | 3 ->
      let t1 = [| 0; 1; 2 |] and t2 = [| 0; 2; 1 |] in
      let c1 = Dtsp.tour_cost d t1 and c2 = Dtsp.tour_cost d t2 in
      if c1 <= c2 then (t1, c1) else (t2, c2)
  | _ -> invalid_arg "Iterated.brute_force: n > 3"

(** [solve ?config ?rng ?budget d] returns the best directed tour found
    and solver statistics.  Deterministic for a fixed [config.seed] and
    unlimited budget; all randomness comes from [rng] (default: a state
    derived from [config.seed] and the instance), so the solve is
    re-entrant — no global or otherwise shared state is touched, and
    concurrent solves of different instances cannot interfere.  [budget]
    (defaulting to one built from the config's [deadline_ms]/[max_moves])
    is polled between improving moves, kicks and restarts; on exhaustion
    the best tour found so far is returned with [timed_out] set — the
    first (identity-start) construction always completes, so a valid
    tour is returned even for a zero budget. *)
let solve ?(config = default) ?rng ?budget ?initial
    ?(nbr_exec = Ba_engine.Executor.Seq) ?(on_kick = ignore) (d : Dtsp.t) :
    int array * stats =
  let budget =
    match budget with
    | Some b -> b
    | None ->
        Ba_robust.Budget.create ?deadline_ms:config.deadline_ms
          ?max_moves:config.max_moves ()
  in
  let n = d.Dtsp.n in
  if n <= 3 then begin
    let tour, c = brute_force d in
    Ba_obs.Metrics.incr Ba_obs.Metrics.Exact_solves;
    ( tour,
      { best_cost = c; runs_with_best = config.runs; kicks = 0;
        kicks_accepted = 0; undo_ops = 0; moves_2opt = 0; moves_3opt = 0;
        scans_skipped = 0; timed_out = false } )
  end
  else begin
    let rng =
      match rng with
      | Some r -> r
      | None -> Random.State.make [| config.seed; n; Dtsp.max_cost d |]
    in
    let s = Sym.of_dtsp d in
    let nbr = Neighbors.of_sym ~exec:nbr_exec s ~k:config.neighbors in
    let kicks_per_run = min config.max_kicks (config.kick_factor * n) in
    let best_tour = ref None and best_cost = ref max_int in
    let runs_with_best = ref 0 in
    let total_kicks = ref 0 and accepted = ref 0 and undone = ref 0 in
    let m2 = ref 0 and m3 = ref 0 and skipped = ref 0 in
    let run = ref 0 in
    (* run 0 (the identity start) always executes so that an exhausted
       budget still yields a valid tour; later runs are skipped once the
       budget runs out *)
    while !run = 0 || (!run < config.runs && not (Ba_robust.Budget.exhausted budget)) do
      let start_directed =
        if !run = 0 then
          (* run 0 always completes even on an exhausted budget; with a
             warm start (incremental re-alignment: the serve cache's
             previous tour) it re-optimizes that tour instead of the
             identity, so small profile drifts converge in a few moves *)
          match initial with
          | Some t when Array.length t = n -> Array.copy t
          | _ -> Construct.identity n
        else if !run land 1 = 1 then
          Construct.greedy_edge ~rng ~skip_prob:config.greedy_skip d
        else
          Construct.nearest_neighbor ~rng ~choices:config.nn_choices d
            ~start:(Random.State.int rng n)
      in
      let st =
        Three_opt.init ~repr:config.tour_repr s ~nbr
          ~tour:(Sym.expand s start_directed)
      in
      let start_cost = Three_opt.cost st in
      Three_opt.activate_all st;
      Three_opt.run ~budget st;
      let kicks, kicked = iterate ~on_kick ~budget ~kicks:kicks_per_run st rng in
      total_kicks := !total_kicks + kicks;
      accepted := !accepted + kicked;
      m2 := !m2 + st.Three_opt.moves_2opt;
      m3 := !m3 + st.Three_opt.moves_3opt;
      skipped := !skipped + st.Three_opt.scans_skipped;
      undone := !undone + st.Three_opt.undo_ops;
      let run_tour = Three_opt.tour st in
      assert (Three_opt.cost st = Sym.tour_cost s run_tour);
      (* the run's gain is an exact delta from its start tour, whose
         directed cost is small: no n·m offset, no wrap *)
      let directed_cost =
        Dtsp.tour_cost d start_directed + (Three_opt.cost st - start_cost)
      in
      if directed_cost < !best_cost then begin
        best_cost := directed_cost;
        best_tour := Some (Sym.extract s run_tour);
        runs_with_best := 1
      end
      else if directed_cost = !best_cost then incr runs_with_best;
      incr run
    done;
    let tour = Option.get !best_tour in
    assert (Dtsp.tour_cost d tour = !best_cost);
    let timed_out = Ba_robust.Budget.exhausted budget in
    (* observability: per-solve totals (move counters are fed by
       Three_opt.run itself) *)
    Ba_obs.Metrics.(
      incr Heuristic_solves;
      incr ~n:!total_kicks Kicks;
      incr ~n:!accepted Kicks_accepted;
      incr ~n:!undone Undo_ops;
      incr ~n:!run Restarts;
      set_gauge Neighbor_width config.neighbors;
      if timed_out then incr Budget_exhaustions);
    ( tour,
      {
        best_cost = !best_cost;
        runs_with_best = !runs_with_best;
        kicks = !total_kicks;
        kicks_accepted = !accepted;
        undo_ops = !undone;
        moves_2opt = !m2;
        moves_3opt = !m3;
        scans_skipped = !skipped;
        timed_out;
      } )
  end
