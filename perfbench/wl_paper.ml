(* paper: the paper's pipeline over the eleven minic stand-ins (six
   SPEC92, five SPEC95), each profiled on the first of its two data
   sets.  Training data = testing data (Fig. 2).  The seed only sets
   the program a run starts with.  It picks neither the data sets nor
   the solver seed: the other data set of su2 or xli changes the work
   of a pass by a tenth, and another solver seed hands Held–Karp
   another upper bound, which changes its run time by up to 1.8×;
   either would read as noise between seeds.  The units of a program
   are its lint, each procedure, and its simulations; a pass stops
   only between programs.  Pass k starts 4k programs after the first,
   so that a pass cut short by the deadline spreads its samples.

   Per program: Lint.gate, then per procedure Reduction.build →
   Tsp_align.solve_instance (the paper's default schedule, with the
   per-procedure random stream Driver.align_checked would use) →
   Evaluate.realize → Bounds.held_karp → Certify.proc_cert; then
   Addr.build and Driver.simulate of the original and the TSP layout. *)

open Ba_cfg
module Workload = Ba_workloads.Workload
module Compile = Ba_minic.Compile
module Profile = Ba_profile.Profile
module Driver = Ba_align.Driver
module Tsp_align = Ba_align.Tsp_align
module Certify = Ba_check.Certify

let model = Ba_machine.Model.default
let method_ = Driver.Tsp Tsp_align.default

type program = {
  w : Workload.t;
  ds : Workload.dataset;
  compiled : Compile.compiled;
  profile : Profile.t;
}

type state = {
  programs : program list;
  mutable heuristic : Ba_align.Reduction.t list;
      (** instances the last pass solved by search (for the standalone
          symmetrization / neighbor-list timings) *)
  mutable orders : (string * Layout.order array) list;
      (** per program, the layouts of the last pass (for the self-test) *)
  first : int;  (** the program the pass starts at *)
}

(* Compile and profile each (workload, data set). *)
let setup_programs ?(first = 0) pairs =
  let programs =
    List.map
      (fun (w, ds) ->
        let compiled = Layer.call "minic.compile" (fun () -> Workload.compile w) in
        let profile =
          Layer.call "minic.profile" (fun () ->
              Compile.profile compiled ~input:ds.Workload.input)
        in
        { w; ds; compiled; profile })
      pairs
  in
  let n = List.length programs in
  { programs; heuristic = []; orders = []; first = ((first mod n) + n) mod n }

let setup ~seed ~iteration =
  setup_programs ~first:(seed + (4 * iteration))
    (List.map
       (fun (w : Workload.t) -> (w, fst w.Workload.datasets))
       Ba_workloads.Workload95.everything)

(* The aligned-program record Driver.simulate and
   Driver.analytic_penalty take, from per-procedure realizations. *)
let assemble cfgs orders parts =
  let realized = Array.map fst parts and predicted = Array.map snd parts in
  let addr =
    Layer.call "machine.addr" (fun () ->
        Ba_machine.Addr.build (Array.map2 (fun g r -> (g, r)) cfgs realized))
  in
  { Driver.cfgs; orders; realized; predicted; addr; method_ }

type totals = {
  mutable tsp_pen : int;
  mutable hk : int;
  mutable tight : int;
  mutable ratios : float list;
      (** TSP ÷ original penalty, per procedure with a nonzero original *)
  mutable cycle_ratios : float list;  (** TSP ÷ original cycles, per program *)
}

let run_program st tally tot p =
  let cfgs = p.compiled.Compile.cfgs in
  let what = p.w.Workload.name ^ "." ^ p.ds.Workload.ds_name in
  match
    Layer.in_unit what (fun () ->
        Layer.call "check.lint" (fun () -> Ba_check.Lint.gate ~profile:p.profile cfgs))
  with
  | Error e ->
      ignore
        (Tally.op tally what (fun fail ->
             fail ("lint: " ^ Ba_robust.Errors.to_string e)))
  | Ok () ->
      let solved =
        Array.mapi
          (fun fid g ->
            let prof = Profile.proc p.profile fid in
            let pwhat = Printf.sprintf "%s/%s" what g.Cfg.name in
            Layer.in_unit pwhat @@ fun () ->
            Tally.op tally pwhat (fun fail ->
                let inst =
                  Layer.call "align.reduce" (fun () ->
                      Ba_align.Reduction.build model g ~profile:prof)
                in
                let rng =
                  Ba_engine.Task.seed_rng ~seed:(Driver.method_seed method_) ~id:fid
                in
                let r =
                  Layer.call "tsp.solve" (fun () ->
                      Tsp_align.solve_instance ~rng inst)
                in
                if not r.Tsp_align.exact then begin
                  Layer.charge "tsp.solve_heuristic" !Layer.last;
                  st.heuristic <- inst :: st.heuristic
                end;
                Option.iter
                  (fun e -> fail ("degraded: " ^ Ba_robust.Errors.to_string e))
                  r.Tsp_align.degraded;
                let order = r.Tsp_align.order in
                let part =
                  Layer.call "align.realize" (fun () ->
                      Ba_align.Evaluate.realize model g ~order ~train:prof)
                in
                let upper = r.Tsp_align.cost in
                let bound =
                  Layer.call "hk.bound" (fun () ->
                      Ba_align.Bounds.held_karp model g ~profile:prof ~upper)
                in
                if bound > upper then fail (Printf.sprintf "HK bound %d > TSP cost %d" bound upper);
                let cost =
                  match
                    Layer.call "check.certify" (fun () ->
                        Certify.proc_cert ~claimed:upper ~hk:(Certify.Given bound)
                          ~sym_check:true ~proc:fid model g ~profile:prof ~order)
                  with
                  | Ok c -> c.Certify.cost
                  | Error e ->
                      fail ("certify: " ^ Certify.error_to_string e);
                      upper
                in
                let identity = Layout.identity g in
                let base =
                  Layer.call "align.baseline" (fun () ->
                      Ba_align.Evaluate.realize model g ~order:identity ~train:prof)
                in
                let orig =
                  Layer.call "align.baseline" (fun () ->
                      Ba_align.Evaluate.proc_penalty model g ~order:identity
                        ~train:prof ~test:prof)
                in
                tot.tsp_pen <- tot.tsp_pen + cost;
                tot.hk <- tot.hk + bound;
                if bound = cost then tot.tight <- tot.tight + 1;
                if orig > 0 then
                  tot.ratios <- (float_of_int cost /. float_of_int orig) :: tot.ratios;
                (order, part, identity, base)))
          cfgs
      in
      Layer.in_unit (what ^ " simulation") @@ fun () ->
      if Array.for_all Option.is_some solved then begin
        let solved = Array.map Option.get solved in
        let tsp_orders = Array.map (fun (o, _, _, _) -> o) solved in
        st.orders <- (p.w.Workload.name, tsp_orders) :: st.orders;
        let tsp = assemble cfgs tsp_orders (Array.map (fun (_, r, _, _) -> r) solved) in
        let orig =
          assemble cfgs
            (Array.map (fun (_, _, o, _) -> o) solved)
            (Array.map (fun (_, _, _, r) -> r) solved)
        in
        let run sink = ignore (Compile.run p.compiled ~input:p.ds.Workload.input ~sink) in
        let simulate a =
          Tally.op tally (what ^ " simulation") (fun fail ->
              let sim = Layer.call "machine.simulate" (fun () -> Driver.simulate model a ~run) in
              let analytic =
                Layer.call "align.penalty" (fun () ->
                    Driver.analytic_penalty model a ~test:p.profile)
              in
              if sim.Ba_machine.Cycles.penalty_cycles <> analytic then
                fail
                  (Printf.sprintf "simulated penalty %d <> analytic penalty %d"
                     sim.Ba_machine.Cycles.penalty_cycles analytic);
              sim.Ba_machine.Cycles.cycles)
        in
        match (simulate orig, simulate tsp) with
        | Some c0, Some c1 ->
            tot.cycle_ratios <- (float_of_int c1 /. float_of_int c0) :: tot.cycle_ratios
        | _ -> ()
      end

let pass st tally =
  st.heuristic <- [];
  st.orders <- [];
  let tot = { tsp_pen = 0; hk = 0; tight = 0; ratios = []; cycle_ratios = [] } in
  let later, earlier =
    List.partition (fun (i, _) -> i >= st.first) (List.mapi (fun i p -> (i, p)) st.programs)
  in
  List.iter
    (fun (_, p) -> if Layer.before_deadline () then run_program st tally tot p)
    (later @ earlier);
  st.orders <- List.rev st.orders;
  let hk_calls = Layer.calls "hk.bound" in
  [
    ("penalty_ratio", Layer.mean tot.ratios);
    ("cycles_ratio", Layer.geomean tot.cycle_ratios);
    ("bound_s", Layer.secs "hk.bound");
    ("hk_gap_pct", Layer.ratio (float_of_int (tot.tsp_pen - tot.hk)) (float_of_int tot.hk) *. 100.);
    ("hk.tight_frac", Layer.ratio (float_of_int tot.tight) (float_of_int hk_calls));
  ]

let standalone_instances st = List.rev st.heuristic
let teardown _ _ = ()
