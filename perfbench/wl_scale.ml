(* scale: the three Scale families (loop-nest, switch, interp) at 10⁴
   blocks with analytic profiles, each aligned with Tsp_align at 2 runs
   × 300 kicks (the seed is the solver seed) and certified with the
   sparse certifier.  No Held–Karp bound, no minic.  The units of a
   family are its lint and the rest of its pipeline. *)

open Ba_cfg
module Scale = Ba_workloads.Scale
module Profile = Ba_profile.Profile
module Tsp_align = Ba_align.Tsp_align
module Certify = Ba_check.Certify

let model = Ba_machine.Model.default
let n_blocks = 10_000
let kicks = 300

type state = {
  config : Tsp_align.config;
  instances : (string * Cfg.t * Profile.proc) list;
  mutable heuristic : Ba_align.Reduction.t list;
}

let setup ~seed ~iteration:_ =
  let instances =
    List.map
      (fun fam ->
        let g, prof =
          Layer.call "workloads.generate" (fun () ->
              Scale.instance fam ~n:n_blocks ~invocations:1024)
        in
        (Scale.name fam, g, prof))
      Scale.all
  in
  let solver =
    { Ba_tsp.Iterated.default with Ba_tsp.Iterated.runs = 2; max_kicks = kicks; seed }
  in
  { config = { Tsp_align.default with Tsp_align.solver }; instances; heuristic = [] }

let pass st tally =
  st.heuristic <- [];
  let ratios =
    List.filter_map
      (fun (name, g, prof) ->
        if not (Layer.before_deadline ()) then None
        else
        Option.join @@ Tally.op tally name @@ fun fail ->
        let train = { Profile.procs = [| prof |]; calls = [] } in
        (match
           Layer.in_unit (name ^ " lint") (fun () ->
               Layer.call "check.lint" (fun () -> Ba_check.Lint.gate ~profile:train [| g |]))
         with
        | Ok () -> ()
        | Error e -> fail ("lint: " ^ Ba_robust.Errors.to_string e));
        Layer.in_unit name (fun () ->
            let inst =
              Layer.call "align.reduce" (fun () ->
                  Ba_align.Reduction.build model g ~profile:prof)
            in
            let r =
              Layer.call "tsp.solve" (fun () ->
                  Tsp_align.solve_instance ~config:st.config inst)
            in
            if not r.Tsp_align.exact then begin
              Layer.charge "tsp.solve_heuristic" !Layer.last;
              st.heuristic <- inst :: st.heuristic
            end;
            Option.iter
              (fun e -> fail ("degraded: " ^ Ba_robust.Errors.to_string e))
              r.Tsp_align.degraded;
            let order = r.Tsp_align.order in
            ignore
              (Layer.call "align.realize" (fun () ->
                   Ba_align.Evaluate.realize model g ~order ~train:prof));
            let cost =
              match
                Layer.call "check.certify" (fun () ->
                    Certify.proc_cert ~claimed:r.Tsp_align.cost ~hk:Certify.Skip
                      ~sym_check:false ~proc:0 model g ~profile:prof ~order)
              with
              | Ok c -> c.Certify.cost
              | Error e ->
                  fail ("certify: " ^ Certify.error_to_string e);
                  r.Tsp_align.cost
            in
            let orig =
              Layer.call "align.baseline" (fun () ->
                  Ba_align.Evaluate.proc_penalty model g ~order:(Layout.identity g)
                    ~train:prof ~test:prof)
            in
            if orig > 0 then Some (float_of_int cost /. float_of_int orig) else None))
      st.instances
  in
  [ ("penalty_ratio", Layer.mean ratios) ]

let standalone_instances st = List.rev st.heuristic
let teardown _ _ = ()
