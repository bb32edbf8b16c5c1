(* selftest — checks on the benchmark itself.

     selftest.exe

   1. The explicit per-layer paper pipeline yields the same layouts as
      Driver.align_checked, the path `balign align` takes, on every
      program and both its data sets: the benchmark measures the
      user's path.
   2. Two iterations of each workload at one seed agree exactly on the
      figures that do not depend on the clock.
   3. BENCHMARK.json lists the metrics, with the units, that main.exe
      prints.

   Run from the root of the checkout.
   Exits 1 when a check fails. *)

module Workload = Ba_workloads.Workload

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun m ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") m;
      if not ok then incr failures)
    fmt

let same_orders pick =
  let st =
    Wl_paper.setup_programs
      (List.map
         (fun (w : Workload.t) -> (w, pick w.Workload.datasets))
         Ba_workloads.Workload95.everything)
  in
  let tally = Tally.create () in
  Layer.reset ();
  ignore (Wl_paper.pass st tally);
  check (tally.Tally.failed = 0) "paper pass: %d of %d operations failed" tally.Tally.failed
    tally.Tally.attempted;
  List.iter
    (fun (p : Wl_paper.program) ->
      let name = p.Wl_paper.w.Workload.name ^ "." ^ p.Wl_paper.ds.Workload.ds_name in
      match
        Ba_align.Driver.align_checked Wl_paper.method_ Wl_paper.model
          p.Wl_paper.compiled.Ba_minic.Compile.cfgs ~train:p.Wl_paper.profile
      with
      | Error e -> check false "%s: align_checked: %s" name (Ba_robust.Errors.to_string e)
      | Ok report ->
          let mine = List.assoc p.Wl_paper.w.Workload.name st.Wl_paper.orders in
          check
            (report.Ba_align.Driver.fallbacks = []
            && report.Ba_align.Driver.aligned.Ba_align.Driver.orders = mine)
            "%s: per-layer pipeline = Driver.align_checked" name)
    st.Wl_paper.programs

let deterministic =
    [
    "penalty_ratio";
    "cycles_ratio";
    "hk_gap_pct";
    "tsp.kicks";
    "tsp.moves";
    "serve.cache_hit_frac";
    "serve.tsp_kicks";
  ]

let same_twice (name, w) =
  let a = Bench.iterate w ~seed:7 ~iteration:0 ~traced:false in
  let b = Bench.iterate w ~seed:7 ~iteration:0 ~traced:false in
  List.iter
    (fun k ->
      match (List.assoc_opt k a.Bench.values, List.assoc_opt k b.Bench.values) with
      | Some x, Some y -> check (x = y) "%s %s: %.17g then %.17g" name k x y
      | None, None -> ()
      | _ -> check false "%s %s: reported by one run only" name k)
    deterministic

(* (name, unit) of each entry of one metric list in BENCHMARK.json *)
let listed doc key =
  let module J = Ba_obs.Json in
  let field k m = Option.value ~default:"" (Option.bind (J.member k m) J.to_str) in
  Option.bind (J.member key doc) J.to_list
  |> Option.value ~default:[]
  |> List.map (fun m -> (field "name" m, field "unit" m))

let catalogue () =
  match Ba_obs.Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Error e -> check false "BENCHMARK.json: %s" e
  | Ok doc ->
      check (listed doc "end_to_end" = Bench.end_to_end) "BENCHMARK.json end_to_end = Bench.end_to_end";
      check (listed doc "per_layer" = Bench.per_layer) "BENCHMARK.json per_layer = Bench.per_layer"

let () =
  catalogue ();
  same_orders fst;
  same_orders snd;
  List.iter same_twice Bench.workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
