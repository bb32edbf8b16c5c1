(* solver_bench — microbenchmark of the DTSP cost core.

   Measures, over synthetic procedures of realistic CFG sparsity
   (Ba_harness.Synthetic) or the deterministic whole-program-scale
   families (Ba_workloads.Scale), the costs that dominate
   large-procedure alignment: building the solver instance from the
   cost model (Reduction.build), symmetrizing it (Sym.of_dtsp),
   constructing the candidate lists (Neighbors.of_sym), and sustained
   3-Opt throughput (moves/sec over a deterministic kick-and-reoptimize
   loop).  With --certify every final layout is re-verified by the
   independent certifier and the verdict lands in the JSON row.

     dune exec bench/solver_bench.exe -- \
       [--sizes 64,256,1024,4096] [--kicks 256] [--seed 7] \
       [--family syn|loop-nest|switch|interp] [--jobs N] \
       [--repr auto|array|two-level] \
       [--certify] [--variant NAME] [--json FILE]

   Output is a single JSON document (stdout, or FILE with --json); the
   committed trajectory lives in results/solver_bench.json with one
   entry list per variant ("dense-baseline" = the pre-sparse core,
   "sparse" = the dense-scan neighbor era, "heap-select" = the current
   one, "scale-*" = the 10⁵-block family rows).  Everything except wall
   times and allocation figures is deterministic for a fixed seed, so
   best_cost / tour_hash double as a cross-representation identity
   check. *)

module Dtsp = Ba_tsp.Dtsp
module Sym = Ba_tsp.Sym
module Neighbors = Ba_tsp.Neighbors
module Three_opt = Ba_tsp.Three_opt
module Iterated = Ba_tsp.Iterated
module Reduction = Ba_align.Reduction
module Certify = Ba_check.Certify
module Synthetic = Ba_harness.Synthetic
module Scale = Ba_workloads.Scale
module Executor = Ba_engine.Executor
module Json = Ba_obs.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* words allocated (minor + major, i.e. everything the phase consed)
   and wall time of one phase *)
let measured f =
  let a0 = Gc.allocated_bytes () in
  let r, s = time f in
  let words =
    (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)
  in
  (r, s, words)

type entry = {
  n_blocks : int;
  n_cities : int;
  repr : string;  (** representation actually used (Auto resolved) *)
  build_s : float;
  build_words : float;  (** words allocated by Reduction.build *)
  sym_s : float;
  nbr_s : float;
  instance_words : int;  (** live words reachable from (dtsp, sym) *)
  opt_s : float;  (** initial 3-Opt descent + kick loop *)
  moves : int;
  moves_per_s : float;
  move_cost_p50 : float;  (** seconds/move percentiles over run calls *)
  move_cost_p95 : float;
  seg_splits : int;  (** two-level segment splits (0 on flat) *)
  rebalances : int;  (** two-level full rebuilds (0 on flat) *)
  scans_skipped : int;  (** don't-look-bit elisions during opt *)
  best_cost : int;  (** symmetric tour cost after the kick loop *)
  tour_hash : int;
  cert : (bool * float) option;  (** --certify verdict and wall time *)
}

(* nearest-rank percentile of an unsorted sample array *)
let percentile p samples =
  match samples with
  | [] -> 0.
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let len = Array.length a in
      a.(min (len - 1) (int_of_float (p *. float_of_int len)))

let run_size ~family ~seed ~kicks ~k ~repr ~exec ~certify n =
  let g, prof =
    match family with
    | None ->
        let rng = Random.State.make [| seed; n |] in
        let g = Synthetic.cfg rng ~n in
        (g, Synthetic.profile rng g ~invocations:100 ~max_steps:(8 * n))
    | Some fam -> Scale.instance fam ~n ~invocations:1024
  in
  let p = Ba_machine.Model.alpha21164 in
  let inst, build_s, build_words =
    measured (fun () -> Reduction.build p g ~profile:prof)
  in
  let d = inst.Reduction.dtsp in
  let s, sym_s, _ = measured (fun () -> Sym.of_dtsp d) in
  let nbr, nbr_s, _ = measured (fun () -> Neighbors.of_sym ~exec s ~k) in
  let instance_words = Obj.reachable_words (Obj.repr (d, s)) in
  (* throughput: identity start, descent to local optimality, then a
     fixed number of double-bridge kicks each re-optimized; kicks are
     taken from a deterministic rng and never undone, so the trajectory
     is a pure function of the instance *)
  let nn = s.Sym.nn in
  let st = Three_opt.init ~repr s ~nbr ~tour:(Array.init nn Fun.id) in
  let krng = Random.State.make [| seed; n; kicks |] in
  (* per-run-call seconds/move samples: the descent and every kick
     re-optimization contribute one sample each (when they moved) *)
  let samples = ref [] in
  let timed_run () =
    let m0 = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
    let (), secs = time (fun () -> Three_opt.run st) in
    let dm = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt - m0 in
    if dm > 0 then samples := (secs /. float_of_int dm) :: !samples
  in
  let (), opt_s =
    time (fun () ->
        Three_opt.activate_all st;
        timed_run ();
        for _ = 1 to kicks do
          let touched = Iterated.double_bridge st krng in
          List.iter (Three_opt.activate st) touched;
          timed_run ()
        done)
  in
  let moves = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
  let cert =
    if not certify then None
    else begin
      let directed = Sym.extract s (Three_opt.tour st) in
      let order = Reduction.order_of_tour inst directed in
      let claimed = Reduction.layout_cost inst order in
      let verdict, cert_s =
        time (fun () ->
            Certify.proc_cert ~claimed ~hk:Certify.Skip ~sym_check:true
              ~proc:0 p g ~profile:prof ~order)
      in
      (match verdict with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "solver_bench: certification FAILED at n=%d: %s\n%!"
            n (Certify.error_to_string e));
      Some ((match verdict with Ok _ -> true | Error _ -> false), cert_s)
    end
  in
  {
    n_blocks = n;
    n_cities = Dtsp.(d.n);
    repr = Ba_tsp.Tour_repr.kind_name (Three_opt.repr_kind st);
    build_s;
    build_words;
    sym_s;
    nbr_s;
    instance_words;
    opt_s;
    moves;
    moves_per_s = (if opt_s > 0. then float_of_int moves /. opt_s else 0.);
    move_cost_p50 = percentile 0.50 !samples;
    move_cost_p95 = percentile 0.95 !samples;
    seg_splits = Three_opt.seg_splits st;
    rebalances = Three_opt.rebalances st;
    scans_skipped = st.Three_opt.scans_skipped;
    best_cost = Three_opt.cost st;
    tour_hash = Hashtbl.hash (Three_opt.tour st);
    cert;
  }

let entry_json e =
  Json.Obj
    ([
       ("n_blocks", Json.Int e.n_blocks);
       ("n_cities", Json.Int e.n_cities);
       ("repr", Json.String e.repr);
       ("build_s", Json.Float e.build_s);
       ("build_words", Json.Float e.build_words);
       ("sym_s", Json.Float e.sym_s);
       ("nbr_s", Json.Float e.nbr_s);
       ("instance_words", Json.Int e.instance_words);
       ("opt_s", Json.Float e.opt_s);
       ("moves", Json.Int e.moves);
       ("moves_per_s", Json.Float e.moves_per_s);
       ("move_cost_p50", Json.Float e.move_cost_p50);
       ("move_cost_p95", Json.Float e.move_cost_p95);
       ("seg_splits", Json.Int e.seg_splits);
       ("rebalances", Json.Int e.rebalances);
       ("scans_skipped", Json.Int e.scans_skipped);
       ("best_cost", Json.Int e.best_cost);
       ("tour_hash", Json.Int e.tour_hash);
     ]
    @
    match e.cert with
    | None -> []
    | Some (ok, cert_s) ->
        [ ("certified", Json.Bool ok); ("cert_s", Json.Float cert_s) ])

let doc ~variant ~family ~seed ~kicks ~k ~jobs ~repr entries =
  Json.Obj
    [
      ("schema", Json.String "solver-bench/3");
      ("commit", Json.String (Ba_harness.Bench_json.current_commit ()));
      ("date", Json.String (Ba_harness.Bench_json.now_utc ()));
      ("variant", Json.String variant);
      ("family", Json.String family);
      ("seed", Json.Int seed);
      ("kicks", Json.Int kicks);
      ("neighbors", Json.Int k);
      ("jobs", Json.Int jobs);
      (* solver-bench/3 keeps the field; there is one neighbor order *)
      ("mode", Json.String "select");
      ("repr", Json.String repr);
      ("entries", Json.List (List.map entry_json entries));
    ]

let () =
  let sizes = ref [ 64; 256; 1024; 4096 ]
  and kicks = ref 256
  and seed = ref 7
  and k = ref 12
  and family = ref None
  and jobs = ref 1
  and repr = ref Ba_tsp.Tour_repr.Auto
  and certify = ref false
  and variant = ref "heap-select"
  and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--sizes" :: v :: rest ->
        sizes := List.map int_of_string (String.split_on_char ',' v);
        parse rest
    | "--kicks" :: v :: rest -> kicks := int_of_string v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--neighbors" :: v :: rest -> k := int_of_string v; parse rest
    | "--family" :: "syn" :: rest -> family := None; parse rest
    | "--family" :: v :: rest -> (
        match Scale.find v with
        | Some f -> family := Some f; parse rest
        | None ->
            prerr_endline ("solver_bench: unknown family " ^ v);
            exit 2)
    | "--jobs" :: v :: rest -> jobs := int_of_string v; parse rest
    | "--repr" :: v :: rest -> (
        match Ba_tsp.Tour_repr.kind_of_string v with
        | Some r -> repr := r; parse rest
        | None ->
            prerr_endline ("solver_bench: unknown repr " ^ v);
            exit 2)
    | "--certify" :: rest -> certify := true; parse rest
    | "--variant" :: v :: rest -> variant := v; parse rest
    | "--json" :: v :: rest -> out := Some v; parse rest
    | a :: _ ->
        prerr_endline ("solver_bench: unknown argument " ^ a);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let exec = if !jobs <= 1 then Executor.Seq else Executor.Pool !jobs in
  let entries =
    List.map
      (fun n ->
        let e =
          run_size ~family:!family ~seed:!seed ~kicks:!kicks ~k:!k
            ~repr:!repr ~exec ~certify:!certify n
        in
        Printf.eprintf
          "n=%-6d %-9s build %.4fs  sym %.4fs  nbr %.4fs  opt %.3fs  %9.0f \
           moves/s  %9d live words  cost %d%s\n%!"
          n e.repr e.build_s e.sym_s e.nbr_s e.opt_s e.moves_per_s
          e.instance_words e.best_cost
          (match e.cert with
          | None -> ""
          | Some (true, cs) -> Printf.sprintf "  certified (%.3fs)" cs
          | Some (false, _) -> "  CERT FAILED");
        e)
      !sizes
  in
  let family_name =
    match !family with None -> "syn" | Some f -> Scale.name f
  in
  let j =
    doc ~variant:!variant ~family:family_name ~seed:!seed ~kicks:!kicks
      ~k:!k ~jobs:!jobs
      ~repr:(Ba_tsp.Tour_repr.kind_name !repr) entries
  in
  let failed =
    List.exists (fun e -> match e.cert with Some (false, _) -> true | _ -> false)
      entries
  in
  (match !out with
  | Some path -> Json.write_file path j
  | None -> print_endline (Json.to_string j));
  if failed then exit 1
