(* The workload registry, one measured iteration (set-up, pass,
   teardown) and the metrics derived from it. *)

module Metrics = Ba_obs.Metrics

module type WORKLOAD = sig
  type state

  (* The set-up of the [iteration]-th pass of a run. *)
  val setup : seed:int -> iteration:int -> state

  (* The measured phase, one Layer.in_unit per unit; returns the
     metrics only the workload can compute. *)
  val pass : state -> Tally.t -> (string * float) list

  (* Instances the pass solved by search. *)
  val standalone_instances : state -> Ba_align.Reduction.t list
  val teardown : state -> Tally.t -> unit
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("paper", (module Wl_paper));
    ("scale", (module Wl_scale));
    ("serve", (module Wl_serve));
  ]

(* Every metric with its unit.  The end-to-end set is the one every
   workload reports; the rest come from a traced run. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("align_s", "s");
    ("penalty_ratio", "ratio");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("bound_s", "s");
    ("cycles_ratio", "ratio");
    ("hk_gap_pct", "%");
    ("req_ms_p50", "ms");
    ("req_ms_p95", "ms");
    ("req_per_s", "1/s");
    ("fail_frac", "ratio");
    ("minic.compile_s", "s");
    ("minic.profile_s", "s");
    ("workloads.generate_s", "s");
    ("check.lint_s", "s");
    ("check.certify_s", "s");
    ("check.certs", "count");
    ("check.cert_failures", "count");
    ("align.reduce_s", "s");
    ("align.realize_s", "s");
    ("tsp.solve_s", "s");
    ("tsp.three_opt_s", "s");
    ("tsp.sym_s", "s");
    ("tsp.nbr_s", "s");
    ("tsp.kick_overhead_s", "s");
    ("tsp.kicks", "count");
    ("tsp.moves", "count");
    ("tsp.us_per_kick", "us");
    ("tsp.moves_per_s", "1/s");
    ("tsp.exact_frac", "ratio");
    ("tsp.two_level_move_frac", "ratio");
    ("tsp.rebalances", "count");
    ("hk.s", "s");
    ("hk.calls", "count");
    ("hk.ms_p50", "ms");
    ("hk.tight_frac", "ratio");
    ("machine.simulate_s", "s");
    ("serve.codec_s", "s");
    ("serve.server_ms_p50", "ms");
    ("serve.server_ms_p95", "ms");
    ("serve.cache_hit_frac", "ratio");
    ("serve.warm_frac", "ratio");
    ("serve.tsp_kicks", "count");
    ("serve.three_opt_s", "s");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.coverage_pct", "%");
    ("trace.overhead_pct", "%");
    ("ref.loop_ms", "ms");
  ]

type iteration = {
  setup_at : float;  (** when set-up started *)
  setup_s : float;
  wall_s : float;  (** the measured pass *)
  cpu_s : float;  (** processor time of the process during the pass *)
  values : (string * float) list;  (** every metric this pass yields *)
  spans : Ba_obs.Span.span array;  (** set-up, pass and standalone calls *)
  window : int64 * int64;  (** the pass, on the span clock *)
  tally : Tally.t;
  complete : bool;  (** no unit was skipped at the deadline *)
}

(* Metrics of the pass just run, from the layer accumulators, the
   program's own counters and the GC. *)
let derive ~setup ~wall ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
  let s = Layer.secs and c n = float_of_int (Metrics.get n) in
  let solved = Layer.calls "tsp.solve" > 0 in
  let served = Layer.calls "serve.rpc" > 0 in
  let three_opt = (c Metrics.Run_ns_array_repr +. c Metrics.Run_ns_two_level_repr) /. 1e9 in
  let kicks = c Metrics.Kicks and moves = c Metrics.Moves_2opt +. c Metrics.Moves_3opt in
  let heuristic = s "tsp.solve_heuristic" in
  let if_solved x = if solved then x else 0. in
  [
    ("run_s", wall);
    ("align_s", Layer.align_secs ());
    ("minic.compile_s", List.assoc "minic.compile" setup);
    ("minic.profile_s", List.assoc "minic.profile" setup);
    ("workloads.generate_s", List.assoc "workloads.generate" setup);
    ("check.lint_s", s "check.lint");
    ("check.certify_s", s "check.certify");
    ("check.certs", c Metrics.Certs_checked);
    ("check.cert_failures", c Metrics.Certs_failed);
    ("align.reduce_s", s "align.reduce");
    ("align.realize_s", s "align.realize");
    ("tsp.solve_s", s "tsp.solve");
    ("tsp.three_opt_s", if_solved three_opt);
    ("tsp.sym_s", s "tsp.sym");
    ("tsp.nbr_s", s "tsp.nbr");
    ( "tsp.kick_overhead_s",
      if_solved (heuristic -. s "tsp.sym" -. s "tsp.nbr" -. three_opt) );
    ("tsp.kicks", if_solved kicks);
    ("tsp.moves", if_solved moves);
    ("tsp.us_per_kick", if_solved (Layer.ratio heuristic kicks *. 1e6));
    ("tsp.moves_per_s", if_solved (Layer.ratio moves three_opt));
    ( "tsp.exact_frac",
      if_solved
        (Layer.ratio (c Metrics.Exact_solves)
           (c Metrics.Exact_solves +. c Metrics.Heuristic_solves)) );
    ( "tsp.two_level_move_frac",
      if_solved
        (Layer.ratio (c Metrics.Moves_two_level_repr)
           (c Metrics.Moves_array_repr +. c Metrics.Moves_two_level_repr)) );
    ("tsp.rebalances", if_solved (c Metrics.Segment_rebalances));
    ("hk.s", s "hk.bound");
    ("hk.calls", float_of_int (Layer.calls "hk.bound"));
    ("hk.ms_p50", Layer.median (Layer.samples "hk.bound") *. 1000.);
    ("machine.simulate_s", s "machine.simulate");
    ("serve.codec_s", s "serve.codec");
    ("serve.tsp_kicks", if served then kicks else 0.);
    ("serve.three_opt_s", if served then three_opt else 0.);
    ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
  ]

(* The solver's symmetrization and candidate lists, timed by calling
   them again on the pass's own instances. *)
let standalone instances =
  List.iter
    (fun inst ->
      let sym = Layer.call "tsp.sym" (fun () -> Ba_tsp.Sym.of_dtsp inst.Ba_align.Reduction.dtsp) in
      ignore
        (Layer.call "tsp.nbr" (fun () ->
             Ba_tsp.Neighbors.of_sym sym ~k:Ba_tsp.Iterated.default.Ba_tsp.Iterated.neighbors)))
    instances

(* One set-up, pass and teardown.  With [traced], every layer call is
   recorded as a span and the standalone tsp calls run after the pass. *)
let iterate (module W : WORKLOAD) ~seed ~iteration ~traced =
  let spans = if traced then Ba_obs.Span.create ~task:0 ~enabled:true else Ba_obs.Span.null in
  Layer.reset ~spans ();
  Reference.tick ();
  let t0 = Unix.gettimeofday () in
  let st = W.setup ~seed ~iteration in
  let setup_s = Unix.gettimeofday () -. t0 in
  let setup =
    List.map (fun n -> (n, Layer.secs n)) [ "minic.compile"; "minic.profile"; "workloads.generate" ]
  in
  Layer.reset ~spans ();
  Metrics.reset ();
  let tally = Tally.create () in
  Layer.skipped := false;
  (* every pass starts from a compacted heap, so that the heap peak
     does not depend on the garbage set-up left *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t1 = Unix.gettimeofday () and c1 = Sys.time () and w0 = Ba_obs.Mono.now_ns () in
  let own = W.pass st tally in
  let wall_s = Unix.gettimeofday () -. t1 and w1 = Ba_obs.Mono.now_ns () in
  let cpu_s = Sys.time () -. c1 in
  let gc1 = Gc.quick_stat () in
  if traced then standalone (W.standalone_instances st);
  let derived = derive ~setup ~wall:wall_s ~gc0 ~gc1 in
  W.teardown st tally;
  (* the workload's own figures override the generic ones *)
  let values = own @ List.filter (fun (k, _) -> not (List.mem_assoc k own)) derived in
  {
    setup_at = t0;
    setup_s;
    wall_s;
    cpu_s;
    values;
    spans = Ba_obs.Span.spans spans;
    window = (w0, w1);
    tally;
    complete = not !Layer.skipped;
  }

(* Set-up alone, for the extra set-up samples: its start and
   duration. *)
let setup_only (module W : WORKLOAD) ~seed ~iteration =
  Layer.reset ();
  Reference.tick ();
  let t0 = Unix.gettimeofday () in
  let st = W.setup ~seed ~iteration in
  let dt = Unix.gettimeofday () -. t0 in
  W.teardown st (Tally.create ());
  (t0, dt)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.
