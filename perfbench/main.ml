(* perfbench — the repository's benchmark.

     main.exe --workload paper|scale|serve --seed N --seconds S --trace 0|1

   --trace 0 repeats set-up + pass for S seconds and reports the
   end-to-end metrics, scaled to the reference speed (per unit of a
   pass, the lower quartile of its samples, summed; set-up is the
   median of at least five).  --trace 1 runs a warm-up, an untraced
   and a traced iteration and reports the per-layer metrics; it
   writes perfbench/_out/<workload>.trace.json (Chrome trace_event)
   and perfbench/_out/<workload>.layers.txt (self time per span
   name).

   Human-readable lines go first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}.  Every layout the
   program produces is checked; the exit code is 1 when any check
   failed, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|scale|serve --seed N --seconds S --trace 0|1";
  exit 2

let min_setups = 5
let min_setup_s = 1.0

(* The workload-level figures each pass may add to the end-to-end set
   (printed for reading, carried in the traced run's JSON). *)
let workload_level = [ "bound_s"; "cycles_ratio"; "hk_gap_pct"; "req_ms_p50"; "req_ms_p95"; "req_per_s" ]

let unit_of name =
  match List.assoc_opt name Bench.end_to_end with
  | Some u -> u
  | None -> List.assoc name Bench.per_layer

let fmt_value v = Printf.sprintf "%.17g" v

let result_line ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_value v) (unit_of name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " m)

let print_human metrics =
  List.iter (fun (name, v) -> Printf.printf "  %-26s %14.6f %s\n" name v (unit_of name)) metrics

let value (it : Bench.iteration) name = List.assoc name it.Bench.values

let fail_frac ~attempted ~failed = Layer.ratio (float_of_int failed) (float_of_int attempted)

let tallies iters =
  List.fold_left
    (fun (a, f) (it : Bench.iteration) -> (a + it.Bench.tally.Tally.attempted, f + it.Bench.tally.Tally.failed))
    (0, 0) iters

(* Each unit's values of [field], by unit. *)
let by_unit field (samples : Layer.sample list) =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (u : Layer.sample) ->
      let xs = Option.value ~default:[] (Hashtbl.find_opt by_key u.key) in
      Hashtbl.replace by_key u.key (field u :: xs))
    samples;
  by_key

(* The lower quartile of each unit's samples, summed over the units. *)
let sum_of_quartiles field samples =
  Hashtbl.fold (fun _ xs acc -> acc +. Layer.quantile 0.25 xs) (by_unit field samples) 0.

let sample_counts samples =
  Hashtbl.fold
    (fun _ xs (lo, hi) -> (min lo (List.length xs), max hi (List.length xs)))
    (by_unit (fun u -> u.Layer.wall) samples)
    (max_int, 0)

(* --trace 0: end-to-end metrics, tracing off.  Set-up + pass repeat
   until [seconds] have gone by; a pass stops at the first unit that
   would start later, except the first two passes, which always
   complete.  The first pass warms the process up and is not timed.
   Every timing is scaled to the machine's reference speed
   (Reference).  run_s and align_s sum, over the units of a pass, the
   lower quartile of each unit's scaled samples in the later passes:
   load from other programs that the scaling misses only ever adds
   time, and it comes in bursts, so it moves only the samples it
   overlaps, and the lower quartile least of all.  setup_s is the
   median of at least [min_setups] scaled set-ups, and of at least
   [min_setup_s] seconds of them.  The quality figures and the heap
   peak come from the first pass: the heap peak would otherwise depend
   on how many passes fit, and on serve the retired server domains of
   earlier passes make it drift by several MB. *)
let measure (module W : Bench.WORKLOAD) ~name ~seed ~seconds =
  let w = (module W : Bench.WORKLOAD) in
  Layer.clear_units ();
  Reference.clear ();
  Reference.enabled := true;
  let stop = Unix.gettimeofday () +. seconds in
  let heap = ref 0. in
  let rec loop acc k =
    if k >= 2 && Unix.gettimeofday () >= stop then List.rev acc
    else begin
      Layer.deadline := if k < 2 then infinity else stop;
      let it = Bench.iterate w ~seed ~iteration:k ~traced:false in
      Layer.deadline := infinity;
      if k = 0 then begin
        heap := Bench.heap_peak_mb ();
        Layer.clear_units ()
      end;
      Printf.eprintf "perfbench: %s pass %d: %.3f s (processor %.3f s)%s\n%!" name (k + 1)
        it.Bench.wall_s it.Bench.cpu_s
        (if it.Bench.complete then "" else " (cut at the deadline)");
      loop (it :: acc) (k + 1)
    end
  in
  let iters = loop [] 0 in
  let rec more_setups acc spent =
    let k = List.length iters + List.length acc in
    if k >= min_setups && spent >= min_setup_s then List.rev acc
    else
      let at, dt = Bench.setup_only w ~seed ~iteration:k in
      more_setups ((at, dt) :: acc) (spent +. dt)
  in
  let setups = List.map (fun it -> (it.Bench.setup_at, it.Bench.setup_s)) iters in
  let setups = setups @ more_setups [] (List.fold_left (fun a (_, dt) -> a +. dt) 0. setups) in
  Reference.enabled := false;
  let complete = List.filter (fun it -> it.Bench.complete) iters in
  let first = List.hd iters in
  let units = !Layer.units in
  let scaled =
    List.map
      (fun (u : Layer.sample) ->
        let f = Reference.scale_at u.at in
        { u with wall = u.wall *. f; align = u.align *. f })
      units
  in
  let attempted, failed = tallies iters in
  let e2e =
    [
      ("setup_s", Layer.median (List.map (fun (at, dt) -> dt *. Reference.scale_at at) setups));
      ("run_s", sum_of_quartiles (fun u -> u.Layer.wall) scaled);
      ("align_s", sum_of_quartiles (fun u -> u.Layer.align) scaled);
      ("penalty_ratio", value first "penalty_ratio");
      ("heap_peak_mb", !heap);
    ]
  in
  let own = List.filter (fun n -> List.mem_assoc n first.Bench.values) workload_level in
  let lo, hi = sample_counts units in
  Printf.printf
    "perfbench %s seed %d: %d passes (%d complete, the first untimed), %d to %d samples per \
     unit, %d set-ups\n"
    name seed (List.length iters) (List.length complete) lo hi (List.length setups);
  print_human
    (e2e
    @ List.map (fun n -> (n, Layer.median (List.map (fun it -> value it n) complete))) own
    @ [ ("fail_frac", fail_frac ~attempted ~failed) ]);
  Printf.printf
    "  unscaled: setup %.6f s, run %.6f s, align %.6f s; reference loop %.3f ms (median of \
     %d, nominal %.0f ms)\n"
    (Layer.median (List.map snd setups))
    (sum_of_quartiles (fun u -> u.Layer.wall) units)
    (sum_of_quartiles (fun u -> u.Layer.align) units)
    (Reference.median_of (List.map snd !Reference.samples) *. 1000.)
    (List.length !Reference.samples) (Reference.nominal_s *. 1000.);
  (e2e, attempted, failed)

(* Span time at the root of the trace tree inside the pass, as a
   share of the pass. *)
let coverage_pct (it : Bench.iteration) =
  let w0, w1 = it.Bench.window in
  let covered =
    Array.fold_left
      (fun acc (s : Ba_obs.Span.span) ->
        if s.parent < 0 && s.start_ns >= w0 && s.stop_ns <= w1 then
          Int64.add acc (Ba_obs.Span.duration_ns s)
        else acc)
      0L it.Bench.spans
  in
  Int64.to_float covered /. Int64.to_float (Int64.sub w1 w0) *. 100.

let write_layers path (it : Bench.iteration) =
  let rows = Layer.self_times it.Bench.spans in
  let oc = open_out path in
  let line fmt = Printf.ksprintf (fun s -> output_string oc s; prerr_string s) fmt in
  line "%-24s %8s %12s %12s %8s\n" "span" "calls" "total_s" "self_s" "self_%";
  List.iter
    (fun (name, calls, total, self) ->
      line "%-24s %8d %12.6f %12.6f %8.2f\n" name calls total self
        (self /. it.Bench.wall_s *. 100.))
    rows;
  close_out oc

(* --trace 1: per-layer metrics from a traced iteration; an untraced
   one before it gives the tracing overhead.  A first untraced
   iteration warms the process up, so that both are warm. *)
let trace w ~name ~seed =
  let out = Filename.concat "perfbench" "_out" in
  let warm = Bench.iterate w ~seed ~iteration:0 ~traced:false in
  let base = Bench.iterate w ~seed ~iteration:0 ~traced:false in
  let it = Bench.iterate w ~seed ~iteration:0 ~traced:true in
  let attempted, failed = tallies [ warm; base; it ] in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  Ba_obs.Trace.clear ();
  Ba_obs.Trace.add_task ~label:name ~task:0 it.Bench.spans;
  Ba_obs.Trace.write_chrome (Filename.concat out (name ^ ".trace.json"));
  write_layers (Filename.concat out (name ^ ".layers.txt")) it;
  let extra =
    [
      ("fail_frac", fail_frac ~attempted ~failed);
      ("trace.coverage_pct", coverage_pct it);
      ("trace.overhead_pct", (it.Bench.wall_s /. base.Bench.wall_s -. 1.) *. 100.);
      ("ref.loop_ms", Reference.loop_ms 9);
    ]
  in
  let metrics =
    List.map
      (fun (n, _) ->
        match List.assoc_opt n extra with
        | Some v -> (n, v)
        | None -> (n, Option.value ~default:0. (List.assoc_opt n it.Bench.values)))
      Bench.per_layer
  in
  Printf.printf "perfbench %s seed %d: traced pass %.3f s, untraced %.3f s\n" name seed
    it.Bench.wall_s base.Bench.wall_s;
  print_human metrics;
  (metrics, attempted, failed)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and traced = ref None in
  let int_arg r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg traced v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload Bench.workloads, !seed, !seconds, !traced) with
  | Some w, Some seed, Some seconds, Some t when seconds > 0 && (t = 0 || t = 1) ->
      let metrics, attempted, failed =
        if t = 0 then measure w ~name:!workload ~seed ~seconds:(float_of_int seconds)
        else trace w ~name:!workload ~seed
      in
      result_line ~attempted ~failed metrics;
      if failed > 0 then exit 1
  | _ -> usage ()
