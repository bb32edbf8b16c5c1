(* The machine's speed, from a fixed loop timed between the units of a
   pass.

   On a shared machine the same code runs faster or slower by a fifth
   and more from one minute to the next, as other tenants' load comes
   and goes; processor time drifts with wall time, so it is the speed
   of the processor, not waiting.  The loop below runs no code of the
   program.  Every [interval_s] seconds, before a unit starts, it runs
   once to warm its caches and once timed.  A unit's time, multiplied
   by [scale_at] its start, is then its time on a machine that runs the
   loop in [nominal_s] seconds: the drift comes out, and a change to
   the program still shows in full. *)

(* About what the loop takes on an idle 2-core Xeon; it only sets the
   scale of the figures. *)
let nominal_s = 0.010
let interval_s = 0.5

(* Sampling is on only while --trace 0 measures. *)
let enabled = ref false

let ints = Array.init 16384 (fun i -> ((i * 7919) + 13) land 16383)
let stores = Array.make 1024 0
let floats = Array.make_matrix 96 96 0.
let copy = Array.make 20000 0

(* Pointer chasing with stores, a dense float sweep and a block copy,
   the kinds of work the layers do, on data that fits in the caches.
   It allocates nothing and does the same work every time. *)
let loop () =
  let n = Array.length ints in
  let x = ref 1 and s = ref 0 in
  for i = 1 to 1_000_000 do
    let y = Array.unsafe_get ints !x in
    s := !s + (y lxor i);
    if !s land 7 = 3 then Array.unsafe_set stores (y land 1023) !s;
    x := (y + i) land (n - 1)
  done;
  let lo = ref 0. in
  for r = 1 to 40 do
    for i = 0 to 95 do
      let row = floats.(i) in
      for j = 0 to 95 do
        let v = row.(j) +. float_of_int (((i * j) + r) land 15) in
        if v < !lo then lo := v;
        row.(j) <- v *. 0.5
      done
    done
  done;
  for r = 1 to 40 do
    Array.blit ints 0 copy r 16000
  done;
  !s + truncate !lo + copy.(100)

(* (start, seconds) of every timed loop since [clear], newest first *)
let samples : (float * float) list ref = ref []
let last = ref neg_infinity

let clear () =
  samples := [];
  last := neg_infinity

let time_loop () =
  ignore (Sys.opaque_identity (loop ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (loop ()));
  let t1 = Unix.gettimeofday () in
  last := t1;
  (t0, t1 -. t0)

(* Call before a unit starts: times the loop when sampling is on and
   [interval_s] has passed since the last time. *)
let tick () =
  if !enabled && Unix.gettimeofday () -. !last >= interval_s then
    samples := time_loop () :: !samples

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nominal_s
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [nominal_s] over the median of the five loop times taken nearest to
   [t]; 1 without any. *)
let scale_at t =
  match !samples with
  | [] -> 1.
  | all ->
      let by_distance =
        List.sort (fun (a, _) (b, _) -> compare (Float.abs (a -. t)) (Float.abs (b -. t))) all
      in
      nominal_s /. median_of (List.filteri (fun i _ -> i < 5) by_distance |> List.map snd)

(* The loop's median time over [n] runs, in milliseconds. *)
let loop_ms n = median_of (List.init n (fun _ -> snd (time_loop ()))) *. 1000.
