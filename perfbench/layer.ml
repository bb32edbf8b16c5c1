(* Calls into the program's layers, timed from outside the program.

   Every call the benchmark makes into a library under lib/ goes
   through [call].  It charges the call's wall time to an accumulator
   named "<layer>.<what>" and, while a traced pass runs, records a
   Ba_obs.Span of the same name.  The layer is the library's
   directory name (minic, workloads, check, align, tsp, machine,
   serve), except that the Held–Karp bound gets its own layer, hk. *)

type acc = { mutable secs : float; mutable calls : int; mutable samples : float list }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
let buf = ref Ba_obs.Span.null

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
      let a = { secs = 0.; calls = 0; samples = [] } in
      Hashtbl.add accs name a;
      a

let charge name dt =
  let a = acc name in
  a.secs <- a.secs +. dt;
  a.calls <- a.calls + 1;
  a.samples <- dt :: a.samples

let last = ref 0.

(* [call name f] is [f ()], timed and charged to [name]; [!last] is
   then its duration. *)
let call name f =
  let t0 = Unix.gettimeofday () in
  let r = Ba_obs.Span.with_span !buf name f in
  last := Unix.gettimeofday () -. t0;
  charge name !last;
  r

let secs name = match Hashtbl.find_opt accs name with Some a -> a.secs | None -> 0.
let calls name = match Hashtbl.find_opt accs name with Some a -> a.calls | None -> 0
let samples name = match Hashtbl.find_opt accs name with Some a -> a.samples | None -> []

(* ---- units: the pieces of a pass, timed one by one ---- *)

(* The accumulators whose sum is the align time: what `balign align`
   costs on paper and scale, and the request round trip on serve. *)
let align_parts =
  [ "check.lint"; "align.reduce"; "tsp.solve"; "align.realize"; "machine.addr"; "serve.rpc" ]

let align_secs () = List.fold_left (fun acc n -> acc +. secs n) 0. align_parts

type sample = { key : string; at : float; wall : float; align : float }

(* Every unit run since the last [clear_units], newest first. *)
let units : sample list ref = ref []

(* Once [deadline] has passed, a pass starts no further unit (no
   further program on paper) and [skipped] marks it incomplete. *)
let deadline = ref infinity
let skipped = ref false

let before_deadline () =
  if Unix.gettimeofday () < !deadline then true
  else begin
    skipped := true;
    false
  end

let clear_units () = units := []

(* [in_unit key f] runs one unit of a pass (a procedure, the lint or
   the simulations of a program, a family, a request) and records its
   start, wall and align time under [key]. *)
let in_unit key f =
  Reference.tick ();
  let a0 = align_secs () and t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  units := { key; at = t0; wall; align = align_secs () -. a0 } :: !units;
  r

(* Start a new accounting scope: zero every accumulator.  [spans] is
   the buffer the scope's calls record into (the shared disabled one
   for untraced work). *)
let reset ?(spans = Ba_obs.Span.null) () =
  Hashtbl.reset accs;
  buf := spans

(* ---- statistics over samples ---- *)

(* The "exclusive" method of Python's statistics.quantiles, clamped
   at the ends, so that a reader's own figures match the ones printed. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | [ x ] -> x
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let h = q *. float_of_int (n + 1) in
      let j = truncate h in
      if j < 1 then a.(0)
      else if j >= n then a.(n - 1)
      else a.(j - 1) +. ((h -. float_of_int j) *. (a.(j) -. a.(j - 1)))

let median xs = quantile 0.5 xs

let ratio a b = if b > 0. then a /. b else 0.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun s x -> s +. log x) 0. xs
        /. float_of_int (List.length xs))

(* ---- self time from a span buffer ---- *)

(* Per span name: calls, total seconds and self seconds (the span's
   duration minus that of its direct children), in first-seen order. *)
let self_times (spans : Ba_obs.Span.span array) =
  let child = Hashtbl.create 64 in
  Array.iter
    (fun (s : Ba_obs.Span.span) ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add (Ba_obs.Span.duration_ns s)
             (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    spans;
  let rows = Hashtbl.create 32 and order = ref [] in
  Array.iter
    (fun (s : Ba_obs.Span.span) ->
      let d = Ba_obs.Span.duration_ns s in
      let self = Int64.sub d (Option.value ~default:0L (Hashtbl.find_opt child s.id)) in
      let c, t, sf =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace rows s.name (c + 1, Int64.add t d, Int64.add sf self))
    spans;
  List.rev_map
    (fun name ->
      let c, t, sf = Hashtbl.find rows name in
      (name, c, Int64.to_float t /. 1e9, Int64.to_float sf /. 1e9))
    !order
