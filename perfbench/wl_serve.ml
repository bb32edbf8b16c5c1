(* serve: one closed-loop client against the in-process daemon
   (Serve_driver: the server loop on its own domain, the client on
   this one), default Server.config, no deadline.  The client sends a
   seeded trace of align requests and waits for each reply before it
   sends the next.  A third of the requests each: a repeat of an
   earlier (CFG, profile) pair (a cache hit), the same CFG with a new
   profile (drift: a warm start), or a new CFG of 8–71 blocks from a
   fixed Synthetic corpus (a cold solve). *)

module Wire = Ba_serve.Wire
module Serve_driver = Ba_harness.Serve_driver
module Synthetic = Ba_harness.Synthetic
module Profile = Ba_profile.Profile
module Certify = Ba_check.Certify
module Metrics = Ba_obs.Metrics

let model = Ba_serve.Server.default.Ba_serve.Server.model

(* Two thirds of the requests are distinct pairs; 160 fit the default
   cache (256 entries), so every repeat must be a hit. *)
let n_requests = 240

type request = {
  pair : int;  (** index of the (CFG, profile) pair *)
  repeat : bool;  (** the pair was sent before: the reply must be cached *)
  cfg : Ba_cfg.Cfg.t;
  profile : Profile.proc;
  orig : int;  (** penalty of the original layout *)
}

type state = { trace : request array; server : Serve_driver.t }

let profile rng cfg =
  Synthetic.profile rng cfg ~invocations:100 ~max_steps:(8 * Ba_cfg.Cfg.n_blocks cfg)

let penalty cfg prof =
  Layer.call "align.baseline" (fun () ->
      Ba_align.Evaluate.proc_penalty model cfg ~order:(Ba_cfg.Layout.identity cfg)
        ~train:prof ~test:prof)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The procedures the traces draw their new CFGs from: one per new
   request, of sizes 8..71 in turn, the same for every seed (like one
   code base under changing traffic).  Each admits drift: two sample
   profiles differ and both leave a nonzero original penalty. *)
let corpus () =
  let rng = Random.State.make [| 0xc0de |] in
  Array.init (n_requests / 3) (fun i ->
      let n = 8 + (i mod 64) in
      let rec pick () =
        let cfg = Synthetic.cfg rng ~n in
        let p1 = profile rng cfg and p2 = profile rng cfg in
        if
          penalty cfg p1 > 0 && penalty cfg p2 > 0
          && Ba_serve.Cache.profile_sketch p1 <> Ba_serve.Cache.profile_sketch p2
        then cfg
        else pick ()
      in
      pick ())

(* The seeded trace: the corpus in a seeded order, the three kinds in
   exact thirds, shuffled, and seeded profiles.  Drift goes to the
   least-drifted CFG sent so far, so that seeds differ in which
   requests they send but hardly in how much work they ask for.  Every
   pair has a nonzero original penalty, and a drift profile differs
   from every earlier profile of its CFG (by the cache's own sketch),
   so drift is never a hidden cache hit. *)
let trace ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let cfgs = shuffle rng (corpus ()) in
  let kinds = shuffle rng (Array.init n_requests (fun i -> i mod 3)) in
  (* the first request cannot be a repeat or a drift *)
  let first_new = ref 0 in
  while kinds.(!first_new) <> 2 do incr first_new done;
  kinds.(!first_new) <- kinds.(0);
  kinds.(0) <- 2;
  let sketches = Array.make (Array.length cfgs) [] in
  (* a profile of CFG [c] with a nonzero original penalty, unlike every
     earlier one of [c] *)
  let rec fresh_profile c tries =
    if tries = 0 then None
    else
      let prof = profile rng cfgs.(c) in
      let sk = Ba_serve.Cache.profile_sketch prof in
      let orig = penalty cfgs.(c) prof in
      if orig = 0 || List.mem sk sketches.(c) then fresh_profile c (tries - 1)
      else begin
        sketches.(c) <- sk :: sketches.(c);
        Some (prof, orig)
      end
  in
  let pairs = ref [||] and sent = ref 0 in
  let drifts = Array.make (Array.length cfgs) 0 in
  let add_pair c = function
    | None -> failwith "serve trace: no new profile for a corpus CFG"
    | Some (prof, orig) ->
        let r = { pair = Array.length !pairs; repeat = false; cfg = cfgs.(c); profile = prof; orig } in
        pairs := Array.append !pairs [| r |];
        r
  in
  let rec drift () =
    (* [max_int] marks a CFG that admits no new profile *)
    let least = Array.fold_left min max_int (Array.sub drifts 0 !sent) in
    if least = max_int then failwith "serve trace: no CFG admits a new profile";
    let candidates = List.filter (fun c -> drifts.(c) = least) (List.init !sent Fun.id) in
    let c = List.nth candidates (Random.State.int rng (List.length candidates)) in
    match fresh_profile c 16 with
    | Some _ as p ->
        drifts.(c) <- drifts.(c) + 1;
        add_pair c p
    | None ->
        drifts.(c) <- max_int;
        drift ()
  in
  Array.map
    (function
      | 0 -> { !pairs.(Random.State.int rng (Array.length !pairs)) with repeat = true }
      | 1 -> drift ()
      | _ ->
          let c = !sent in
          incr sent;
          add_pair c (fresh_profile c 16))
    kinds

(* Every pass of a run sends the seed's trace to a fresh server, so
   that request i asks for the same work in every pass: a unit is one
   request. *)
let setup ~seed ~iteration:_ =
  let trace = Layer.call "workloads.generate" (fun () -> trace ~seed) in
  let server = Layer.call "serve.start" (fun () -> Serve_driver.start ()) in
  { trace; server }

(* One request, from encoding to the decoded reply. *)
let rpc st id (r : request) =
  let frame =
    Layer.call "serve.codec" (fun () ->
        Wire.encode_frame
          (Wire.request_to_string
             (Wire.Align
                { id; cfg = r.cfg; profile = r.profile; options = Wire.default_options })))
  in
  match
    Layer.call "serve.rpc" (fun () ->
        Serve_driver.send_raw st.server frame;
        Serve_driver.recv st.server)
  with
  | Wire.Frame payload ->
      Layer.call "serve.codec" (fun () -> Wire.response_of_string payload)
  | _ -> Error "no reply frame"

let pass st tally =
  let first = Hashtbl.create 64 in
  let latencies = ref [] and ratios = ref [] in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun id (r : request) ->
      if Layer.before_deadline () then
      Layer.in_unit (string_of_int id) @@ fun () ->
      ignore
        (Tally.op tally (Printf.sprintf "request %d" id) (fun fail ->
             let t = Unix.gettimeofday () in
             let reply = rpc st id r in
             latencies := (Unix.gettimeofday () -. t) *. 1000. :: !latencies;
             match reply with
             | Ok (Wire.C_ok { id = rid; payload = p }) ->
                 if rid <> id then fail (Printf.sprintf "reply id %d" rid);
                 if p.Wire.fallbacks > 0 then fail "fallback";
                 (match
                    Layer.call "check.certify" (fun () ->
                        Certify.proc_cert ~claimed:p.Wire.cost ~hk:Certify.Skip
                          ~sym_check:false ~proc:0 model r.cfg ~profile:r.profile
                          ~order:p.Wire.layout)
                  with
                 | Ok _ -> ()
                 | Error e -> fail ("certify: " ^ Certify.error_to_string e));
                 (if not r.repeat then Hashtbl.replace first r.pair p.Wire.layout
                  else
                    match Hashtbl.find_opt first r.pair with
                    | None -> fail "repeat of a pair that got no layout"
                    | Some layout ->
                        if not p.Wire.cached then fail "repeat not served from the cache";
                        if p.Wire.layout <> layout then fail "repeat returned another layout");
                 if not r.repeat then
                   ratios := (float_of_int p.Wire.cost /. float_of_int r.orig) :: !ratios
             | Ok (Wire.C_error { error; _ }) -> fail ("error reply: " ^ error.Wire.emessage)
             | Ok _ -> fail "unexpected reply"
             | Error m -> fail m)))
    st.trace;
  let wall = Unix.gettimeofday () -. t0 in
  let lat = Metrics.latency () in
  let share c = Layer.ratio (float_of_int (Metrics.get c)) (float_of_int (Metrics.get Metrics.Serve_requests)) in
  [
    ("penalty_ratio", Layer.mean !ratios);
    ("req_ms_p50", Layer.median !latencies);
    ("req_ms_p95", Layer.quantile 0.95 !latencies);
    ("req_per_s", float_of_int (Array.length st.trace) /. wall);
    ("serve.server_ms_p50", lat.Metrics.p50_ms);
    ("serve.server_ms_p95", lat.Metrics.p95_ms);
    ("serve.cache_hit_frac", share Metrics.Serve_cache_hits);
    ("serve.warm_frac", share Metrics.Serve_warm_starts);
  ]

let standalone_instances _ = []

let teardown st tally =
  ignore
    (Tally.op tally "server stop" (fun fail ->
         match Serve_driver.stop st.server with
         | Ok _ -> ()
         | Error e -> fail ("server loop raised " ^ Printexc.to_string e)))
