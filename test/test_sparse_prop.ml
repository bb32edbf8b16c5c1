(* Differential suite for the sparse cost core: the CSR representation
   ({!Ba_tsp.Dtsp}), the implicit symmetrization ({!Ba_tsp.Sym}) and the
   sparse candidate-list construction ({!Ba_tsp.Neighbors}) must be
   observationally identical to the dense references in
   {!Ba_testutil.Dense} — same cost oracle on every pair, the canonical
   neighbor lists, the same solver trajectory on every encoding of one
   matrix — on random matrices, random CFG-derived instances and the
   real workload instances. *)

open Ba_tsp
open Ba_cfg
module Profile = Ba_profile.Profile
module Cost = Ba_machine.Cost
module Reduction = Ba_align.Reduction
module Dense = Ba_testutil.Dense

let penalties = Ba_machine.Model.alpha21164
let gen_seed = QCheck2.Gen.int_bound 1_000_000

(* ---------------- dense references ---------------- *)

(* a third encoding of the same logical matrix: each row's default is
   its off-diagonal minimum, so nearly every column becomes explicit *)
let row_min_encoding (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let row = Array.make n 0 in
  let default = Array.make n 0 in
  let rows =
    Array.init n (fun i ->
        Dtsp.blit_row d i row;
        let mn = ref max_int in
        Array.iteri (fun j c -> if j <> i && c < !mn then mn := c) row;
        default.(i) <- !mn;
        List.init n (fun j -> (j, row.(j))))
  in
  Dtsp.of_rows ~n ~default rows

let max_offdiag m =
  let n = Array.length m in
  let mx = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && m.(i).(j) > !mx then mx := m.(i).(j)
    done
  done;
  !mx

(* ---------------- generators ---------------- *)

let random_cfg_profile seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 24 in
  let g = Ba_testutil.Gen.cfg rng ~n in
  let prof =
    Ba_testutil.Gen.profile_of ~seed:(seed + 1) g
      ~invocations:(1 + Random.State.int rng 40)
      ~max_steps:100
  in
  (g, Profile.proc prof 0)

(* random dense matrix with clustered values so per-row defaults and
   ties actually occur, plus an arbitrary (nonzero) diagonal *)
let random_matrix seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 14 in
  let palette = [| 0; 3; 3; 7; 50; Random.State.int rng 1000 |] in
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          palette.(Random.State.int rng (Array.length palette))))

(* ---------------- properties ---------------- *)

let check_oracle ~what d dense =
  let n = Array.length dense in
  if d.Dtsp.n <> n then
    QCheck2.Test.fail_reportf "%s: n %d <> %d" what d.Dtsp.n n;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let got = Dtsp.cost d i j in
      if got <> dense.(i).(j) then
        QCheck2.Test.fail_reportf "%s: cost(%d,%d) = %d, want %d" what i j
          got
          dense.(i).(j)
    done
  done;
  if Dtsp.max_cost d <> max_offdiag dense then
    QCheck2.Test.fail_reportf "%s: max_cost %d, want %d" what
      (Dtsp.max_cost d) (max_offdiag dense);
  true

let prop_make_oracle =
  QCheck2.Test.make ~count:300 ~name:"make reproduces the dense matrix"
    gen_seed (fun seed ->
      let m = random_matrix seed in
      check_oracle ~what:"make" (Dtsp.make m) m)

let prop_reduction_oracle =
  QCheck2.Test.make ~count:200
    ~name:"sparse reduction = dense reduction on every (i,j)" gen_seed
    (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, forbid = Dense.reduction penalties g ~profile:prof in
      if inst.Reduction.forbid <> forbid then
        QCheck2.Test.fail_reportf "forbid %d, want %d" inst.Reduction.forbid
          forbid;
      check_oracle ~what:"reduction" inst.Reduction.dtsp dense)

let prop_sym_oracle =
  QCheck2.Test.make ~count:200
    ~name:"implicit Sym.cost = dense symmetric matrix" gen_seed (fun seed ->
      let d = Dtsp.make (random_matrix seed) in
      let s = Sym.of_dtsp d in
      let dense = Dense.sym d in
      let nn = s.Sym.nn in
      for a = 0 to nn - 1 do
        for b = 0 to nn - 1 do
          if Sym.cost s a b <> dense.(a).(b) then
            QCheck2.Test.fail_reportf "sym cost(%d,%d) = %d, want %d" a b
              (Sym.cost s a b)
              dense.(a).(b)
        done
      done;
      true)

let check_neighbors ~what (d : Dtsp.t) =
  let s = Sym.of_dtsp d in
  let dense = Dense.sym d in
  List.for_all
    (fun k ->
      let got = Neighbors.of_sym s ~k in
      let want =
        Dense.neighbors ~nn:s.Sym.nn ~inf:s.Sym.inf
          (fun a b -> dense.(a).(b))
          ~k
      in
      Array.iteri
        (fun a w ->
          if got.(a) <> w then
            QCheck2.Test.fail_reportf
              "%s: neighbor list of city %d differs at k=%d (got %s, want \
               %s)"
              what a k
              (String.concat ","
                 (Array.to_list (Array.map string_of_int got.(a))))
              (String.concat ","
                 (Array.to_list (Array.map string_of_int w))))
        want;
      true)
    [ 3; 8; 12 ]

let prop_neighbors_random =
  QCheck2.Test.make ~count:150
    ~name:"neighbor lists identical to dense scan (random)" gen_seed
    (fun seed -> check_neighbors ~what:"random" (Dtsp.make (random_matrix seed)))

let prop_neighbors_reduction =
  QCheck2.Test.make ~count:150
    ~name:"neighbor lists identical to dense scan (reduction)" gen_seed
    (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      check_neighbors ~what:"reduction" inst.Reduction.dtsp)

let prop_solve_identical =
  QCheck2.Test.make ~count:60
    ~name:"Iterated.solve tours bit-identical across constructions"
    gen_seed (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, _ = Dense.reduction penalties g ~profile:prof in
      let t1, s1 = Iterated.solve inst.Reduction.dtsp in
      List.iter
        (fun (what, d) ->
          let t2, s2 = Iterated.solve d in
          if t1 <> t2 then QCheck2.Test.fail_reportf "%s: tours differ" what;
          if s1 <> s2 then
            QCheck2.Test.fail_reportf "%s: solver stats differ" what)
        [
          ("dense", Dtsp.make dense);
          ("row-min", row_min_encoding inst.Reduction.dtsp);
        ];
      true)

(* ---------------- Held–Karp ---------------- *)

(* a random DTSP: a clustered random matrix or a random CFG's reduction *)
let random_dtsp seed =
  if seed mod 2 = 0 then Dtsp.make (random_matrix seed)
  else
    let g, prof = random_cfg_profile seed in
    (Reduction.build penalties g ~profile:prof).Reduction.dtsp

(* potentials: all zero (every equal cost ties), or a random mix of
   integral values (ties survive) and fractional ones, both within
   ±(max_cost + 1) so that no forbidden pair can undercut a cross pair *)
let random_pis seed (d : Dtsp.t) =
  let rng = Random.State.make [| seed; 7 |] in
  let nn = 2 * d.Dtsp.n and r = Dtsp.max_cost d + 1 in
  let draw () =
    let x = Random.State.int rng ((2 * r) + 1) - r in
    if Random.State.bool rng then float_of_int x
    else float_of_int x +. Random.State.float rng 1.0
  in
  Array.make nn 0.0 :: List.init 4 (fun _ -> Array.init nn (fun _ -> draw ()))

let prop_hk_kernel_oracle =
  QCheck2.Test.make ~count:200
    ~name:"1-tree kernel = dense 1-tree (weight bits and degrees)" gen_seed
    (fun seed ->
      let d = random_dtsp seed in
      let k = Held_karp.kernel (Sym.of_dtsp d) in
      let nn = 2 * d.Dtsp.n and flat = Dense.sym_flat d in
      List.iteri
        (fun p pi ->
          let w, deg = Held_karp.one_tree k pi in
          let w', deg' = Dense.one_tree ~n:nn flat pi in
          if Int64.bits_of_float w <> Int64.bits_of_float w' then
            QCheck2.Test.fail_reportf "pi #%d: weight %h, oracle %h" p w w';
          if deg <> deg' then
            QCheck2.Test.fail_reportf "pi #%d: degrees differ" p)
        (random_pis seed d);
      true)

(* the directed bound against the dense loop, with the upper bound set
   to the exact optimum (the integral stop fires), to a solved tour's
   cost and to a loose value *)
let prop_hk_bound_oracle =
  let config =
    { Held_karp.iterations = 1_500; lambda0 = 2.0; patience = 40 }
  in
  QCheck2.Test.make ~count:120
    ~name:"directed_bound = dense subgradient loop's bound" gen_seed
    (fun seed ->
      let d = random_dtsp seed in
      let _, st = Iterated.solve d in
      let tour = st.Iterated.best_cost in
      let opt =
        if d.Dtsp.n <= Exact.max_n then [ Exact.optimal_cost d ] else []
      in
      List.iter
        (fun upper_bound ->
          let got = Held_karp.directed_bound ~config d ~upper_bound in
          let want = Dense.directed_hk_bound ~config d ~upper_bound in
          if got <> want then
            QCheck2.Test.fail_reportf "upper %d: bound %d, oracle %d"
              upper_bound got want)
        (opt @ [ tour; (2 * tour) + 10 ]);
      true)

(* ---------------- workload instances ---------------- *)

(* the real SPEC92 procedures: oracle + neighbors + trajectory on a
   size-capped sample (the dense reference is O(n²)) *)
let test_workload_instances () =
  let insts =
    Ba_harness.Synthetic.workload_instances ()
    |> List.filter (fun i ->
           Cfg.n_blocks i.Ba_harness.Synthetic.g <= 120)
  in
  Alcotest.(check bool) "have workload instances" true (insts <> []);
  List.iteri
    (fun idx { Ba_harness.Synthetic.name; g; prof } ->
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, forbid = Dense.reduction penalties g ~profile:prof in
      Alcotest.(check int) (name ^ ": forbid") forbid inst.Reduction.forbid;
      Alcotest.(check bool)
        (name ^ ": oracle")
        true
        (check_oracle ~what:name inst.Reduction.dtsp dense);
      (* neighbors + full solve identity on a further sample: both are
         quadratic-or-worse in the dense reference *)
      if idx mod 7 = 0 then begin
        Alcotest.(check bool)
          (name ^ ": neighbors")
          true
          (check_neighbors ~what:name inst.Reduction.dtsp);
        let t1, _ = Iterated.solve inst.Reduction.dtsp in
        let t2, _ = Iterated.solve (Dtsp.make dense) in
        Alcotest.(check (array int)) (name ^ ": tour") t2 t1
      end)
    insts

let () =
  Alcotest.run "sparse-prop"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_make_oracle;
          QCheck_alcotest.to_alcotest prop_reduction_oracle;
          QCheck_alcotest.to_alcotest prop_sym_oracle;
        ] );
      ( "neighbors",
        [
          QCheck_alcotest.to_alcotest prop_neighbors_random;
          QCheck_alcotest.to_alcotest prop_neighbors_reduction;
        ] );
      ( "held-karp",
        [
          QCheck_alcotest.to_alcotest prop_hk_kernel_oracle;
          QCheck_alcotest.to_alcotest prop_hk_bound_oracle;
        ] );
      ( "trajectory",
        [
          QCheck_alcotest.to_alcotest prop_solve_identical;
          Alcotest.test_case "workload instances" `Slow
            test_workload_instances;
        ] );
    ]
