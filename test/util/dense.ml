(** Dense O(n²) reference constructions, the oracles the sparse cost
    core is checked against: the reduction's DTSP matrix built with one
    {!Ba_machine.Model.edge_cost} call per (block, successor) pair, the
    2n×2n symmetrization matrix, and the Held–Karp 1-tree and
    subgradient loop run over that whole matrix. *)

open Ba_cfg
module Profile = Ba_profile.Profile
module Dtsp = Ba_tsp.Dtsp

(** The reduction's logical (n+1)² matrix (cities 0..n−1 = blocks, city
    n = dummy; dummy → entry free, other dummy edges prohibitive) and
    its prohibitive weight, one edge_cost call per ordered pair. *)
let reduction (m : Ba_machine.Model.t) (cfg : Cfg.t)
    ~(profile : Profile.proc) =
  let n = Cfg.n_blocks cfg in
  let dummy = n in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let block_cost i succ =
    Ba_machine.Model.edge_cost m (Cfg.block cfg i).Block.term ~succ
      ~predicted:predicted.(i)
      ~freqs:(Profile.block_freqs profile i)
  in
  let worst = ref 1 in
  for i = 0 to n - 1 do
    let w = ref (block_cost i None) in
    for j = 0 to n - 1 do
      if j <> i then w := max !w (block_cost i (Some j))
    done;
    worst := !worst + !w
  done;
  let forbid = !worst in
  let cost =
    Array.init (n + 1) (fun i ->
        Array.init (n + 1) (fun j ->
            if i = j then 0
            else if i = dummy then if j = cfg.Cfg.entry then 0 else forbid
            else if j = dummy then block_cost i None
            else block_cost i (Some j)))
  in
  (cost, forbid)

(** {!reduction} compressed through {!Ba_tsp.Dtsp.make}, with the dummy
    city's index — the same signature as the certifier's builder. *)
let dtsp_of m cfg ~profile =
  let cost, _ = reduction m cfg ~profile in
  (Dtsp.make cost, Cfg.n_blocks cfg)

(** The 2n×2n symmetric matrix of the 2-city transformation: locked
    in/out pairs at −m, directed edge i → j at (out i, in j), every
    other pair at the forbidden weight. *)
let sym (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let cmax = Dtsp.max_cost d in
  let m = (2 * cmax) + 2 in
  let inf = 8 * (cmax + m + 1) in
  let nn = 2 * n in
  let cost = Array.make_matrix nn nn inf in
  for i = 0 to n - 1 do
    cost.(2 * i).((2 * i) + 1) <- -m;
    cost.((2 * i) + 1).(2 * i) <- -m;
    for j = 0 to n - 1 do
      if i <> j then begin
        cost.((2 * i) + 1).(2 * j) <- Dtsp.cost d i j;
        cost.(2 * j).((2 * i) + 1) <- Dtsp.cost d i j
      end
    done
  done;
  cost

(** The canonical k-nearest-neighbor lists of a 2n-city symmetric
    instance, by brute force: every partner [b ≠ a] that is not a's
    locked pair and has [cost a b < inf], keyed by (cost, distance in
    block order along the edge) — (j − i) mod n from out-city 2i+1 to
    in-city 2j, (j − r) mod n from in-city 2j back to out-city 2r+1 —
    fully sorted and truncated to [k]. *)
let neighbors ~nn ~inf cost ~k =
  let n = nn / 2 in
  let k = max 0 k in
  Array.init nn (fun a ->
      let i = a / 2 in
      let cand = ref [] in
      for b = nn - 1 downto 0 do
        let j = b / 2 in
        if j <> i then begin
          let c = cost a b in
          if c < inf then begin
            let dist =
              if a land 1 = 1 then (j - i + n) mod n else (i - j + n) mod n
            in
            cand := (c, dist, b) :: !cand
          end
        end
      done;
      let arr = Array.of_list !cand in
      Array.sort compare arr;
      let arr = if Array.length arr <= k then arr else Array.sub arr 0 k in
      Array.map (fun (_, _, b) -> b) arr)

(** The minimum 1-tree under π-modified weights over a flat row-major
    n×n matrix, every pair relaxed: Prim over cities 1..n−1 rooted at 1
    (ties to the lowest city) plus the two cheapest edges at city 0.
    Returns the modified weight and the degree of every city. *)
let one_tree ~n (cost : int array) (pi : float array) =
  let w u v = float_of_int cost.((u * n) + v) +. pi.(u) +. pi.(v) in
  let deg = Array.make n 0 in
  let in_tree = Array.make n false in
  let best = Array.make n infinity and parent = Array.make n (-1) in
  in_tree.(1) <- true;
  for v = 2 to n - 1 do
    best.(v) <- w 1 v;
    parent.(v) <- 1
  done;
  let weight = ref 0.0 in
  for _ = 2 to n - 1 do
    let u = ref (-1) in
    for v = 2 to n - 1 do
      if (not in_tree.(v)) && (!u < 0 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    in_tree.(u) <- true;
    weight := !weight +. best.(u);
    deg.(u) <- deg.(u) + 1;
    deg.(parent.(u)) <- deg.(parent.(u)) + 1;
    for v = 2 to n - 1 do
      if (not in_tree.(v)) && w u v < best.(v) then begin
        best.(v) <- w u v;
        parent.(v) <- u
      end
    done
  done;
  let e1 = ref (-1) and e2 = ref (-1) in
  for v = 1 to n - 1 do
    if !e1 < 0 || w 0 v < w 0 !e1 then begin
      e2 := !e1;
      e1 := v
    end
    else if !e2 < 0 || w 0 v < w 0 !e2 then e2 := v
  done;
  weight := !weight +. w 0 !e1 +. w 0 !e2;
  deg.(0) <- 2;
  deg.(!e1) <- deg.(!e1) + 1;
  deg.(!e2) <- deg.(!e2) + 1;
  (!weight, deg)

(** The flat row-major copy of {!sym}, the layout {!one_tree} reads. *)
let sym_flat (d : Dtsp.t) = Array.concat (Array.to_list (sym d))

(** The Held–Karp subgradient ascent over the dense 1-tree, as a float:
    Polyak steps with momentum, λ halved after [patience] iterations
    without improvement, stopped at the iteration cap, a tour-shaped
    1-tree, λ < 1e-6, or a float bound within 1e-9 of [upper_bound]. *)
let hk_bound ?(config = Ba_tsp.Held_karp.default) ~n (cost : int array)
    ~upper_bound : float =
  if n = 2 then float_of_int (2 * cost.(1))
  else begin
    let pi = Array.make n 0.0 in
    let prev_grad = Array.make n 0.0 in
    let best = ref neg_infinity in
    let lambda = ref config.Ba_tsp.Held_karp.lambda0 in
    let since_improve = ref 0 in
    let iter = ref 0 in
    let continue = ref true in
    while !continue && !iter < config.Ba_tsp.Held_karp.iterations do
      incr iter;
      let weight, deg = one_tree ~n cost pi in
      let sum_pi = Array.fold_left ( +. ) 0.0 pi in
      let l = weight -. (2.0 *. sum_pi) in
      if l > !best then begin
        best := l;
        since_improve := 0;
        if l >= float_of_int upper_bound -. 1e-9 then continue := false
      end
      else begin
        incr since_improve;
        if !since_improve >= config.Ba_tsp.Held_karp.patience then begin
          lambda := !lambda /. 2.0;
          since_improve := 0
        end
      end;
      let norm2 = ref 0.0 in
      for v = 0 to n - 1 do
        let g = float_of_int (deg.(v) - 2) in
        norm2 := !norm2 +. (g *. g)
      done;
      if !norm2 = 0.0 then continue := false
      else if !lambda < 1e-6 then continue := false
      else begin
        let gap = float_of_int upper_bound -. l in
        let gap = if gap <= 0.0 then 1.0 else gap in
        let t = !lambda *. gap /. !norm2 in
        for v = 0 to n - 1 do
          let g =
            (0.7 *. float_of_int (deg.(v) - 2)) +. (0.3 *. prev_grad.(v))
          in
          prev_grad.(v) <- g;
          pi.(v) <- pi.(v) +. (t *. g)
        done
      end
    done;
    !best
  end

(** The integer directed bound of {!hk_bound} on the dense symmetric
    matrix: shifted back by the locked-edge offset n·m, rounded up. *)
let directed_hk_bound ?config (d : Dtsp.t) ~upper_bound : int =
  let n = d.Dtsp.n in
  let m = (2 * Dtsp.max_cost d) + 2 in
  let offset = n * m in
  let b =
    hk_bound ?config ~n:(2 * n) (sym_flat d) ~upper_bound:(upper_bound - offset)
  in
  int_of_float (Float.ceil (b +. float_of_int offset -. 1e-6))
