(** Dense O(n²) reference constructions, the oracles the sparse cost
    core is checked against: the reduction's DTSP matrix built with one
    {!Ba_machine.Model.edge_cost} call per (block, successor) pair, and
    the 2n×2n symmetrization matrix. *)

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
