(** Held–Karp lower bound via 1-tree Lagrangian relaxation [6, 7].

    For node potentials π, the minimum 1-tree under modified weights
    w(u,v) = c(u,v) + π(u) + π(v), minus 2·Σπ, lower-bounds every tour;
    maximizing over π by subgradient ascent gives the Held–Karp bound,
    empirically within a fraction of a percent of the optimum on a wide
    range of instance classes [12] — including, as the paper shows, the
    symmetrized branch-alignment instances.

    We use the Polyak step rule t = λ·(UB − L)/‖deg − 2‖², halving λ when
    the bound stagnates, which is scale-free and therefore robust to the
    large locked-edge weights of {!Sym} instances. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;  (** iterations without improvement before halving λ *)
}

let default = { iterations = 20_000; lambda0 = 2.0; patience = 100 }

(* The 1-tree kernel of one symmetrized instance.  Every symmetric tour
   of a directed tour uses only locked and cross-parity edges, so the
   kernel reads just the (out i, in j) pairs — the directed cost, −m on
   the locked diagonal — as floats, once per bound; a same-parity pair
   weighs [inf] and is never relaxed.  Non-tree cities sit in two
   compact lists, one per parity, so a Prim step relaxes only the list
   opposite the city it adds. *)
type kernel = {
  n : int;  (* directed cities; the 1-tree spans 2n symmetric ones *)
  c : float array;  (* c.(i*n + j) = Sym.cost (out i) (in j) *)
  key : float array;  (* Prim key of every symmetric city *)
  parent : int array;
  deg : int array;
  ins : int array;  (* non-tree in-cities (even), first [n_ins] live *)
  outs : int array;  (* non-tree out-cities (odd) *)
}

let kernel (s : Sym.t) =
  let n = s.Sym.n_cities in
  let c = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      c.((i * n) + j) <-
        float_of_int (Sym.cost s (Sym.out_city i) (Sym.in_city j))
    done
  done;
  {
    n;
    c;
    key = Array.make (2 * n) 0.0;
    parent = Array.make (2 * n) 0;
    deg = Array.make (2 * n) 0;
    ins = Array.make (max 0 (n - 1)) 0;
    outs = Array.make (max 0 (n - 1)) 0;
  }

(** [one_tree k pi] is a minimum 1-tree under π-modified weights: a
    minimum spanning tree over cities 1..2n−1 (Prim rooted at 1, the
    next city chosen by (key, city)) plus the two cheapest edges at
    city 0.  A pair's modified weight is (c + π_u) + π_v with u the
    tree side.  Returns the modified weight and the degrees; the degree
    array is the kernel's own and is overwritten by the next call. *)
let one_tree k (pi : float array) =
  let n = k.n and c = k.c and key = k.key and parent = k.parent in
  let deg = k.deg and ins = k.ins and outs = k.outs in
  Array.fill deg 0 (2 * n) 0;
  (* the root 1 = out 0 keys every in-city; no out-city has a key yet *)
  let p1 = pi.(1) in
  for j = 1 to n - 1 do
    let v = 2 * j in
    key.(v) <- (c.(j) +. p1) +. pi.(v);
    parent.(v) <- 1;
    ins.(j - 1) <- v;
    key.(v + 1) <- infinity;
    outs.(j - 1) <- v + 1
  done;
  let n_ins = ref (n - 1) and n_outs = ref (n - 1) in
  let total = ref 0.0 in
  for _ = 2 to (2 * n) - 1 do
    let u = ref max_int and ku = ref infinity and at = ref 0 in
    for side = 0 to 1 do
      let list = if side = 0 then ins else outs in
      for t = 0 to (if side = 0 then !n_ins else !n_outs) - 1 do
        let v = Array.unsafe_get list t in
        let kv = Array.unsafe_get key v in
        if kv < !ku || (kv = !ku && v < !u) then begin
          u := v;
          ku := kv;
          at := t
        end
      done
    done;
    let u = !u in
    total := !total +. !ku;
    deg.(u) <- deg.(u) + 1;
    deg.(parent.(u)) <- deg.(parent.(u)) + 1;
    (* swap-remove u from its list, then relax the opposite one: the
       pair of u and v sits at c.(base + (v/2)·stride) *)
    let is_in = u land 1 = 0 in
    let mine = if is_in then ins else outs in
    let other = if is_in then outs else ins in
    let n_mine = if is_in then n_ins else n_outs in
    decr n_mine;
    mine.(!at) <- mine.(!n_mine);
    let base = if is_in then u lsr 1 else (u lsr 1) * n in
    let stride = if is_in then n else 1 in
    let pu = pi.(u) in
    for t = 0 to (if is_in then !n_outs else !n_ins) - 1 do
      let v = Array.unsafe_get other t in
      let w =
        (Array.unsafe_get c (base + ((v lsr 1) * stride)) +. pu)
        +. Array.unsafe_get pi v
      in
      if w < Array.unsafe_get key v then begin
        Array.unsafe_set key v w;
        Array.unsafe_set parent v u
      end
    done
  done;
  (* the two cheapest edges from city 0 = in 0, all to out-cities *)
  let p0 = pi.(0) in
  let e1 = ref (-1) and e2 = ref (-1) in
  let w1 = ref infinity and w2 = ref infinity in
  for i = 0 to n - 1 do
    let v = (2 * i) + 1 in
    let w = (c.(i * n) +. p0) +. pi.(v) in
    if !e1 < 0 || w < !w1 then begin
      e2 := !e1;
      w2 := !w1;
      e1 := v;
      w1 := w
    end
    else if !e2 < 0 || w < !w2 then begin
      e2 := v;
      w2 := w
    end
  done;
  total := !total +. !w1 +. !w2;
  deg.(0) <- 2;
  deg.(!e1) <- deg.(!e1) + 1;
  deg.(!e2) <- deg.(!e2) + 1;
  (!total, deg)

(** [directed_bound ?config d ~upper_bound] is an integer Held–Karp lower
    bound on the optimal directed tour of [d]: the bound of the
    symmetrized instance shifted back by the locked-edge offset, rounded
    up (tour costs are integral).  [upper_bound] is any known directed
    tour cost; it scales the subgradient steps, and the ascent stops as
    soon as the rounded bound reaches it, since no later iterate can
    change that answer. *)
let directed_bound ?(config = default) (d : Dtsp.t) ~upper_bound : int =
  let s = Sym.of_dtsp d in
  let n = s.Sym.n_cities and nn = s.Sym.nn in
  if n < 1 then invalid_arg "Held_karp.directed_bound: need at least 1 city";
  let round l =
    int_of_float (Float.ceil (l +. float_of_int s.Sym.offset -. 1e-6))
  in
  (* one directed city: the forced symmetric 2-cycle of its locked pair *)
  if n = 1 then round (float_of_int (-2 * s.Sym.m))
  else begin
    let k = kernel s in
    let ub = float_of_int (upper_bound - s.Sym.offset) in
    let pi = Array.make nn 0.0 in
    let prev_grad = Array.make nn 0.0 in
    let best = ref neg_infinity in
    let lambda = ref config.lambda0 in
    let since_improve = ref 0 in
    let iter = ref 0 in
    let continue = ref true in
    while !continue && !iter < config.iterations do
      incr iter;
      let weight, deg = one_tree k pi in
      let sum_pi = ref 0.0 in
      for v = 0 to nn - 1 do
        sum_pi := !sum_pi +. pi.(v)
      done;
      let l = weight -. (2.0 *. !sum_pi) in
      if l > !best then begin
        best := l;
        since_improve := 0;
        (* the integral certificate: the bound can never exceed the
           optimum, so once it rounds up to the known upper bound that
           tour is certified optimal and the answer is final *)
        if round l >= upper_bound then continue := false
      end
      else begin
        incr since_improve;
        if !since_improve >= config.patience then begin
          lambda := !lambda /. 2.0;
          since_improve := 0
        end
      end;
      let norm2 = ref 0.0 in
      for v = 0 to nn - 1 do
        let g = float_of_int (deg.(v) - 2) in
        norm2 := !norm2 +. (g *. g)
      done;
      if !norm2 = 0.0 then continue := false (* the 1-tree is a tour: optimal *)
      else if !lambda < 1e-6 then continue := false
      else begin
        let gap = ub -. l in
        let gap = if gap <= 0.0 then 1.0 else gap in
        let t = !lambda *. gap /. !norm2 in
        for v = 0 to nn - 1 do
          (* momentum 0.7/0.3 smooths the zig-zag of pure subgradients *)
          let g =
            (0.7 *. float_of_int (deg.(v) - 2)) +. (0.3 *. prev_grad.(v))
          in
          prev_grad.(v) <- g;
          pi.(v) <- pi.(v) +. (t *. g)
        done
      end
    done;
    Ba_obs.Metrics.incr ~n:!iter Ba_obs.Metrics.Hk_iterations;
    round !best
  end
