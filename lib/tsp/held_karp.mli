(** Held–Karp lower bound via 1-tree Lagrangian relaxation with Polyak
    subgradient steps — the paper's source of provable near-optimality
    certificates. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;  (** iterations without improvement before halving λ *)
}

val default : config

(** The 1-tree kernel of one symmetrized instance: its (out i, in j)
    pairs as a float matrix plus Prim scratch, built once per bound. *)
type kernel

val kernel : Sym.t -> kernel

(** Minimum 1-tree under π-modified weights over the 2n symmetric
    cities: MST over cities 1..2n−1 plus the two cheapest edges at city
    0, relaxing only cross-parity pairs.  Returns (modified weight,
    degrees); the degree array is reused by the next call. *)
val one_tree : kernel -> float array -> float * int array

(** Integer Held–Karp lower bound on the optimal directed tour: bound of
    the symmetrized instance, shifted back and rounded up.  [upper_bound]
    is any known directed tour cost (scales the steps); the ascent stops
    once the rounded bound reaches it.
    @raise Invalid_argument if the instance has no city. *)
val directed_bound : ?config:config -> Dtsp.t -> upper_bound:int -> int
