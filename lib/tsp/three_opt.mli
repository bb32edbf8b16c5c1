(** 3-Opt local search with neighbor lists and don't-look bits
    (Johnson–McGeoch), on instances produced by {!Sym.of_dtsp}.  The
    locked/forbidden weight structure guarantees improving moves preserve
    the alternating in/out tour shape.

    The tour lives behind {!Tour_repr} (flat arrays or the two-level
    √n-segment structure); every search decision is position-based and
    both representations preserve absolute positions exactly, so the
    trajectory is representation-independent.

    Don't-look bits are trajectory-exact version stamps: a popped
    city's scan is skipped only when the tour is bit-identical to the
    one its last scan failed against ([last_fail.(c) = version]), so
    bits-on and bits-off runs produce identical tours, costs, and move
    counts — only [scans_skipped] differs.

    The state carries its tour cost (updated from each applied move's
    gain and each kick's six-edge delta) and, after a [checkpoint], a
    log of tour operations that [undo] replays inverted — so a rejected
    kick costs O(ops·√n), not an O(n) rebuild. *)

type reconnection = Tour_repr.reconnection = T3 | T4 | T5 | T6

(** A logged tour operation, in absolute positions. *)
type op =
  | Reverse of int * int  (** [Tour_repr.reverse l r] *)
  | Reconnect of reconnection * int * int * int  (** [ty, pi, jj, kk] *)
  | Shift of int  (** [Tour_repr.shift d] *)

type state = {
  s : Sym.t;
  nbr : int array array;
  repr : Tour_repr.t;  (** the tour representation *)
  in_queue : bool array;
  queue : int Queue.t;
  mutable moves_2opt : int;
  mutable moves_3opt : int;
  mutable version : int;
      (** tour mutation counter (moves, kicks, undos, set_tour) *)
  last_fail : int array;  (** per city: version at last failed scan, −1 never *)
  mutable scans_skipped : int;  (** scans elided by the don't-look stamps *)
  dont_look : bool;
  mutable cost : int;  (** symmetric cost of the current tour *)
  mutable logging : bool;  (** record ops (from the first [checkpoint]) *)
  mutable log : op list;  (** ops since the checkpoint, newest first *)
  mutable checkpoint_cost : int;
  mutable undo_ops : int;  (** ops replayed by [undo] so far *)
  mutable scr_dby : int array;  (** y-side scan scratch (see the .ml) *)
  mutable scr_ry : int array;
  mutable scr_ry1 : int array;
  mutable scr_sy : int array;
  mutable scr_pry : int array;
}

(** Start a search state from a tour (copied).  [dont_look] (default
    [true]) enables the version-stamp scan skips; [repr] (default
    [Auto]) picks the tour representation; both are
    trajectory-neutral.  [spans] (default disabled) receives the
    two-level structure's [two_level.rebalance] spans.
    @raise Invalid_argument on malformed tours. *)
val init :
  ?dont_look:bool ->
  ?repr:Tour_repr.kind ->
  ?spans:Ba_obs.Span.buf ->
  Sym.t ->
  nbr:int array array ->
  tour:int array ->
  state

(** Replace the tour wholesale (same cities, new order), bumping
    [version] so stale stamps never suppress a needed rescan.
    @raise Invalid_argument on a wrong-length tour. *)
val set_tour : state -> int array -> unit

(** Start (or restart) the op log: a later [undo] returns to the
    current tour. *)
val checkpoint : state -> unit

(** Restore the tour and cost of the last [checkpoint] by replaying the
    logged ops' inverses, newest first: reversals and T3 undo
    themselves, T4(jj) → T4(kk−jj), T5(jj) → T6(kk−jj), T6(jj) →
    T5(kk−jj), shift d → shift −d.  Exact cell for cell; bumps
    [version] once.
    @raise Invalid_argument if the state was never checkpointed. *)
val undo : state -> unit

(** [swap_segments st ~shift ~a ~b ~c] applies the double-bridge kick
    in place: cuts before positions [0 < a < b < c < n] turn A B C D
    into A C B D (a T4 reconnection).  With [shift], every position
    first moves back by one and [a]/[b]/[c] are read in that frame.
    Updates the cost by the six-edge delta and bumps [version] once. *)
val swap_segments : state -> shift:bool -> a:int -> b:int -> c:int -> unit

(** Mark a city for (re-)examination. *)
val activate : state -> int -> unit

val activate_all : state -> unit

(** Search one improving move around a city; apply it and return [true],
    or [false] if its candidate neighborhood is exhausted. *)
val try_city : state -> int -> bool

(** Run to local optimality over the active queue.  With a [budget],
    each improving move spends one unit and the search stops early (tour
    still valid) once the budget is exhausted. *)
val run : ?budget:Ba_robust.Budget.t -> state -> unit

(** Current tour (copied). *)
val tour : state -> int array

(** City at a tour position. *)
val city_at : state -> int -> int

(** Tour position of a city. *)
val position : state -> int -> int

(** Tour successor / predecessor of a city. *)
val succ : state -> int -> int

val pred : state -> int -> int

(** The representation actually in use ([Array] or [Two_level]). *)
val repr_kind : state -> Tour_repr.kind

(** Two-level structure statistics (1 / 0 / 0 on the flat arrays). *)
val segments : state -> int

val seg_splits : state -> int
val rebalances : state -> int

(** Current symmetric tour cost; O(1), equal to [Sym.tour_cost] of
    [tour] (maintained incrementally). *)
val cost : state -> int
