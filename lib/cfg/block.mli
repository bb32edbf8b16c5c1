(** Basic blocks and their terminators.

    A basic block is a straight-line run of instructions ended by a
    single control-transfer decision.  For branch alignment only the
    {e shape} matters: how many instructions the block holds (for the
    I-cache model) and how control leaves it. *)

(** Identifier of a basic block inside one procedure.  Labels are dense:
    a procedure with [n] blocks uses labels [0 .. n-1]. *)
type label = int

(** How control leaves a basic block. *)
type terminator =
  | Exit  (** return from the procedure *)
  | Goto of label
      (** exactly one CFG successor; realized as a fall-through or an
          unconditional jump depending on the layout *)
  | Branch of { t : label; f : label }
      (** two-way conditional with taken arm [t] and fall arm [f];
          always normalized so [t <> f] *)
  | Multiway of label array
      (** indirect (register) branch, e.g. a jump table; its pipeline
          cost does not depend on the layout *)

type t = {
  id : label;  (** this block's label *)
  size : int;  (** number of non-CTI instructions in the block *)
  term : terminator;
}

(** [make ~id ~size term] builds a block, normalizing degenerate
    terminators (equal-armed conditionals become [Goto], empty or
    singleton [Multiway] become [Exit]/[Goto]).
    @raise Invalid_argument if [size < 0]. *)
val make : id:label -> size:int -> terminator -> t

(** CFG successors of a terminator, taken arm first; duplicates preserved
    for [Multiway]. *)
val successors_of_term : terminator -> label list

(** CFG successors of a block (see {!successors_of_term}). *)
val successors : t -> label list

(** Distinct CFG successors, sorted increasingly. *)
val distinct_successors : t -> label list

(** [has_successor b l] is true iff [l] is a CFG successor of [b];
    O(out-degree).  To test many transfers use {!Cfg.edge_test}. *)
val has_successor : t -> label -> bool

(** True iff the block ends in an instruction that can redirect fetch in
    at least one layout (everything except [Exit]). *)
val is_cti : t -> bool

(** True iff the block ends in a two-way conditional branch. *)
val is_conditional : t -> bool

(** True iff the block ends in an indirect branch. *)
val is_multiway : t -> bool

val pp_term : Format.formatter -> terminator -> unit
val pp : Format.formatter -> t -> unit
val equal_term : terminator -> terminator -> bool

(** Structural equality on blocks. *)
val equal : t -> t -> bool
