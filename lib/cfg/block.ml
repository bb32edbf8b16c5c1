(** Basic blocks and their terminators.

    A basic block is a straight-line run of instructions ended by a single
    control-transfer decision.  For branch alignment we only care about the
    {e shape} of a block: how many instructions it holds (for the I-cache
    model) and how control leaves it. *)

(** Identifier of a basic block inside one procedure.  Labels are dense:
    a procedure with [n] blocks uses labels [0 .. n-1]. *)
type label = int

(** How control leaves a basic block.

    - [Exit] — the block returns from the procedure (or ends the program).
    - [Goto l] — exactly one CFG successor.  Depending on the layout this is
      realized either as a fall-through (no instruction at all) or as an
      unconditional jump.
    - [Branch {t; f}] — a two-way conditional branch with {e taken} arm [t]
      and {e fall-through} arm [f].  The two arms are distinct (a degenerate
      conditional with equal arms must be normalized to [Goto] first, see
      {!normalize}).
    - [Multiway targets] — an indirect (register) branch such as a jump
      table; [targets] lists the possible destinations.  An indirect jump
      always redirects the fetch stream, so its pipeline cost does not
      depend on the layout. *)
type terminator =
  | Exit
  | Goto of label
  | Branch of { t : label; f : label }
  | Multiway of label array

type t = {
  id : label;  (** this block's label *)
  size : int;  (** number of non-CTI instructions in the block *)
  term : terminator;  (** how control leaves the block *)
}

(** [make ~id ~size term] builds a block, normalizing degenerate
    terminators: a conditional branch whose arms coincide becomes a [Goto],
    and an empty [Multiway] becomes [Exit].
    @raise Invalid_argument if [size < 0]. *)
let make ~id ~size term =
  if size < 0 then invalid_arg "Block.make: negative size";
  let term =
    match term with
    | Branch { t; f } when t = f -> Goto t
    | Multiway [||] -> Exit
    | Multiway [| l |] -> Goto l
    | t -> t
  in
  { id; size; term }

(** CFG successors of a terminator, in a canonical order (taken arm first
    for conditionals).  Duplicates are preserved for [Multiway]. *)
let successors_of_term = function
  | Exit -> []
  | Goto l -> [ l ]
  | Branch { t; f } -> [ t; f ]
  | Multiway ts -> Array.to_list ts

(** CFG successors of a block (see {!successors_of_term}). *)
let successors b = successors_of_term b.term

(** Distinct CFG successors of a block, sorted increasingly. *)
let distinct_successors b =
  List.sort_uniq compare (successors b)

(** [has_successor b l] is true iff [l] is a CFG successor of [b];
    O(out-degree), allocation-free. *)
let has_successor b l =
  match b.term with
  | Exit -> false
  | Goto t -> t = l
  | Branch { t; f } -> t = l || f = l
  | Multiway ts -> Array.mem l ts

(** [is_cti b] is true iff the block ends in an instruction that can
    redirect fetch in at least one layout (everything except [Exit];
    a [Goto] is a potential jump even though a good layout deletes it). *)
let is_cti b = match b.term with Exit -> false | _ -> true

(** [is_conditional b] is true iff [b] ends in a two-way branch. *)
let is_conditional b = match b.term with Branch _ -> true | _ -> false

(** [is_multiway b] is true iff [b] ends in an indirect branch. *)
let is_multiway b = match b.term with Multiway _ -> true | _ -> false

let pp_term ppf = function
  | Exit -> Fmt.string ppf "exit"
  | Goto l -> Fmt.pf ppf "goto %d" l
  | Branch { t; f } -> Fmt.pf ppf "branch t:%d f:%d" t f
  | Multiway ts ->
      Fmt.pf ppf "multiway [%a]"
        Fmt.(array ~sep:(any " ") int)
        ts

(** Pretty-printer for blocks, e.g. ["b3(size 5): branch t:4 f:7"]. *)
let pp ppf b = Fmt.pf ppf "b%d(size %d): %a" b.id b.size pp_term b.term

let equal_term a b =
  match (a, b) with
  | Exit, Exit -> true
  | Goto x, Goto y -> x = y
  | Branch { t; f }, Branch { t = t'; f = f' } -> t = t' && f = f'
  | Multiway x, Multiway y -> x = y
  | _ -> false

(** Structural equality on blocks. *)
let equal a b = a.id = b.id && a.size = b.size && equal_term a.term b.term
