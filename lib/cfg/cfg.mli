(** Per-procedure control-flow graphs: an array of {!Block.t} indexed by
    label, plus a distinguished entry block. *)

type t = {
  name : string;  (** procedure name, for reporting *)
  entry : Block.label;
  blocks : Block.t array;  (** indexed by label *)
}

(** Number of basic blocks. *)
val n_blocks : t -> int

(** [block g l] is the block labelled [l].
    @raise Invalid_argument if [l] is out of range. *)
val block : t -> Block.label -> Block.t

(** CFG successors of block [l]. *)
val successors : t -> Block.label -> Block.label list

(** [edge_test g] returns a membership test [src dst] for CFG edges,
    O(1) when queries come grouped by source (a source's successors are
    marked once per run of queries), so a whole profile checks in
    O(blocks + edges).  Out-of-range labels are never edges.
    @raise Invalid_argument if [src] is out of range. *)
val edge_test : t -> Block.label -> Block.label -> bool

(** [make ~name ~entry blocks] builds and validates a CFG: non-empty,
    entry in range, ids dense and in order, successors in range.
    @raise Invalid_argument if validation fails. *)
val make : name:string -> entry:Block.label -> Block.t array -> t

(** [validate ?strict g] re-checks the structural invariants of an
    existing CFG: non-empty, entry in range, dense ids, non-negative
    sizes, successors in range, terminator/successor consistency.  With
    [strict] every block must also be reachable from the entry (the
    default is lenient: front ends legally emit unreachable blocks). *)
val validate : ?strict:bool -> t -> (unit, string) result

(** [reachable g].(l) is true iff block [l] is reachable from the entry. *)
val reachable : t -> bool array

(** Number of blocks reachable from the entry. *)
val n_reachable : t -> int

(** Number of distinct static CFG edges. *)
val n_edges : t -> int

(** All distinct CFG edges as [(src, dst)] pairs. *)
val edges : t -> (Block.label * Block.label) list

(** Canonical 64-bit structural digest: entry label plus, per block in
    label order, size, terminator class and successor labels — with
    multiway successor lists hashed as sorted distinct targets, so the
    hash is order-independent over successor lists.  Conditional arms
    keep their taken/fall roles; the procedure name is not hashed.
    Used as the serve-layer layout-cache key and as a cheap CI identity
    anchor; a 64-bit digest can collide, so anything that needs
    certainty must re-verify the layout itself. *)
val structural_hash : t -> int64

(** Static count of blocks ending in a control-transfer instruction. *)
val n_branch_sites : t -> int

(** Total instruction count over all blocks (terminators excluded). *)
val total_size : t -> int

val fold : ('a -> Block.t -> 'a) -> 'a -> t -> 'a
val iter : (Block.t -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit
