(** Per-procedure control-flow graphs.

    A CFG is an array of {!Block.t} indexed by label, plus a distinguished
    entry block.  This is the {e shape} consumed by the alignment
    algorithms; the executable IR of the mini-language (see [Ba_minic.Ir])
    projects onto it. *)

type t = {
  name : string;  (** procedure name, for reporting *)
  entry : Block.label;  (** label of the entry block *)
  blocks : Block.t array;  (** blocks indexed by label *)
}

(** Number of basic blocks. *)
let n_blocks g = Array.length g.blocks

(** [block g l] is the block labelled [l].
    @raise Invalid_argument if [l] is out of range. *)
let block g l =
  if l < 0 || l >= n_blocks g then
    invalid_arg (Printf.sprintf "Cfg.block: label %d out of range in %s" l g.name);
  g.blocks.(l)

(** CFG successors of block [l]. *)
let successors g l = Block.successors (block g l)

(** [edge_test g] is a CFG-edge membership test [src dst], O(1) for
    queries grouped by source: a source's successors are marked once
    each time it differs from the previous query's source.  Checking a
    whole profile row by row so costs O(blocks + edges), where
    {!Block.has_successor} per transfer is quadratic on wide [Multiway]
    blocks.  Out-of-range successors and destinations are never edges.
    @raise Invalid_argument if [src] is out of range. *)
let edge_test g =
  let nb = n_blocks g in
  let mark = Array.make nb (-1) and cur = ref (-1) in
  fun src dst ->
    if src <> !cur then begin
      cur := src;
      List.iter
        (fun l -> if l >= 0 && l < nb then mark.(l) <- src)
        (successors g src)
    end;
    dst >= 0 && dst < nb && mark.(dst) = src

(** [check ~strict g] is the invariant checker shared by {!make} and
    {!validate}: non-empty, entry in range, dense ids in order,
    non-negative sizes, successors in range, and terminators consistent
    with the successor sets {!Block.successors_of_term} derives (a
    conditional must keep two distinct arms, an indirect branch at least
    two targets — {!Block.make} normalizes the degenerate forms away, so
    finding one means the block was forged).  With [strict] also requires
    every block to be reachable from the entry. *)
let check ~strict g =
  let n = Array.length g.blocks in
  let bad = ref None in
  let fail m = if !bad = None then bad := Some m in
  if n = 0 then fail "empty CFG";
  if !bad = None && (g.entry < 0 || g.entry >= n) then
    fail (Printf.sprintf "entry %d out of range" g.entry);
  Array.iteri
    (fun i b ->
      if b.Block.id <> i then
        fail (Printf.sprintf "block %d has id %d" i b.Block.id);
      if b.Block.size < 0 then
        fail (Printf.sprintf "block %d has negative size %d" i b.Block.size);
      (match b.Block.term with
      | Block.Branch { t; f } when t = f ->
          fail (Printf.sprintf "block %d: conditional with equal arms" i)
      | Block.Multiway ts when Array.length ts < 2 ->
          fail (Printf.sprintf "block %d: indirect branch with <2 targets" i)
      | _ -> ());
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            fail (Printf.sprintf "block %d has successor %d out of range" i s))
        (Block.successors b))
    g.blocks;
  (if strict && !bad = None then
     let seen = Array.make n false in
     let rec go l =
       if not seen.(l) then begin
         seen.(l) <- true;
         List.iter go (Block.successors g.blocks.(l))
       end
     in
     go g.entry;
     Array.iteri
       (fun l r ->
         if not r then fail (Printf.sprintf "block %d unreachable from entry" l))
       seen);
  match !bad with Some m -> Error m | None -> Ok ()

(** [make ~name ~entry blocks] builds and validates a CFG.
    @raise Invalid_argument if validation fails (see {!validate}). *)
let make ~name ~entry blocks =
  let g = { name; entry; blocks } in
  match check ~strict:false g with
  | Ok () -> g
  | Error m -> invalid_arg (Printf.sprintf "Cfg.make(%s): %s" name m)

(** [validate ?strict g] re-checks the structural invariants of [g]:
    non-empty, entry in range, dense ids, non-negative sizes, successors
    in range, terminator/successor consistency.  [strict] additionally
    requires every block to be reachable from the entry (unreachable
    blocks are legal — front ends produce them — so the default is
    lenient). *)
let validate ?(strict = false) g = check ~strict g

(** [reachable g] marks the blocks reachable from the entry. *)
let reachable g =
  let seen = Array.make (n_blocks g) false in
  let rec go l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter go (successors g l)
    end
  in
  go g.entry;
  seen

(** [n_reachable g] counts blocks reachable from the entry. *)
let n_reachable g =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (reachable g)

(** Total number of (static) CFG edges, counting duplicate multiway
    targets once per distinct destination. *)
let n_edges g =
  Array.fold_left
    (fun acc b -> acc + List.length (Block.distinct_successors b))
    0 g.blocks

(** All distinct CFG edges [(src, dst)]. *)
let edges g =
  Array.to_list g.blocks
  |> List.concat_map (fun b ->
         List.map (fun s -> (b.Block.id, s)) (Block.distinct_successors b))

(* ------------------------------------------------------------------ *)
(* Canonical structural hashing.                                       *)

(* FNV-1a, 64-bit.  OCaml's native [int] is 63-bit, so the hash lives
   in an [int64] to keep all 64 bits portable across word sizes. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv1a_int h v =
  (* feed the int as 8 little-endian bytes so every label/size bit
     lands in the digest *)
  let rec go h i acc =
    if i = 8 then h
    else go (fnv1a_byte h (Int64.to_int (Int64.logand acc 0xffL))) (i + 1)
           (Int64.shift_right_logical acc 8)
  in
  go h 0 (Int64.of_int v)

(** [structural_hash g] digests the structure of [g] — entry label,
    and per block (in label order) its size, terminator class and
    successor labels — into a canonical 64-bit value.

    Canonical means {e order-independent over successor lists}: an
    indirect branch hashes its distinct targets in sorted order, so two
    CFGs that differ only in the serialization order (or duplication)
    of multiway targets hash identically.  Conditional arms keep their
    taken/fall roles (swapping them is a different program).  The
    procedure name is {e not} hashed: the hash identifies structure,
    so it is a stable cache / CI-diff key across renames.  Collisions
    are possible (it is a 64-bit digest, not a certificate) — users
    that need certainty must re-verify, as the serve-layer cache does
    by re-certifying every cached layout. *)
let structural_hash g =
  let h = ref (fnv1a_int (fnv1a_int fnv_offset (n_blocks g)) g.entry) in
  Array.iter
    (fun b ->
      h := fnv1a_int !h b.Block.size;
      match b.Block.term with
      | Block.Exit -> h := fnv1a_int !h 0
      | Block.Goto l ->
          h := fnv1a_int (fnv1a_int !h 1) l
      | Block.Branch { t; f } ->
          h := fnv1a_int (fnv1a_int (fnv1a_int !h 2) t) f
      | Block.Multiway _ ->
          h := fnv1a_int !h 3;
          (* sorted distinct targets: canonical over list order *)
          List.iter
            (fun l -> h := fnv1a_int !h l)
            (Block.distinct_successors b))
    g.blocks;
  !h

(** Static count of blocks ending in a control-transfer instruction. *)
let n_branch_sites g =
  Array.fold_left (fun acc b -> if Block.is_cti b then acc + 1 else acc) 0 g.blocks

(** Total instruction count over all blocks (terminators excluded). *)
let total_size g = Array.fold_left (fun acc b -> acc + b.Block.size) 0 g.blocks

(** Fold over blocks in label order. *)
let fold f init g = Array.fold_left f init g.blocks

(** Iterate over blocks in label order. *)
let iter f g = Array.iter f g.blocks

let pp ppf g =
  Fmt.pf ppf "@[<v>cfg %s (entry %d)@,%a@]" g.name g.entry
    Fmt.(array ~sep:cut Block.pp)
    g.blocks
