(** k-nearest-neighbor candidate lists (finite, non-locked partners
    only), sorted by increasing cost so searches can stop early.

    Each list is the unique k-cheapest prefix under the canonical order
    (cost, distance in compiler block order along the edge): an
    out-city of block i ranks the in-city of j by (cost, (j − i) mod n),
    an in-city of j ranks the out-city of r by (cost, (j − r) mod n),
    where n is the number of directed cities.  Built by a partial
    heap-select merge over the sparse CSR rows in O(n log n + n·k + E);
    the order depends only on the logical costs, never on how the
    instance is encoded. *)

(** [of_sym s ~k] builds, for every symmetric city, its up-to-[k]
    cheapest candidate partners (finite cost, not the locked partner).
    [k] is clamped to [0..n−1].  [exec] fans row construction out over
    the engine's domain pool (chunked, merged in index order) — the
    result is bit-identical at any job count. *)
val of_sym : ?exec:Ba_engine.Executor.t -> Sym.t -> k:int -> int array array
