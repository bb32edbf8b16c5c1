(* Operations attempted and failed in one pass.  An operation is one
   procedure laid out (paper, scale) or one request answered (serve);
   it fails on a typed error, a fallback, a certification failure or a
   broken invariant, and on any exception a layer lets escape. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

(* [op t what f] runs one operation.  [f fail] calls [fail msg] for
   each violation it finds; the operation counts as failed once,
   however many it finds.  [None] when [f] raised. *)
let op t what f =
  t.attempted <- t.attempted + 1;
  let bad = ref false in
  let fail msg =
    if not !bad then t.failed <- t.failed + 1;
    bad := true;
    prerr_endline (Printf.sprintf "perfbench: FAILED %s: %s" what msg)
  in
  match f fail with
  | v -> Some v
  | exception e ->
      fail ("exception " ^ Printexc.to_string e);
      None
