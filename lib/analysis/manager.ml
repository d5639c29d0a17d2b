(* Analysis manager: fresh analyses on every lookup, counted. See
   manager.mli for the contract. *)

module Ir = Cgcm_ir.Ir

type t = { modul : Ir.modul; lookups : (string * int ref) list }

let create modul =
  {
    modul;
    lookups =
      List.map
        (fun name -> (name, ref 0))
        [ "callgraph"; "modref"; "loops"; "alias"; "kernel-types" ];
  }

let modul t = t.modul

let fresh t name compute =
  incr (List.assoc name t.lookups);
  compute ()

let callgraph t = fresh t "callgraph" (fun () -> Callgraph.compute t.modul)
let modref t = fresh t "modref" (fun () -> Modref.compute t.modul)

let loops t f = fresh t "loops" (fun () -> Loops.analyze f)
let alias t f = fresh t "alias" (fun () -> Alias.analyze f)

let kernel_types t f =
  fresh t "kernel-types" (fun () -> Typeinfer.infer_kernel f)

let stats t = List.map (fun (name, n) -> (name, 0, !n)) t.lookups
