(* Call graph over a module: direct calls between user-defined CPU
   functions. Intrinsics are not nodes. *)

module Ir = Cgcm_ir.Ir

type t = {
  (* callers.(f) = list of (caller function, block index) call sites *)
  callers : (string, (string * int) list) Hashtbl.t;
  callees : (string, string list) Hashtbl.t;
  recursive : (string, bool) Hashtbl.t;
}

let compute (m : Ir.modul) : t =
  let callers = Hashtbl.create 16 in
  let callees = Hashtbl.create 16 in
  let defined name = Ir.find_func m name <> None in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_instrs
        (fun bi i ->
          match i with
          | Ir.Call (_, name, _) when defined name ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt callers name) in
            Hashtbl.replace callers name ((f.Ir.fname, bi) :: cur);
            let cur = Option.value ~default:[] (Hashtbl.find_opt callees f.Ir.fname) in
            Hashtbl.replace callees f.Ir.fname (name :: cur)
          | _ -> ())
        f)
    m.Ir.funcs;
  (* A function is recursive if it reaches itself through callees. *)
  let recursive = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      let name = f.Ir.fname in
      let seen = Hashtbl.create 8 in
      let rec reachable from =
        match Hashtbl.find_opt callees from with
        | None -> false
        | Some cs ->
          List.exists
            (fun c ->
              c = name
              ||
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.replace seen c ();
                reachable c
              end)
            cs
      in
      Hashtbl.replace recursive name (reachable name))
    m.Ir.funcs;
  { callers; callees; recursive }

let call_sites t name = Option.value ~default:[] (Hashtbl.find_opt t.callers name)

let is_recursive t name =
  Option.value ~default:false (Hashtbl.find_opt t.recursive name)
