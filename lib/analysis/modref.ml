(* Interprocedural CPU mod/ref summaries.

   Map promotion must prove that the CPU code of a region neither reads
   nor writes the candidate allocation unit; when the region contains
   calls, it needs a summary of what the callee's *CPU* code (not its
   kernels) can touch:

     globals  - named globals the callee may load or store directly;
     unknown  - the callee may dereference pointers of unknown provenance
                (parameters, pointers loaded from memory), so it may touch
                anything a pointer could reach.

   Kernels and launches are excluded: they execute against device memory
   and never make the host copy wrong. *)

module Ir = Cgcm_ir.Ir

type summary = { globals : string list; unknown : bool }

let empty = { globals = []; unknown = false }

let union a b =
  {
    globals = List.sort_uniq compare (a.globals @ b.globals);
    unknown = a.unknown || b.unknown;
  }

let add_obj s = function
  | Alias.Obj_global g ->
    if List.mem g s.globals then s else { s with globals = g :: s.globals }
  | Alias.Obj_alloca _ | Alias.Obj_heap _ ->
    s (* callee-local unit: invisible to callers *)
  | Alias.Obj_unknown -> { s with unknown = true }

type t = (string, summary) Hashtbl.t

(* One local pass: what f's own CPU instructions touch, ignoring calls to
   user functions (handled by the fixpoint). *)
let local_summary (f : Ir.func) : summary * string list (* callees *) =
  let alias = Alias.analyze f in
  let s = ref empty in
  let callees = ref [] in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Load (_, _, addr) | Ir.Store (_, addr, _) ->
        s := add_obj !s (Alias.underlying alias addr)
      | Ir.Call (_, name, args) ->
        if Ir.Intrinsic.is_cgcm name || Ir.Intrinsic.is_pure_math name then ()
        else begin
          match name with
          | "print_i64" | "print_f64" | "malloc" | "calloc" -> ()
          | "prints" | "strlen" | "free" | "realloc" ->
            List.iter
              (fun a -> s := add_obj !s (Alias.underlying alias a))
              args
          | _ -> callees := name :: !callees
        end
      | Ir.Launch _ | Ir.Alloca _ | Ir.Binop _ | Ir.Unop _ -> ())
    f;
  (!s, List.sort_uniq compare !callees)

let compute (m : Ir.modul) : t =
  let locals = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then
        Hashtbl.replace locals f.Ir.fname (local_summary f))
    m.Ir.funcs;
  let summaries : t = Hashtbl.create 16 in
  Hashtbl.iter (fun name (s, _) -> Hashtbl.replace summaries name s) locals;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name (local, callees) ->
        let cur = Hashtbl.find summaries name in
        let next =
          List.fold_left
            (fun acc callee ->
              match Hashtbl.find_opt summaries callee with
              | Some s -> union acc s
              | None -> { acc with unknown = true }  (* unknown function *))
            local callees
        in
        if next <> cur then begin
          Hashtbl.replace summaries name next;
          changed := true
        end)
      locals
  done;
  summaries

(* ------------------------------------------------------------------ *)
(* Kernel-side read/write sets                                         *)

(* Which named globals may the kernel's own body load (reads) or store
   (writes)? The coherence sanitizer uses these at each launch to flag
   units held mapped across launches whose kernel provably cannot touch
   them. Pointer parameters, loaded pointers and calls to user
   functions degrade to [rw_unknown]: a may-set would turn the flag
   into false positives, so the sanitizer stays quiet instead. *)
type rw = { reads : string list; writes : string list; rw_unknown : bool }

let kernel_rw (f : Ir.func) : rw =
  let alias = Alias.analyze f in
  let reads = ref [] in
  let writes = ref [] in
  let unknown = ref (f.Ir.nargs > 0) in
  let note acc = function
    | Alias.Obj_global g -> if not (List.mem g !acc) then acc := g :: !acc
    | Alias.Obj_alloca _ | Alias.Obj_heap _ -> ()  (* kernel-local *)
    | Alias.Obj_unknown -> unknown := true
  in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Load (_, _, addr) -> note reads (Alias.underlying alias addr)
      | Ir.Store (_, addr, _) -> note writes (Alias.underlying alias addr)
      | Ir.Call (_, name, _) ->
        if Ir.Intrinsic.is_cgcm name || Ir.Intrinsic.is_pure_math name then ()
        else unknown := true
      | Ir.Launch _ | Ir.Alloca _ | Ir.Binop _ | Ir.Unop _ -> ())
    f;
  {
    reads = List.sort_uniq compare !reads;
    writes = List.sort_uniq compare !writes;
    rw_unknown = !unknown;
  }

(* May a call to [callee] touch [obj] from CPU code? *)
let call_may_touch (t : t) ~(callee : string) (obj : Alias.obj) : bool =
  match Hashtbl.find_opt t callee with
  | None -> true  (* not a known user function: be conservative *)
  | Some s -> (
    if s.unknown then true
    else
      match obj with
      | Alias.Obj_global g -> List.mem g s.globals
      | Alias.Obj_unknown -> s.globals <> []
      | Alias.Obj_alloca _ | Alias.Obj_heap _ ->
        (* a caller-local unit: the callee could only reach it through a
           pointer, and [unknown = false] says it never dereferences one *)
        false)
