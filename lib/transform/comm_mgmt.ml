(* Communication management (Section 4 of the paper).

   The pass starts from sequential CPU code launching GPU kernels with no
   CPU-GPU communication whatsoever (a shared namespace fiction produced
   by the DOALL outliner) and makes the program correct on split memories:

   - every kernel's live-in values are its launch operands plus the
     globals its body references;
   - use-based type inference classifies each live-in as scalar, pointer,
     or double pointer (the C types being long gone);
   - pointer live-ins are routed through the run-time: map before the
     launch (translating the operand), unmap and release after it;
   - stack variables whose address escapes are flagged so the interpreter
     registers them with the run-time (declareAlloca).

   The resulting cyclic pattern is correct but slow; the optimization
   passes (glue kernels, alloca promotion, map promotion) remove the
   cycles afterwards. *)

module Ir = Cgcm_ir.Ir
module Typeinfer = Cgcm_analysis.Typeinfer
module Alias = Cgcm_analysis.Alias

exception Unmanageable of string

(* Mark escaping allocas for run-time registration. *)
let register_escaping_allocas (f : Ir.func) =
  let escaping = Alias.escaping_allocas f in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Alloca (d, _, info) when List.mem d escaping ->
        info.Ir.aregistered <- true
      | _ -> ())
    f

let map_fn = function
  | Typeinfer.Pointer -> (Ir.Intrinsic.map, Ir.Intrinsic.unmap, Ir.Intrinsic.release)
  | Typeinfer.Double_pointer ->
    (Ir.Intrinsic.map_array, Ir.Intrinsic.unmap_array, Ir.Intrinsic.release_array)
  | Typeinfer.Scalar -> assert false

(* Wrap one launch with the management calls. Returns the instruction
   sequence replacing it. *)
let manage_launch (f : Ir.func) (types : Typeinfer.kernel_types)
    ~(kernel : string) ~(trip : Ir.value) ~(args : Ir.value list) :
    Ir.instr list =
  let pre = ref [] and post = ref [] in
  let new_args =
    List.mapi
      (fun j arg ->
        (* parameter 0 is the thread index; launch operand j is param j+1 *)
        match types.Typeinfer.param_cls.(j + 1) with
        | Typeinfer.Scalar -> arg
        | (Typeinfer.Pointer | Typeinfer.Double_pointer) as cls ->
          let mapf, unmapf, releasef = map_fn cls in
          let d = Ir.fresh_reg f in
          pre := Ir.Call (Some d, mapf, [ arg ]) :: !pre;
          post :=
            !post @ [ Ir.Call (None, unmapf, [ arg ]); Ir.Call (None, releasef, [ arg ]) ];
          Ir.Reg d)
      args
  in
  List.iter
    (fun (g, cls) ->
      match cls with
      | Typeinfer.Scalar -> ()
      | (Typeinfer.Pointer | Typeinfer.Double_pointer) as cls ->
        let mapf, unmapf, releasef = map_fn cls in
        let d = Ir.fresh_reg f in
        (* The kernel reaches the global through cuModuleGetGlobal; the map
           call's job is the data transfer, its result is unused. *)
        pre := Ir.Call (Some d, mapf, [ Ir.Global g ]) :: !pre;
        post :=
          !post
          @ [
              Ir.Call (None, unmapf, [ Ir.Global g ]);
              Ir.Call (None, releasef, [ Ir.Global g ]);
            ])
    types.Typeinfer.global_cls;
  List.rev !pre
  @ [ Ir.Launch { kernel; trip; args = new_args } ]
  @ !post

(* Manage every launch in the module. *)
let step (mgr : Cgcm_analysis.Manager.t) : bool =
  let open Cgcm_analysis in
  let m = Manager.modul mgr in
  let types_of kernel =
    match Ir.find_func m kernel with
    | Some k when k.Ir.fkind = Ir.Kernel -> Manager.kernel_types mgr k
    | Some _ | None -> raise (Unmanageable ("unknown kernel " ^ kernel))
  in
  let changed = ref false in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then begin
        register_escaping_allocas f;
        Rewrite.expand_instrs f (fun _bi i ->
            match i with
            | Ir.Launch { kernel; trip; args } ->
              changed := true;
              manage_launch f (types_of kernel) ~kernel ~trip ~args
            | i -> [ i ])
      end)
    m.Ir.funcs;
  !changed

(* Fault injection for the sanitizer's mutation tests: delete the [n]th
   occurrence (textual order across CPU functions) of a management
   intrinsic this pass inserted. Dropping a [cgcm.map] forwards the raw
   host pointer to the uses of its result — a compiler that forgot to
   translate the operand; the unit-returning intrinsics are simply
   removed. The module is deliberately not re-verified: the point is to
   hand the interpreter a miscompiled program and watch the sanitizer
   name the bug. Returns whether anything was dropped. *)
let drop_nth_call (m : Ir.modul) ~intrinsic ~n : bool =
  let count = ref 0 in
  let dropped = ref false in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then begin
        let subst = Hashtbl.create 1 in
        Rewrite.expand_instrs f (fun _bi i ->
            match i with
            | Ir.Call (dst, name, args) when name = intrinsic ->
              let k = !count in
              incr count;
              if k = n then begin
                dropped := true;
                (match (dst, args) with
                | Some d, a :: _ -> Hashtbl.replace subst d a
                | _ -> ());
                []
              end
              else [ i ]
            | i -> [ i ]);
        if Hashtbl.length subst > 0 then
          Rewrite.substitute_values f (function
            | Ir.Reg r as v -> (
              match Hashtbl.find_opt subst r with Some a -> a | None -> v)
            | v -> v)
      end)
    m.Ir.funcs;
  !dropped
