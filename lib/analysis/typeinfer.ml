(* Use-based pointer type inference (Section 4 of the paper).

   The C type system is unreliable, so the communication-management pass
   never trusts declared types. Instead, a live-in value of a GPU kernel
   is classified by how the kernel *uses* it:

     - if the value flows to the address operand of a load or store
       (possibly through additions, subtractions and casts), it is a
       pointer;
     - if a value loaded through it flows to another memory operation's
       address, it is a double pointer (mapArray territory);
     - three or more levels of indirection are outside CGCM's supported
       fragment and are reported as an error.

   Flow deliberately does not pass through multiplications: scaled index
   arithmetic (i * elt_size) keeps induction variables out of the pointer
   class, which is what makes the inference unambiguous in practice. Flow
   does pass through private stack slots (store-then-reload of a pointer
   in a kernel-local variable). *)

module Ir = Cgcm_ir.Ir

exception Too_indirect of string

type cls = Scalar | Pointer | Double_pointer

let cls_to_string = function
  | Scalar -> "scalar"
  | Pointer -> "pointer"
  | Double_pointer -> "double pointer"


(* Forward taint closure of a source through the function body. Returns
   (tainted registers, tainted slots). *)
let taint_closure (f : Ir.func) (alias : Alias.t) (seeds : Ir.value list) =
  let reg_taint = Array.make f.Ir.nregs false in
  let slot_taint = Hashtbl.create 8 in
  let global_seeds =
    List.filter_map (function Ir.Global g -> Some g | _ -> None) seeds
  in
  List.iter
    (function Ir.Reg r -> reg_taint.(r) <- true | _ -> ())
    seeds;
  let value_tainted = function
    | Ir.Reg r -> reg_taint.(r)
    | Ir.Global g -> List.mem g global_seeds
    | Ir.Imm_int _ | Ir.Imm_float _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.iter_instrs
      (fun _ i ->
        let mark r =
          if not reg_taint.(r) then begin
            reg_taint.(r) <- true;
            changed := true
          end
        in
        match i with
        | Ir.Binop (d, (Ir.Add | Ir.Sub), a, b) ->
          if value_tainted a || value_tainted b then mark d
        | Ir.Unop (d, (Ir.Int_to_float | Ir.Float_to_int | Ir.Neg), a) ->
          if value_tainted a then mark d
        | Ir.Store (_, Ir.Reg s, v)
          when Hashtbl.find_opt alias.Alias.slots s = Some true ->
          if value_tainted v && not (Hashtbl.mem slot_taint s) then begin
            Hashtbl.replace slot_taint s ();
            changed := true
          end
        | Ir.Load (d, _, Ir.Reg s) when Hashtbl.mem slot_taint s -> mark d
        | _ -> ())
      f
  done;
  (reg_taint, (fun v -> value_tainted v))

(* All loads whose address is tainted; their destinations seed level 2. *)
let loads_through (f : Ir.func) value_tainted =
  Ir.fold_instrs
    (fun acc _ i ->
      match i with
      | Ir.Load (d, Ir.I64, a) when value_tainted a -> Ir.Reg d :: acc
      | _ -> acc)
    [] f

let used_as_address (f : Ir.func) value_tainted =
  Ir.fold_instrs
    (fun acc _ i ->
      acc
      ||
      match i with
      | Ir.Load (_, _, a) -> value_tainted a
      | Ir.Store (_, a, _) -> value_tainted a
      | _ -> false)
    false f

let classify_source (f : Ir.func) (alias : Alias.t) (seed : Ir.value) : cls =
  let _, tainted1 = taint_closure f alias [ seed ] in
  if not (used_as_address f tainted1) then Scalar
  else begin
    let level2_seeds = loads_through f tainted1 in
    if level2_seeds = [] then Pointer
    else begin
      let _, tainted2 = taint_closure f alias level2_seeds in
      if not (used_as_address f tainted2) then Pointer
      else begin
        let level3_seeds = loads_through f tainted2 in
        if level3_seeds = [] then Double_pointer
        else begin
          let _, tainted3 = taint_closure f alias level3_seeds in
          if used_as_address f tainted3 then
            raise
              (Too_indirect
                 (Fmt.str "%s: a live-in has three or more levels of indirection"
                    f.Ir.fname))
          else Double_pointer
        end
      end
    end
  end

type kernel_types = {
  (* classification of kernel parameters; index 0 is the thread id *)
  param_cls : cls array;
  (* classification of every global the kernel references *)
  global_cls : (string * cls) list;
}

let infer_kernel (f : Ir.func) : kernel_types =
  assert (f.Ir.fkind = Ir.Kernel);
  let alias = Alias.analyze f in
  let param_cls =
    Array.init f.Ir.nargs (fun i -> classify_source f alias (Ir.Reg i))
  in
  let global_cls =
    List.map
      (fun g -> (g, classify_source f alias (Ir.Global g)))
      (Ir.globals_used f)
  in
  { param_cls; global_cls }
