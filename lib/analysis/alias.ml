(* Lightweight intraprocedural alias analysis based on underlying objects.
   CGCM itself deliberately avoids depending on strong alias analysis (the
   run-time handles aliasing); the compiler only needs a conservative
   may-alias test for the modOrRef check of map promotion and for escape
   analysis of stack slots (declareAlloca insertion). *)

module Ir = Cgcm_ir.Ir

type obj =
  | Obj_alloca of int  (* register holding the alloca result *)
  | Obj_global of string
  | Obj_heap of int  (* register holding a malloc result *)
  | Obj_unknown

(* Map from register to defining instruction (single assignment). *)
let def_map (f : Ir.func) =
  let defs = Array.make f.Ir.nregs None in
  Ir.iter_instrs
    (fun _ i ->
      match Ir.def_of_instr i with Some d -> defs.(d) <- Some i | None -> ())
    f;
  defs

(* Stack slots whose address (or any pointer derived from it by
   arithmetic) is used only in the address position of loads and stores:
   their contents never leave the frame. A slot escapes when a derived
   pointer is stored as a *value*, passed to a call or launch, or used by
   a terminator. *)
let unescaped_slots (f : Ir.func) =
  let slots = Hashtbl.create 16 in
  Ir.iter_instrs
    (fun _ i ->
      match i with Ir.Alloca (d, _, _) -> Hashtbl.replace slots d true | _ -> ())
    f;
  (* derived.(r) = stack slots whose address may flow into register r *)
  let derived = Array.make f.Ir.nregs [] in
  Hashtbl.iter (fun r _ -> derived.(r) <- [ r ]) slots;
  let slots_of = function Ir.Reg r -> derived.(r) | _ -> [] in
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.iter_instrs
      (fun _ i ->
        match i with
        | Ir.Binop (d, (Ir.Add | Ir.Sub), a, b) ->
          let flow = List.sort_uniq compare (slots_of a @ slots_of b) in
          if List.exists (fun s -> not (List.mem s derived.(d))) flow then begin
            derived.(d) <- List.sort_uniq compare (flow @ derived.(d));
            changed := true
          end
        | _ -> ())
      f
  done;
  let escape v =
    List.iter (fun s -> Hashtbl.replace slots s false) (slots_of v)
  in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Load (_, _, _) -> ()  (* address position: fine *)
      | Ir.Store (_, _, v) -> escape v  (* storing the address escapes *)
      | Ir.Binop (_, (Ir.Add | Ir.Sub), _, _) -> ()  (* tracked flow *)
      | _ -> List.iter escape (Ir.uses_of_instr i))
    f;
  (* Also escape via terminators (returned addresses). *)
  Array.iter
    (fun (b : Ir.block) -> List.iter escape (Ir.uses_of_term b.Ir.term))
    f.Ir.blocks;
  slots

type t = {
  defs : Ir.instr option array;
  slots : (int, bool) Hashtbl.t;  (* alloca reg -> unescaped? *)
  stored : (int, Ir.value list) Hashtbl.t;
      (* unescaped slot -> the values stored to it *)
}

let analyze (f : Ir.func) =
  let slots = unescaped_slots f in
  let stored = Hashtbl.create 16 in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Store (_, Ir.Reg s, v) when Hashtbl.find_opt slots s = Some true ->
        Hashtbl.replace stored s
          (v :: Option.value ~default:[] (Hashtbl.find_opt stored s))
      | _ -> ())
    f;
  { defs = def_map f; slots; stored }

(* Underlying object of an address value. For [a + b] the object comes
   from whichever side resolves; if both resolve (to different objects)
   the result is unknown. Loads from unescaped slots look through to the
   union of stored values (one level). *)
let underlying t (v : Ir.value) : obj =
  let rec go fuel v =
    if fuel = 0 then Obj_unknown
    else
      match v with
      | Ir.Global g -> Obj_global g
      | Ir.Imm_int _ | Ir.Imm_float _ -> Obj_unknown
      | Ir.Reg r -> (
        match t.defs.(r) with
        | Some (Ir.Alloca _) -> Obj_alloca r
        | Some (Ir.Call (_, ("malloc" | "calloc" | "realloc"), _)) ->
          Obj_heap r
        | Some (Ir.Binop (_, (Ir.Add | Ir.Sub), a, b)) -> (
          match (go (fuel - 1) a, go (fuel - 1) b) with
          | o, Obj_unknown -> o
          | Obj_unknown, o -> o
          | o1, o2 when o1 = o2 -> o1
          | _ -> Obj_unknown)
        | Some (Ir.Unop (_, _, a)) -> go (fuel - 1) a
        | Some (Ir.Load (_, _, Ir.Reg s))
          when Hashtbl.find_opt t.slots s = Some true -> (
          (* union over all values stored to this private slot *)
          let stored = Option.value ~default:[] (Hashtbl.find_opt t.stored s) in
          match List.sort_uniq compare (List.map (go (fuel - 1)) stored) with
          | [ o ] -> o
          | _ -> Obj_unknown)
        | _ -> Obj_unknown)
  in
  go 8 v

let may_alias o1 o2 =
  match (o1, o2) with
  | Obj_unknown, _ | _, Obj_unknown -> true
  | a, b -> a = b

(* Refinement used by modOrRef: a memory access whose underlying object is
   a *non-escaping* stack slot of the current function cannot alias a
   pointer of unknown provenance — no pointer to that slot exists outside
   the direct addressing the escape analysis already saw. *)
let access_may_alias (t : t) ~(access : obj) ~(target : obj) =
  match access with
  | Obj_alloca r when Hashtbl.find_opt t.slots r = Some true ->
    target = Obj_alloca r
  | _ -> may_alias access target

(* Escape analysis for declareAlloca: a stack slot escapes if its address
   flows anywhere except direct load/store addressing — e.g. into a call,
   a launch, a store *value*, pointer arithmetic, or a return. *)
let escaping_allocas (f : Ir.func) : int list =
  let slots = unescaped_slots f in
  Hashtbl.fold (fun r unescaped acc -> if unescaped then acc else r :: acc) slots []
