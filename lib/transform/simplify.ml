(* IR clean-up: constant folding, algebraic identities, and dead-code
   elimination. The DOALL outliner generates trip-count chains like
   [sub 64, 0; add r, 0; div r, 1], and the lowering spills every source
   variable; folding them keeps IR dumps readable and the interpreter
   honest about instruction counts.

   Run uniformly in every pipeline configuration (including the sequential
   baseline) so the cost-model comparisons stay fair. *)

module Ir = Cgcm_ir.Ir

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)

let fold_binop op (a : int64) (b : int64) : Ir.value option =
  let open Ir in
  let i v = Some (Imm_int v) in
  let bool_ c = i (if c then 1L else 0L) in
  match op with
  | Add -> i (Int64.add a b)
  | Sub -> i (Int64.sub a b)
  | Mul -> i (Int64.mul a b)
  | Div -> if b = 0L then None else i (Int64.div a b)
  | Rem -> if b = 0L then None else i (Int64.rem a b)
  | And -> i (Int64.logand a b)
  | Or -> i (Int64.logor a b)
  | Xor -> i (Int64.logxor a b)
  | Shl -> i (Int64.shift_left a (Int64.to_int b land 63))
  | Shr -> i (Int64.shift_right_logical a (Int64.to_int b land 63))
  | Eq -> bool_ (a = b)
  | Ne -> bool_ (a <> b)
  | Lt -> bool_ (a < b)
  | Le -> bool_ (a <= b)
  | Gt -> bool_ (a > b)
  | Ge -> bool_ (a >= b)
  | Fadd | Fsub | Fmul | Fdiv | Feq | Fne | Flt | Fle | Fgt | Fge -> None

let fold_fbinop op (a : float) (b : float) : Ir.value option =
  let open Ir in
  let f v = Some (Imm_float v) in
  let bool_ c = Some (Imm_int (if c then 1L else 0L)) in
  match op with
  | Fadd -> f (a +. b)
  | Fsub -> f (a -. b)
  | Fmul -> f (a *. b)
  | Fdiv -> f (a /. b)
  | Feq -> bool_ (a = b)
  | Fne -> bool_ (a <> b)
  | Flt -> bool_ (a < b)
  | Fle -> bool_ (a <= b)
  | Fgt -> bool_ (a > b)
  | Fge -> bool_ (a >= b)
  | _ -> None

(* Algebraic identities that need only one constant operand. *)
let identity op (a : Ir.value) (b : Ir.value) : Ir.value option =
  let open Ir in
  match (op, a, b) with
  | Add, v, Imm_int 0L | Add, Imm_int 0L, v -> Some v
  | Sub, v, Imm_int 0L -> Some v
  | Mul, v, Imm_int 1L | Mul, Imm_int 1L, v -> Some v
  | Mul, _, Imm_int 0L | Mul, Imm_int 0L, _ -> Some (Imm_int 0L)
  | Div, v, Imm_int 1L -> Some v
  | Or, v, Imm_int 0L | Or, Imm_int 0L, v -> Some v
  | Xor, v, Imm_int 0L | Xor, Imm_int 0L, v -> Some v
  | Shl, v, Imm_int 0L | Shr, v, Imm_int 0L -> Some v
  | _ -> None

let fold_unop op (v : Ir.value) : Ir.value option =
  let open Ir in
  match (op, v) with
  | Neg, Imm_int a -> Some (Imm_int (Int64.neg a))
  | Not, Imm_int a -> Some (Imm_int (Int64.lognot a))
  | Fneg, Imm_float a -> Some (Imm_float (-.a))
  | Int_to_float, Imm_int a -> Some (Imm_float (Int64.to_float a))
  | Float_to_int, Imm_float a -> Some (Imm_int (Int64.of_float a))
  | _ -> None

(* One folding pass over a function: registers whose definition folds to a
   constant (or an existing value) are substituted into their uses. *)
let fold_once (f : Ir.func) : bool =
  let subst : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let resolve v =
    match v with
    | Ir.Reg r -> ( match Hashtbl.find_opt subst r with Some v' -> v' | None -> v)
    | v -> v
  in
  (* collect foldable definitions *)
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Binop (d, op, a, b) -> (
        let a = resolve a and b = resolve b in
        match (a, b) with
        | Ir.Imm_int x, Ir.Imm_int y -> (
          match fold_binop op x y with
          | Some v -> Hashtbl.replace subst d v
          | None -> ())
        | Ir.Imm_float x, Ir.Imm_float y -> (
          match fold_fbinop op x y with
          | Some v -> Hashtbl.replace subst d v
          | None -> ())
        | _ -> (
          match identity op a b with
          | Some v -> Hashtbl.replace subst d v
          | None -> ()))
      | Ir.Unop (d, op, a) -> (
        match fold_unop op (resolve a) with
        | Some v -> Hashtbl.replace subst d v
        | None -> ())
      | _ -> ())
    f;
  if Hashtbl.length subst = 0 then false
  else begin
    Rewrite.substitute_values f resolve;
    true
  end

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)

(* An instruction is removable when it defines a register nobody uses and
   has no side effect. Loads are treated as pure (an out-of-bounds access
   whose result is unused is undefined behaviour in the source language);
   calls, stores, launches and allocas always stay. *)
let removable = function
  | Ir.Binop _ | Ir.Unop _ | Ir.Load _ -> true
  | Ir.Store _ | Ir.Call _ | Ir.Launch _ | Ir.Alloca _ -> false

let dce_once (f : Ir.func) : bool =
  let used = Array.make f.Ir.nregs false in
  let see = function Ir.Reg r -> used.(r) <- true | _ -> () in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun i -> List.iter see (Ir.uses_of_instr i)) b.Ir.instrs;
      List.iter see (Ir.uses_of_term b.Ir.term))
    f.Ir.blocks;
  let changed = ref false in
  Rewrite.expand_instrs f (fun _ i ->
      match Ir.def_of_instr i with
      | Some d when removable i && not used.(d) ->
        changed := true;
        []
      | _ -> [ i ]);
  !changed

(* Folded constants leave dead definition chains; iterate to a fixpoint.
   Returns whether anything changed. *)
let run_func (f : Ir.func) =
  let changed = ref false in
  let continue_ = ref true in
  let budget = ref 16 in
  while !continue_ && !budget > 0 do
    decr budget;
    let a = fold_once f in
    let b = dce_once f in
    continue_ := a || b;
    if a || b then changed := true
  done;
  !changed

(* The pass step: simplify every function. *)
let step (mgr : Cgcm_analysis.Manager.t) : bool =
  List.fold_left
    (fun acc (f : Ir.func) -> run_func f || acc)
    false
    (Cgcm_analysis.Manager.modul mgr).Ir.funcs
