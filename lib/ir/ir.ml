(* The intermediate representation CGCM's compiler passes operate on.

   Registers hold 64-bit words; whether a word is a pointer is *not* part
   of the type system. This mirrors the setting of the paper: C and C++
   types are unreliable, so pointer-ness must be recovered by use-based
   type inference (Analysis.Typeinfer), never read off a declaration.

   The IR is not SSA in the classical sense — there are no phis; local
   variables live in stack slots created by [Alloca] and are accessed with
   loads and stores, as in unoptimized LLVM IR. Virtual registers are
   still single-assignment, which the verifier enforces. *)

type ty = I8 | I64 | F64

type value =
  | Reg of int
  | Imm_int of int64
  | Imm_float of float
  | Global of string  (* address of the named global in the executing space *)

type binop =
  (* 64-bit integer ops *)
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  (* float ops *)
  | Fadd | Fsub | Fmul | Fdiv
  (* comparisons produce 0/1 in an integer register *)
  | Eq | Ne | Lt | Le | Gt | Ge
  | Feq | Fne | Flt | Fle | Fgt | Fge

type unop =
  | Neg | Not
  | Fneg
  | Int_to_float
  | Float_to_int  (* truncation *)

type alloca_info = {
  aname : string;  (* source-level variable name, for diagnostics *)
  (* Set by the communication-management pass for stack variables whose
     address escapes to a kernel: the interpreter then registers the unit
     with the CGCM run-time (the paper's declareAlloca) and expires the
     registration when the frame pops. *)
  mutable aregistered : bool;
}

type instr =
  | Binop of int * binop * value * value
  | Unop of int * unop * value
  | Load of int * ty * value  (* dst, width, address *)
  | Store of ty * value * value  (* width, address, stored value *)
  | Alloca of int * value * alloca_info  (* dst := address of [size] fresh bytes *)
  | Call of int option * string * value list
  | Launch of { kernel : string; trip : value; args : value list }

type terminator =
  | Br of int
  | Cbr of value * int * int  (* if value <> 0 then goto b1 else b2 *)
  | Ret of value option

type block = { mutable instrs : instr list; mutable term : terminator }

type fkind =
  | Cpu  (* ordinary host function *)
  | Kernel  (* launched on the device over a grid of threads *)

type func = {
  fname : string;
  (* registers [0, nargs) are the formal parameters; mutable because
     alloca promotion appends parameters *)
  mutable nargs : int;
  mutable nregs : int;
  mutable blocks : block array;  (* block 0 is the entry *)
  fkind : fkind;
}

type ginit =
  | Zeroed
  | I64s of int64 array
  | F64s of float array
  | Str of string  (* NUL-terminated byte data *)
  | Ptrs of string array  (* addresses of other globals *)

type global = {
  gname : string;
  gsize : int;  (* bytes *)
  ginit : ginit;
  gread_only : bool;
}

type modul = { mutable globals : global list; mutable funcs : func list }

(* ------------------------------------------------------------------ *)
(* Constructors and small helpers                                      *)

let imm i = Imm_int (Int64.of_int i)

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func_exn: no function " ^ name)

let find_global m name = List.find_opt (fun g -> g.gname = name) m.globals

let add_func m f =
  if find_func m f.fname <> None then
    invalid_arg ("Ir.add_func: duplicate function " ^ f.fname);
  m.funcs <- m.funcs @ [ f ]

let fresh_reg f =
  let r = f.nregs in
  f.nregs <- r + 1;
  r

let add_block f block =
  let n = Array.length f.blocks in
  f.blocks <- Array.append f.blocks [| block |];
  n

let init_size = function
  | Zeroed -> 0
  | I64s a -> 8 * Array.length a
  | F64s a -> 8 * Array.length a
  | Str s -> String.length s + 1
  | Ptrs a -> 8 * Array.length a

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)

let def_of_instr = function
  | Binop (d, _, _, _) | Unop (d, _, _) | Load (d, _, _) | Alloca (d, _, _) ->
    Some d
  | Call (d, _, _) -> d
  | Store _ | Launch _ -> None

let uses_of_instr = function
  | Binop (_, _, a, b) -> [ a; b ]
  | Unop (_, _, a) -> [ a ]
  | Load (_, _, a) -> [ a ]
  | Store (_, a, v) -> [ a; v ]
  | Alloca (_, size, _) -> [ size ]
  | Call (_, _, args) -> args
  | Launch { trip; args; _ } -> trip :: args

(* [uses_of_instr] without building the list. *)
let iter_uses_instr f = function
  | Binop (_, _, a, b) | Store (_, a, b) ->
    f a;
    f b
  | Unop (_, _, a) | Load (_, _, a) | Alloca (_, a, _) -> f a
  | Call (_, _, args) -> List.iter f args
  | Launch { trip; args; _ } ->
    f trip;
    List.iter f args

let uses_of_term = function
  | Br _ -> []
  | Cbr (v, _, _) -> [ v ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []

let map_uses_instr f = function
  | Binop (d, op, a, b) -> Binop (d, op, f a, f b)
  | Unop (d, op, a) -> Unop (d, op, f a)
  | Load (d, ty, a) -> Load (d, ty, f a)
  | Store (ty, a, v) -> Store (ty, f a, f v)
  | Alloca (d, size, info) -> Alloca (d, f size, info)
  | Call (d, name, args) -> Call (d, name, List.map f args)
  | Launch { kernel; trip; args } ->
    Launch { kernel; trip = f trip; args = List.map f args }

let succs_of_term = function
  | Br b -> [ b ]
  | Cbr (_, b1, b2) -> if b1 = b2 then [ b1 ] else [ b1; b2 ]
  | Ret _ -> []

let iter_instrs f func =
  Array.iteri (fun bi block -> List.iter (fun i -> f bi i) block.instrs) func.blocks

let fold_instrs f acc func =
  let acc = ref acc in
  iter_instrs (fun bi i -> acc := f !acc bi i) func;
  !acc

(* Globals referenced anywhere in a function. *)
let globals_used func =
  let acc = ref [] in
  let see = function
    | Global g -> if not (List.mem g !acc) then acc := g :: !acc
    | _ -> ()
  in
  Array.iter
    (fun b ->
      List.iter (fun i -> List.iter see (uses_of_instr i)) b.instrs;
      List.iter see (uses_of_term b.term))
    func.blocks;
  List.rev !acc

(* Names of the CGCM run-time intrinsics inserted by the compiler. *)
module Intrinsic = struct
  let map = "cgcm.map"
  let unmap = "cgcm.unmap"
  let release = "cgcm.release"
  let map_array = "cgcm.map_array"
  let unmap_array = "cgcm.unmap_array"
  let release_array = "cgcm.release_array"

  let is_cgcm name =
    String.length name > 5 && String.starts_with ~prefix:"cgcm." name

  (* Pure math intrinsics: callable from kernels, no memory effects. *)
  let pure_math =
    [ "sqrt"; "exp"; "log"; "pow"; "fabs"; "floor"; "ceil"; "sin"; "cos"; "tan" ]

  let is_pure_math name = List.mem name pure_math
end
