(** The intermediate representation CGCM's compiler passes operate on.

    Registers hold 64-bit words; whether a word is a pointer is {e not}
    part of the type system. This mirrors the setting of the paper: C and
    C++ types are unreliable, so pointer-ness must be recovered by
    use-based type inference ({!Cgcm_analysis.Typeinfer}), never read off
    a declaration.

    The IR is not SSA in the classical sense — there are no phis; local
    variables live in stack slots created by {!instr.Alloca} and are
    accessed with loads and stores, as in unoptimized LLVM IR. Virtual
    registers are still single-assignment, which the verifier enforces. *)

(** Memory access widths. Register values are 64-bit integers or floats;
    [I8] loads zero-extend, [I8] stores truncate. *)
type ty = I8 | I64 | F64

type value =
  | Reg of int
  | Imm_int of int64
  | Imm_float of float
  | Global of string
      (** address of the named global {e in the executing space}: host
          address on the CPU, device address (via cuModuleGetGlobal)
          inside a kernel *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Fadd | Fsub | Fmul | Fdiv
  | Eq | Ne | Lt | Le | Gt | Ge  (** comparisons produce 0/1 *)
  | Feq | Fne | Flt | Fle | Fgt | Fge

type unop = Neg | Not | Fneg | Int_to_float | Float_to_int

type alloca_info = {
  aname : string;  (** source-level variable name, for diagnostics *)
  mutable aregistered : bool;
      (** set by communication management for stack variables whose
          address escapes to a kernel: the interpreter then registers the
          unit with the run-time (declareAlloca) and expires the
          registration when the frame pops *)
}

type instr =
  | Binop of int * binop * value * value
  | Unop of int * unop * value
  | Load of int * ty * value  (** dst, width, address *)
  | Store of ty * value * value  (** width, address, stored value *)
  | Alloca of int * value * alloca_info
      (** dst := address of [size] fresh (zeroed) bytes in the executing
          space's stack; freed when the frame pops *)
  | Call of int option * string * value list
      (** user functions and intrinsics: malloc, print, math, the cgcm runtime *)
  | Launch of { kernel : string; trip : value; args : value list }
      (** run [trip] device threads of [kernel]; the thread index is the
          kernel's implicit first argument *)

type terminator =
  | Br of int
  | Cbr of value * int * int  (** if value <> 0 then b1 else b2 *)
  | Ret of value option

type block = { mutable instrs : instr list; mutable term : terminator }

type fkind =
  | Cpu  (** ordinary host function *)
  | Kernel  (** launched on the device over a grid of threads *)

type func = {
  fname : string;
  mutable nargs : int;
      (** registers [0, nargs) are the formal parameters; mutable because
          alloca promotion appends parameters *)
  mutable nregs : int;
  mutable blocks : block array;  (** block 0 is the entry *)
  fkind : fkind;
}

type ginit =
  | Zeroed
  | I64s of int64 array
  | F64s of float array
  | Str of string  (** NUL-terminated byte data *)
  | Ptrs of string array
      (** addresses of other globals; "" initialises to null *)

type global = {
  gname : string;
  gsize : int;  (** bytes *)
  ginit : ginit;
  gread_only : bool;  (** read-only units are never copied back (unmap) *)
}

type modul = { mutable globals : global list; mutable funcs : func list }

(** {2 Construction helpers} *)

val imm : int -> value

val find_func : modul -> string -> func option
val find_func_exn : modul -> string -> func
val find_global : modul -> string -> global option

val add_func : modul -> func -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val fresh_reg : func -> int

val add_block : func -> block -> int
(** Appends; returns the new block's index. *)

val init_size : ginit -> int

(** {2 Traversal helpers} *)

val def_of_instr : instr -> int option
val uses_of_instr : instr -> value list

val iter_uses_instr : (value -> unit) -> instr -> unit
(** [f] on each value of [uses_of_instr], in order, without the list. *)

val uses_of_term : terminator -> value list
val map_uses_instr : (value -> value) -> instr -> instr
val succs_of_term : terminator -> int list

val iter_instrs : (int -> instr -> unit) -> func -> unit
(** Visit every instruction with its block index. *)

val fold_instrs : ('a -> int -> instr -> 'a) -> 'a -> func -> 'a

val globals_used : func -> string list

(** Names of the run-time intrinsics inserted by the compiler. *)
module Intrinsic : sig
  val map : string
  val unmap : string
  val release : string
  val map_array : string
  val unmap_array : string
  val release_array : string

  val is_cgcm : string -> bool
  (** Does the name belong to the CGCM run-time? *)

  val is_pure_math : string -> bool
  (** Math intrinsics callable from kernels: no memory effects. *)
end
