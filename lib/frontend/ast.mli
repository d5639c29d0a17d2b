(** Abstract syntax of CGC, the mini-C source language of this
    reproduction.

    CGC deliberately keeps the C features that make CPU-GPU communication
    hard — pointer arithmetic, aliasing, casts, jagged arrays, globals,
    structs (an array of structures is one allocation unit), up to two
    levels of indirection — while dropping what the benchmarks don't need
    (unions, varargs, goto). *)

type cty =
  | Int  (** 64-bit *)
  | Float  (** 64-bit; [double] is an alias *)
  | Char  (** 1 byte in memory, widened to Int in registers *)
  | Ptr of cty
  | Arr of cty * int list  (** element type and constant dimensions *)
  | Struct of sdef
      (** the layout is embedded so [sizeof] needs no environment; the
          parser computes it when the struct is declared (definition must
          precede use, so recursive struct values are impossible — use
          pointers) *)

and sdef = {
  s_name : string;
  s_size : int;  (** bytes *)
  s_fields : (string * (int * cty)) list;  (** field -> offset, type *)
}

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Bshl | Bshr  (** integer-only shifts; shift count is masked mod 64 *)
  | Blt | Ble | Bgt | Bge | Beq | Bne
  | Band | Bor  (** short-circuit *)

type unop = Uneg | Unot

type expr =
  | Int_lit of int64
  | Float_lit of float
  | Ident of string
  | Binary of binop * expr * expr
  | Unary of unop * expr
  | Cond of expr * expr * expr  (** c ? a : b *)
  | Index of expr * expr
  | Deref of expr
  | Field of expr * string  (** s.f *)
  | Arrow of expr * string  (** p->f *)
  | Addr_of of expr
  | Call of string * expr list
  | Cast of cty * expr
  | Sizeof of cty

type stmt =
  | Decl of cty * string * expr option
  | Assign of expr * expr  (** lvalue = expr *)
  | Op_assign of binop * expr * expr  (** lvalue op= expr; also ++/-- *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of for_info
  | Return of expr option
  | Break
  | Expr_stmt of expr
  | Launch_stmt of string * expr * expr list
      (** kernel, trip count, launch arguments (the kernel's implicit
          first parameter is the thread index) *)

and for_info = {
  parallel : bool;  (** manual DOALL annotation *)
  init : stmt option;
  cond : expr option;
  update : stmt option;
  body : stmt list;
}

type init_item =
  | I_int of int64
  | I_float of float
  | I_string of string
  | I_ident of string  (** address of another global *)

type global_decl = {
  g_readonly : bool;
      (** read-only globals are never copied device-to-host *)
  g_ty : cty;
  g_name : string;
  g_init : init_item list option;
}

type func_decl = {
  f_kernel : bool;  (** GPU function; first parameter is the thread id *)
  f_ret : cty option;  (** None = void *)
  f_name : string;
  f_params : (cty * string) list;
  f_body : stmt list;
}

type topdecl =
  | Global_decl of global_decl
  | Func_decl of func_decl
  | Struct_decl of sdef

type program = topdecl list

(** {2 Layout} *)

val sizeof : cty -> int

val layout_fields : (cty * string) list -> int * (string * (int * cty)) list
(** [(size, fields-with-offsets)]: chars pack with byte alignment,
    everything else aligns to 8 bytes. *)

val indirection : cty -> int
(** Pointer depth; CGCM supports at most 2 on GPU-visible data. *)

(** {2 Pretty-printing} — output re-parses to an equal AST (the
    round-trip property tests rely on it). *)

val pp_cty : Format.formatter -> cty -> unit
val string_of_binop : binop -> string
val program_to_string : program -> string
