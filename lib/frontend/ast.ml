(* Abstract syntax of CGC, the mini-C source language of this
   reproduction. CGC deliberately keeps the C features that make CPU-GPU
   communication hard — pointer arithmetic, aliasing, casts, jagged arrays,
   globals, structs (an array of structures is one allocation unit), up to
   two levels of indirection — while dropping what the benchmarks don't
   need (unions, varargs, goto). *)

type cty =
  | Int  (* 64-bit *)
  | Float  (* 64-bit *)
  | Char  (* 1 byte in memory, widened to Int in registers *)
  | Ptr of cty
  | Arr of cty * int list  (* element type and constant dimensions *)
  | Struct of sdef
    (* The layout is embedded so sizeof needs no environment; the parser
       computes it when the struct is declared (definition must precede
       use, so recursive struct values are impossible — use pointers). *)

and sdef = {
  s_name : string;
  s_size : int;  (* bytes *)
  s_fields : (string * (int * cty)) list;  (* field -> offset, type *)
}

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Bshl | Bshr
  | Blt | Ble | Bgt | Bge | Beq | Bne
  | Band | Bor  (* short-circuit *)

type unop = Uneg | Unot

type expr =
  | Int_lit of int64
  | Float_lit of float
  | Ident of string
  | Binary of binop * expr * expr
  | Unary of unop * expr
  | Cond of expr * expr * expr
  | Index of expr * expr
  | Deref of expr
  | Field of expr * string  (* s.f *)
  | Arrow of expr * string  (* p->f *)
  | Addr_of of expr
  | Call of string * expr list
  | Cast of cty * expr
  | Sizeof of cty

type stmt =
  | Decl of cty * string * expr option
  | Assign of expr * expr  (* lvalue = expr *)
  | Op_assign of binop * expr * expr  (* lvalue op= expr *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of for_info
  | Return of expr option
  | Break
  | Expr_stmt of expr
  | Launch_stmt of string * expr * expr list  (* kernel, trip count, args *)

and for_info = {
  parallel : bool;  (* manual DOALL annotation *)
  init : stmt option;
  cond : expr option;
  update : stmt option;
  body : stmt list;
}

type init_item =
  | I_int of int64
  | I_float of float
  | I_string of string
  | I_ident of string  (* address of another global *)

type global_decl = {
  g_readonly : bool;
  g_ty : cty;
  g_name : string;
  g_init : init_item list option;
}

type func_decl = {
  f_kernel : bool;
  f_ret : cty option;  (* None = void *)
  f_name : string;
  f_params : (cty * string) list;
  f_body : stmt list;
}

type topdecl =
  | Global_decl of global_decl
  | Func_decl of func_decl
  | Struct_decl of sdef

type program = topdecl list

(* ------------------------------------------------------------------ *)

let rec sizeof = function
  | Int | Float | Ptr _ -> 8
  | Char -> 1
  | Arr (t, dims) -> List.fold_left (fun acc d -> acc * d) (sizeof t) dims
  | Struct s -> s.s_size

(* Field offsets: chars pack with byte alignment, everything else aligns
   to 8 bytes. *)
let layout_fields (fields : (cty * string) list) : int * (string * (int * cty)) list
    =
  let align off t =
    match t with Char -> off | _ -> (off + 7) / 8 * 8
  in
  let off, acc =
    List.fold_left
      (fun (off, acc) (t, name) ->
        let off = align off t in
        (off + sizeof t, (name, (off, t)) :: acc))
      (0, []) fields
  in
  (max 1 off, List.rev acc)

let rec indirection = function
  | Ptr t -> 1 + indirection t
  | Arr (t, _) -> 1 + indirection t
  | Int | Float | Char | Struct _ -> 0

let rec pp_cty ppf = function
  | Int -> Fmt.string ppf "int"
  | Float -> Fmt.string ppf "float"
  | Char -> Fmt.string ppf "char"
  | Struct s -> Fmt.pf ppf "struct %s" s.s_name
  | Ptr t -> Fmt.pf ppf "%a*" pp_cty t
  | Arr (t, dims) ->
    pp_cty ppf t;
    List.iter (fun d -> Fmt.pf ppf "[%d]" d) dims

let string_of_binop = function
  | Badd -> "+" | Bsub -> "-" | Bmul -> "*" | Bdiv -> "/" | Brem -> "%"
  | Bshl -> "<<" | Bshr -> ">>"
  | Blt -> "<" | Ble -> "<=" | Bgt -> ">" | Bge -> ">=" | Beq -> "==" | Bne -> "!="
  | Band -> "&&" | Bor -> "||"

let rec pp_expr ppf = function
  | Int_lit i -> Fmt.pf ppf "%Ld" i
  | Float_lit f ->
    (* Print with a decimal point so the round-trip re-lexes as a float. *)
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then Fmt.string ppf s
    else Fmt.pf ppf "%s.0" s
  | Ident x -> Fmt.string ppf x
  | Binary (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (string_of_binop op) pp_expr b
  | Unary (Uneg, a) -> Fmt.pf ppf "(-%a)" pp_expr a
  | Unary (Unot, a) -> Fmt.pf ppf "(!%a)" pp_expr a
  | Cond (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b
  | Index (a, i) -> Fmt.pf ppf "%a[%a]" pp_expr a pp_expr i
  | Deref a -> Fmt.pf ppf "(*%a)" pp_expr a
  | Field (a, f) -> Fmt.pf ppf "%a.%s" pp_expr a f
  | Arrow (a, f) -> Fmt.pf ppf "%a->%s" pp_expr a f
  | Addr_of a -> Fmt.pf ppf "(&%a)" pp_expr a
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") pp_expr) args
  | Cast (t, a) -> Fmt.pf ppf "((%a)%a)" pp_cty t pp_expr a
  | Sizeof t -> Fmt.pf ppf "sizeof(%a)" pp_cty t

(* Statement printing with explicit indentation (format boxes would
   indent relative to the current column, which reads badly after long
   headers). The output re-parses to an equal AST. *)
let rec pp_stmt_i ind ppf (s : stmt) =
  let pad = String.make (ind * 2) ' ' in
  match s with
  | Decl (t, x, init) -> begin
    match t with
    | Arr (elem, dims) ->
      Fmt.pf ppf "%s%a %s" pad pp_cty elem x;
      List.iter (fun d -> Fmt.pf ppf "[%d]" d) dims;
      assert (init = None);
      Fmt.pf ppf ";"
    | _ -> begin
      match init with
      | Some e -> Fmt.pf ppf "%s%a %s = %a;" pad pp_cty t x pp_expr e
      | None -> Fmt.pf ppf "%s%a %s;" pad pp_cty t x
    end
  end
  | Assign (l, e) -> Fmt.pf ppf "%s%a = %a;" pad pp_expr l pp_expr e
  | Op_assign (op, l, e) ->
    Fmt.pf ppf "%s%a %s= %a;" pad pp_expr l (string_of_binop op) pp_expr e
  | If (c, t, []) ->
    Fmt.pf ppf "%sif (%a) %a" pad pp_expr c (pp_block_i ind) t
  | If (c, t, e) ->
    Fmt.pf ppf "%sif (%a) %a else %a" pad pp_expr c (pp_block_i ind) t
      (pp_block_i ind) e
  | While (c, body) ->
    Fmt.pf ppf "%swhile (%a) %a" pad pp_expr c (pp_block_i ind) body
  | For { parallel; init; cond; update; body } ->
    Fmt.pf ppf "%s%sfor (%a %a; %a) %a" pad
      (if parallel then "parallel " else "")
      (Fmt.option pp_for_init) init
      (Fmt.option pp_expr) cond
      (Fmt.option pp_for_update) update (pp_block_i ind) body
  | Return (Some e) -> Fmt.pf ppf "%sreturn %a;" pad pp_expr e
  | Return None -> Fmt.pf ppf "%sreturn;" pad
  | Break -> Fmt.pf ppf "%sbreak;" pad
  | Expr_stmt e -> Fmt.pf ppf "%s%a;" pad pp_expr e
  | Launch_stmt (k, trip, args) ->
    Fmt.pf ppf "%slaunch %s<%a>(%a);" pad k pp_expr trip
      (Fmt.list ~sep:(Fmt.any ", ") pp_expr) args

and pp_for_init ppf = function
  | Decl (t, x, Some e) -> Fmt.pf ppf "%a %s = %a;" pp_cty t x pp_expr e
  | Assign (l, e) -> Fmt.pf ppf "%a = %a;" pp_expr l pp_expr e
  | s -> pp_stmt_i 0 ppf s

and pp_for_update ppf = function
  | Assign (l, e) -> Fmt.pf ppf "%a = %a" pp_expr l pp_expr e
  | Op_assign (op, l, e) ->
    Fmt.pf ppf "%a %s= %a" pp_expr l (string_of_binop op) pp_expr e
  | s -> pp_stmt_i 0 ppf s

and pp_block_i ind ppf stmts =
  Fmt.pf ppf "{@.";
  List.iter (fun s -> Fmt.pf ppf "%a@." (pp_stmt_i (ind + 1)) s) stmts;
  Fmt.pf ppf "%s}" (String.make (ind * 2) ' ')

let pp_block ppf stmts = pp_block_i 0 ppf stmts

let pp_init_item ppf = function
  | I_int i -> Fmt.pf ppf "%Ld" i
  | I_float f -> pp_expr ppf (Float_lit f)
  | I_string s -> Fmt.pf ppf "%S" s
  | I_ident x -> Fmt.string ppf x

let pp_topdecl ppf = function
  | Struct_decl s ->
    Fmt.pf ppf "struct %s {@[<v 2>" s.s_name;
    List.iter
      (fun (name, (_, t)) -> Fmt.pf ppf "@,%a %s;" pp_cty t name)
      s.s_fields;
    Fmt.pf ppf "@]@,};@."
  | Global_decl g ->
    Fmt.pf ppf "%sglobal " (if g.g_readonly then "readonly " else "");
    (match g.g_ty with
    | Arr (elem, dims) ->
      Fmt.pf ppf "%a %s" pp_cty elem g.g_name;
      List.iter (fun d -> Fmt.pf ppf "[%d]" d) dims
    | t -> Fmt.pf ppf "%a %s" pp_cty t g.g_name);
    (match g.g_init with
    | None -> ()
    | Some [ item ] when g.g_ty <> Arr (Char, []) -> begin
      match (g.g_ty, item) with
      | Arr (Char, _), I_string s -> Fmt.pf ppf " = %S" s
      | _, _ -> Fmt.pf ppf " = {%a}" pp_init_item item
    end
    | Some items ->
      Fmt.pf ppf " = {%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_init_item) items);
    Fmt.pf ppf ";@."
  | Func_decl f ->
    Fmt.pf ppf "%s%s %s(%a) %a@."
      (if f.f_kernel then "kernel " else "")
      (match f.f_ret with None -> "void" | Some t -> Fmt.str "%a" pp_cty t)
      f.f_name
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (t, x) ->
           Fmt.pf ppf "%a %s" pp_cty t x))
      f.f_params pp_block f.f_body

let pp_program ppf p = List.iter (fun d -> Fmt.pf ppf "%a@." pp_topdecl d) p

let program_to_string p = Fmt.str "%a" pp_program p
