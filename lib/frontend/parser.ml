(* Recursive-descent parser for CGC. *)

open Ast

exception Parse_error of string * Lexer.pos

type st = {
  toks : Lexer.tokens;
  kinds : Token.t array;  (* [toks.kinds] *)
  mutable i : int;
  structs : (string, sdef) Hashtbl.t;  (* defined struct layouts *)
}

let error st fmt =
  let pos = Lexer.pos_of st.toks st.i in
  Fmt.kstr (fun s -> raise (Parse_error (s, pos))) fmt

let peek st = st.kinds.(st.i)

let peek2 st =
  if st.i + 1 < st.toks.Lexer.count then st.kinds.(st.i + 1) else Token.EOF

(* Is the current token [tok]? [tok] must be a constant constructor, so
   physical equality decides it without a polymorphic compare. *)
let at st tok = st.kinds.(st.i) == tok

let advance st = st.i <- st.i + 1

let eat st tok =
  if at st tok then advance st
  else error st "expected '%s', found '%s'" (Token.to_string tok)
         (Token.to_string (peek st))

let eat_ident st =
  match peek st with
  | Token.IDENT x ->
    advance st;
    x
  | t -> error st "expected identifier, found '%s'" (Token.to_string t)

let is_type_keyword = function
  | Token.KW_INT | Token.KW_FLOAT | Token.KW_CHAR | Token.KW_STRUCT -> true
  | _ -> false

let base_type st =
  match peek st with
  | Token.KW_INT -> advance st; Int
  | Token.KW_FLOAT -> advance st; Float
  | Token.KW_CHAR -> advance st; Char
  | Token.KW_STRUCT -> (
    advance st;
    let name = eat_ident st in
    match Hashtbl.find_opt st.structs name with
    | Some sdef -> Struct sdef
    | None -> error st "struct '%s' is not defined (definition must precede use)" name)
  | t -> error st "expected type, found '%s'" (Token.to_string t)

(* base type followed by pointer stars *)
let ptr_type st =
  let t = ref (base_type st) in
  while at st Token.STAR do
    advance st;
    t := Ptr !t
  done;
  !t

let int_lit st =
  match peek st with
  | Token.INT_LIT v ->
    advance st;
    Int64.to_int v
  | t -> error st "expected integer literal, found '%s'" (Token.to_string t)

let dims st =
  (* A dimension of 0 means "infer from the initialiser" (globals only:
     'global char s[] = "..."'). *)
  let ds = ref [] in
  while at st Token.LBRACKET do
    advance st;
    if at st Token.RBRACKET then begin
      advance st;
      ds := 0 :: !ds
    end
    else begin
      let d = int_lit st in
      if d <= 0 then error st "array dimension must be positive";
      eat st Token.RBRACKET;
      ds := d :: !ds
    end
  done;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing.                                   *)

let rec expr st = cond_expr st

and cond_expr st =
  let c = or_expr st in
  if at st Token.QUESTION then begin
    advance st;
    let a = expr st in
    eat st Token.COLON;
    let b = cond_expr st in
    Cond (c, a, b)
  end
  else c

and or_expr st = or_rest st (and_expr st)

and or_rest st a =
  if at st Token.BARBAR then begin
    advance st;
    or_rest st (Binary (Bor, a, and_expr st))
  end
  else a

and and_expr st = and_rest st (eq_expr st)

and and_rest st a =
  if at st Token.AMPAMP then begin
    advance st;
    and_rest st (Binary (Band, a, eq_expr st))
  end
  else a

and eq_expr st = eq_rest st (rel_expr st)

and eq_rest st a =
  match peek st with
  | Token.EQEQ -> advance st; eq_rest st (Binary (Beq, a, rel_expr st))
  | Token.NE -> advance st; eq_rest st (Binary (Bne, a, rel_expr st))
  | _ -> a

and rel_expr st = rel_rest st (shift_expr st)

and rel_rest st a =
  match peek st with
  | Token.LT -> advance st; rel_rest st (Binary (Blt, a, shift_expr st))
  | Token.LE -> advance st; rel_rest st (Binary (Ble, a, shift_expr st))
  | Token.GT -> advance st; rel_rest st (Binary (Bgt, a, shift_expr st))
  | Token.GE -> advance st; rel_rest st (Binary (Bge, a, shift_expr st))
  | _ -> a

and shift_expr st = shift_rest st (add_expr st)

and shift_rest st a =
  match peek st with
  | Token.SHL -> advance st; shift_rest st (Binary (Bshl, a, add_expr st))
  | Token.SHR -> advance st; shift_rest st (Binary (Bshr, a, add_expr st))
  | _ -> a

and add_expr st = add_rest st (mul_expr st)

and add_rest st a =
  match peek st with
  | Token.PLUS -> advance st; add_rest st (Binary (Badd, a, mul_expr st))
  | Token.MINUS -> advance st; add_rest st (Binary (Bsub, a, mul_expr st))
  | _ -> a

and mul_expr st = mul_rest st (unary_expr st)

and mul_rest st a =
  match peek st with
  | Token.STAR -> advance st; mul_rest st (Binary (Bmul, a, unary_expr st))
  | Token.SLASH -> advance st; mul_rest st (Binary (Bdiv, a, unary_expr st))
  | Token.PERCENT -> advance st; mul_rest st (Binary (Brem, a, unary_expr st))
  | _ -> a

and unary_expr st =
  match peek st with
  | Token.MINUS ->
    advance st;
    Unary (Uneg, unary_expr st)
  | Token.BANG ->
    advance st;
    Unary (Unot, unary_expr st)
  | Token.STAR ->
    advance st;
    Deref (unary_expr st)
  | Token.AMP ->
    advance st;
    Addr_of (unary_expr st)
  | Token.LPAREN when is_type_keyword (peek2 st) ->
    (* cast *)
    advance st;
    let t = ptr_type st in
    eat st Token.RPAREN;
    Cast (t, unary_expr st)
  | _ -> postfix_expr st

and postfix_expr st = postfix_rest st (primary_expr st)

and postfix_rest st a =
  match peek st with
  | Token.LBRACKET ->
    advance st;
    let idx = expr st in
    eat st Token.RBRACKET;
    postfix_rest st (Index (a, idx))
  | Token.DOT ->
    advance st;
    let f = eat_ident st in
    postfix_rest st (Field (a, f))
  | Token.ARROW ->
    advance st;
    let f = eat_ident st in
    postfix_rest st (Arrow (a, f))
  | _ -> a

and primary_expr st =
  match peek st with
  | Token.INT_LIT v ->
    advance st;
    Int_lit v
  | Token.FLOAT_LIT v ->
    advance st;
    Float_lit v
  | Token.KW_SIZEOF ->
    advance st;
    eat st Token.LPAREN;
    let t = ptr_type st in
    eat st Token.RPAREN;
    Sizeof t
  | Token.IDENT x ->
    advance st;
    if at st Token.LPAREN then begin
      advance st;
      let args = call_args st in
      Call (x, args)
    end
    else Ident x
  | Token.LPAREN ->
    advance st;
    let e = expr st in
    eat st Token.RPAREN;
    e
  | t -> error st "expected expression, found '%s'" (Token.to_string t)

and call_args st =
  if at st Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let args = ref [ expr st ] in
    while at st Token.COMMA do
      advance st;
      args := expr st :: !args
    done;
    eat st Token.RPAREN;
    List.rev !args
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let binop_of_opassign = function
  | Token.PLUSEQ -> Badd
  | Token.MINUSEQ -> Bsub
  | Token.STAREQ -> Bmul
  | Token.SLASHEQ -> Bdiv
  | _ -> assert false

(* decl | assignment | expression, *without* the trailing semicolon *)
let rec simple_stmt st =
  if is_type_keyword (peek st) then begin
    let t = ptr_type st in
    let name = eat_ident st in
    let ds = dims st in
    let t = if ds = [] then t else Arr (t, ds) in
    match peek st with
    | Token.ASSIGN ->
      if ds <> [] then error st "array declarations cannot have initialisers";
      advance st;
      let e = expr st in
      Decl (t, name, Some e)
    | _ -> Decl (t, name, None)
  end
  else begin
    let lhs = expr st in
    match peek st with
    | Token.ASSIGN ->
      advance st;
      Assign (lhs, expr st)
    | (Token.PLUSEQ | Token.MINUSEQ | Token.STAREQ | Token.SLASHEQ) as op ->
      advance st;
      Op_assign (binop_of_opassign op, lhs, expr st)
    | Token.PLUSPLUS ->
      advance st;
      Op_assign (Badd, lhs, Int_lit 1L)
    | Token.MINUSMINUS ->
      advance st;
      Op_assign (Bsub, lhs, Int_lit 1L)
    | _ -> Expr_stmt lhs
  end

and stmt st : stmt =
  match peek st with
  | Token.LBRACE ->
    (* A bare block is flattened into an If(1) so scoping stays simple. *)
    let b = block st in
    If (Int_lit 1L, b, [])
  | Token.KW_IF ->
    advance st;
    eat st Token.LPAREN;
    let c = expr st in
    eat st Token.RPAREN;
    let then_ = stmt_as_block st in
    let else_ =
      if at st Token.KW_ELSE then begin
        advance st;
        stmt_as_block st
      end
      else []
    in
    If (c, then_, else_)
  | Token.KW_WHILE ->
    advance st;
    eat st Token.LPAREN;
    let c = expr st in
    eat st Token.RPAREN;
    While (c, stmt_as_block st)
  | Token.KW_PARALLEL | Token.KW_FOR ->
    let parallel = at st Token.KW_PARALLEL in
    if parallel then begin
      advance st;
      if not (at st Token.KW_FOR) then error st "'parallel' must precede 'for'"
    end;
    eat st Token.KW_FOR;
    eat st Token.LPAREN;
    let init =
      if at st Token.SEMI then None else Some (simple_stmt st)
    in
    eat st Token.SEMI;
    let cond = if at st Token.SEMI then None else Some (expr st) in
    eat st Token.SEMI;
    let update =
      if at st Token.RPAREN then None else Some (simple_stmt st)
    in
    eat st Token.RPAREN;
    let body = stmt_as_block st in
    For { parallel; init; cond; update; body }
  | Token.KW_RETURN ->
    advance st;
    if at st Token.SEMI then begin
      advance st;
      Return None
    end
    else begin
      let e = expr st in
      eat st Token.SEMI;
      Return (Some e)
    end
  | Token.KW_BREAK ->
    advance st;
    eat st Token.SEMI;
    Break
  | Token.KW_LAUNCH ->
    advance st;
    let k = eat_ident st in
    eat st Token.LT;
    (* additive grammar only: '>' must terminate the trip count *)
    let trip = add_expr st in
    eat st Token.GT;
    eat st Token.LPAREN;
    let args = call_args st in
    eat st Token.SEMI;
    Launch_stmt (k, trip, args)
  | _ ->
    let s = simple_stmt st in
    eat st Token.SEMI;
    s

and stmt_as_block st =
  if at st Token.LBRACE then block st else [ stmt st ]

and block st =
  eat st Token.LBRACE;
  let stmts = ref [] in
  while not (at st Token.RBRACE) do
    stmts := stmt st :: !stmts
  done;
  advance st;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let init_item st =
  match peek st with
  | Token.INT_LIT v -> advance st; I_int v
  | Token.MINUS ->
    advance st;
    (match peek st with
    | Token.INT_LIT v -> advance st; I_int (Int64.neg v)
    | Token.FLOAT_LIT v -> advance st; I_float (-.v)
    | t -> error st "bad initialiser item '%s'" (Token.to_string t))
  | Token.FLOAT_LIT v -> advance st; I_float v
  | Token.STRING_LIT s -> advance st; I_string s
  | Token.IDENT x -> advance st; I_ident x
  | t -> error st "bad initialiser item '%s'" (Token.to_string t)

let global_decl st ~readonly =
  eat st Token.KW_GLOBAL;
  let t = ptr_type st in
  let name = eat_ident st in
  let ds = dims st in
  let t = if ds = [] then t else Arr (t, ds) in
  let init =
    if at st Token.ASSIGN then begin
      advance st;
      match peek st with
      | Token.STRING_LIT s ->
        advance st;
        Some [ I_string s ]
      | Token.LBRACE ->
        advance st;
        let items = ref [ init_item st ] in
        while at st Token.COMMA do
          advance st;
          items := init_item st :: !items
        done;
        eat st Token.RBRACE;
        Some (List.rev !items)
      | _ -> Some [ init_item st ]
    end
    else None
  in
  eat st Token.SEMI;
  { g_readonly = readonly; g_ty = t; g_name = name; g_init = init }

let func_decl st ~kernel =
  let ret =
    if at st Token.KW_VOID then begin
      advance st;
      None
    end
    else Some (ptr_type st)
  in
  let name = eat_ident st in
  eat st Token.LPAREN;
  let params = ref [] in
  if not (at st Token.RPAREN) then begin
    let param () =
      let t = ptr_type st in
      let x = eat_ident st in
      (t, x)
    in
    params := [ param () ];
    while at st Token.COMMA do
      advance st;
      params := param () :: !params
    done
  end;
  eat st Token.RPAREN;
  let body = block st in
  {
    f_kernel = kernel;
    f_ret = ret;
    f_name = name;
    f_params = List.rev !params;
    f_body = body;
  }

(* struct name { type field; ... }; *)
let struct_decl st =
  eat st Token.KW_STRUCT;
  let name = eat_ident st in
  if Hashtbl.mem st.structs name then error st "struct '%s' redefined" name;
  eat st Token.LBRACE;
  let fields = ref [] in
  while not (at st Token.RBRACE) do
    let t = ptr_type st in
    let fname = eat_ident st in
    if List.exists (fun (_, n) -> n = fname) !fields then
      error st "duplicate field '%s' in struct %s" fname name;
    eat st Token.SEMI;
    fields := !fields @ [ (t, fname) ]
  done;
  advance st;
  eat st Token.SEMI;
  if !fields = [] then error st "struct '%s' has no fields" name;
  let size, laid = layout_fields !fields in
  let sdef = { s_name = name; s_size = size; s_fields = laid } in
  Hashtbl.replace st.structs name sdef;
  sdef

let program st =
  let decls = ref [] in
  while not (at st Token.EOF) do
    match peek st with
    | Token.KW_STRUCT ->
      decls := Struct_decl (struct_decl st) :: !decls
    | Token.KW_READONLY ->
      advance st;
      decls := Global_decl (global_decl st ~readonly:true) :: !decls
    | Token.KW_GLOBAL ->
      decls := Global_decl (global_decl st ~readonly:false) :: !decls
    | Token.KW_KERNEL ->
      advance st;
      decls := Func_decl (func_decl st ~kernel:true) :: !decls
    | _ -> decls := Func_decl (func_decl st ~kernel:false) :: !decls
  done;
  List.rev !decls

let parse_string src =
  let toks = Lexer.tokenize src in
  program { toks; kinds = toks.Lexer.kinds; i = 0; structs = Hashtbl.create 8 }
