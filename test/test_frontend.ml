(* Tests for the CGC frontend: lexer, parser, pretty-printer round trips,
   lowering and its semantic checks. *)

module Token = Cgcm_frontend.Token
module Lexer = Cgcm_frontend.Lexer
module Parser = Cgcm_frontend.Parser
module Ast = Cgcm_frontend.Ast
module Lower = Cgcm_frontend.Lower
module Affine = Cgcm_frontend.Affine
module Ir = Cgcm_ir.Ir

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let toks src =
  let t = Lexer.tokenize src in
  Array.to_list (Array.sub t.Lexer.kinds 0 t.Lexer.count)

let test_lex_basic () =
  check Alcotest.int "count" 6
    (List.length (toks "int x = 42;"));  (* int x = 42 ; EOF *)
  match toks "x <= 10 && y != 3.5" with
  | [ IDENT "x"; LE; INT_LIT 10L; AMPAMP; IDENT "y"; NE; FLOAT_LIT f; EOF ] ->
    check (Alcotest.float 0.0) "float" 3.5 f
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_comments () =
  match toks "a // line comment\n /* block\n comment */ b" with
  | [ IDENT "a"; IDENT "b"; EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lex_ops () =
  match toks "+= -= *= /= ++ -- == !=" with
  | [ PLUSEQ; MINUSEQ; STAREQ; SLASHEQ; PLUSPLUS; MINUSMINUS; EQEQ; NE; EOF ]
    ->
    ()
  | _ -> Alcotest.fail "operator tokens"

let test_lex_string_escapes () =
  match toks {|"a\nb\"c"|} with
  | [ STRING_LIT "a\nb\"c"; EOF ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lex_errors () =
  let expect_err src =
    match Lexer.tokenize src with
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.fail ("expected lex error on " ^ src)
  in
  expect_err "\"unterminated";
  expect_err "/* unterminated";
  expect_err "#"

let test_lex_positions () =
  let l = Lexer.tokenize "a\n  b" in
  check Alcotest.int "line of b" 2 (Lexer.pos_of l 1).Lexer.line;
  check Alcotest.int "col of b" 3 (Lexer.pos_of l 1).Lexer.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let parse = Parser.parse_string

let test_parse_global () =
  match parse "global float A[4][8];" with
  | [ Ast.Global_decl g ] ->
    check Alcotest.string "name" "A" g.Ast.g_name;
    check Alcotest.bool "type" true (g.Ast.g_ty = Ast.Arr (Ast.Float, [ 4; 8 ]))
  | _ -> Alcotest.fail "global parse"

let test_parse_precedence () =
  match parse "int f() { return 1 + 2 * 3 < 4 == 0; }" with
  | [ Ast.Func_decl { f_body = [ Ast.Return (Some e) ]; _ } ] ->
    (* ((1 + (2*3)) < 4) == 0 *)
    let expect =
      Ast.Binary
        ( Ast.Beq,
          Ast.Binary
            ( Ast.Blt,
              Ast.Binary
                (Ast.Badd, Ast.Int_lit 1L,
                 Ast.Binary (Ast.Bmul, Ast.Int_lit 2L, Ast.Int_lit 3L)),
              Ast.Int_lit 4L ),
          Ast.Int_lit 0L )
    in
    check Alcotest.bool "precedence" true (e = expect)
  | _ -> Alcotest.fail "parse"

let test_parse_cast_vs_paren () =
  match parse "int f(int x) { return (int)x + (x); }" with
  | [ Ast.Func_decl { f_body = [ Ast.Return (Some e) ]; _ } ] ->
    let expect =
      Ast.Binary (Ast.Badd, Ast.Cast (Ast.Int, Ast.Ident "x"), Ast.Ident "x")
    in
    check Alcotest.bool "cast" true (e = expect)
  | _ -> Alcotest.fail "parse"

let test_parse_pointer_types () =
  match parse "void f(float** p, char* s) { }" with
  | [ Ast.Func_decl { f_params; _ } ] ->
    check Alcotest.bool "params" true
      (f_params
      = [ (Ast.Ptr (Ast.Ptr Ast.Float), "p"); (Ast.Ptr Ast.Char, "s") ])
  | _ -> Alcotest.fail "parse"

let test_parse_parallel_for () =
  match parse "void f() { parallel for (int i = 0; i < 8; i++) { } }" with
  | [ Ast.Func_decl { f_body = [ Ast.For { parallel = true; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "parallel for"

let test_parse_launch () =
  match parse "kernel void k(int t) {} void f() { launch k<10>(); }" with
  | [ _; Ast.Func_decl { f_body = [ Ast.Launch_stmt ("k", Ast.Int_lit 10L, []) ]; _ } ]
    ->
    ()
  | _ -> Alcotest.fail "launch"

let test_parse_ternary_shortcircuit () =
  match parse "int f(int x) { return x > 0 ? x : -x; }" with
  | [ Ast.Func_decl { f_body = [ Ast.Return (Some (Ast.Cond _)) ]; _ } ] -> ()
  | _ -> Alcotest.fail "ternary"

let test_parse_errors () =
  let expect_err src =
    match parse src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error on: " ^ src)
  in
  expect_err "int f( { }";
  expect_err "void f() { int; }";
  expect_err "void f() { x = ; }";
  expect_err "global int a[0";
  expect_err "void f() { for (;;) }"

(* Round-trip: pretty-print then re-parse gives the same AST. *)
let test_roundtrip_programs () =
  let sources =
    [
      "global float A[8][8];\nvoid f(int n) { for (int i = 0; i < n; i++) { A[i][0] = i * 2.0; } }\nint main() { f(8); return 0; }";
      "int main() { int x = 3; while (x > 0) { x = x - 1; if (x == 1) { break; } } print(x); return 0; }";
      "kernel void k(int t, float* p) { p[t] = t; }\nint main() { launch k<4>((float*)malloc(32)); return 0; }";
    ]
  in
  List.iter
    (fun src ->
      let ast1 = parse src in
      let printed = Ast.program_to_string ast1 in
      let ast2 = parse printed in
      if ast1 <> ast2 then
        Alcotest.fail ("round trip failed for:\n" ^ printed))
    sources

(* Round-trip the entire 24-program benchmark suite. *)
let test_roundtrip_suite () =
  List.iter
    (fun (p : Cgcm_progs.Registry.program) ->
      let ast1 = parse p.Cgcm_progs.Registry.source in
      let printed = Ast.program_to_string ast1 in
      let ast2 = parse printed in
      if ast1 <> ast2 then
        Alcotest.fail ("round trip failed for " ^ p.Cgcm_progs.Registry.name))
    Cgcm_progs.Registry.all

(* ------------------------------------------------------------------ *)
(* Lowering and semantic checks                                        *)

let lower src = Lower.lower_program (parse src)

let test_lower_simple () =
  let m = lower "int main() { int x = 2; int y = x * 21; print(y); return y; }" in
  check Alcotest.int "one function" 1 (List.length m.Ir.funcs);
  Cgcm_ir.Verifier.verify_modul m

let test_lower_errors () =
  let expect_err src =
    match lower src with
    | exception Lower.Sema_error _ -> ()
    | _ -> Alcotest.fail ("expected sema error on: " ^ src)
  in
  expect_err "int main() { return y; }";  (* unknown variable *)
  expect_err "int main() { int x = 1; int x = 2; return 0; }";  (* redecl *)
  expect_err "void f() {} int main() { f(1); return 0; }";  (* arity *)
  expect_err "int main() { break; return 0; }";  (* break outside loop *)
  expect_err "void main() { }";  (* main signature *)
  expect_err "int f() { return 0; }";  (* no main *)
  (* a *** local on the CPU side is legal (the restriction is on kernel
     live-ins); three levels of indirection on a kernel parameter is
     rejected *)
  (match
     lower "kernel void k(int t, float*** p) {} int main() { return 0; }"
   with
  | exception Lower.Sema_error _ -> ()
  | _ -> Alcotest.fail "expected indirection error");
  (* kernels must not store pointers into memory *)
  expect_err
    "global float* buf[4];\n\
     kernel void k(int t, float** a, float* p) { a[t] = p; }\n\
     int main() { return 0; }";
  (* kernel's first parameter is the thread index *)
  expect_err "kernel void k(float x) {} int main() { return 0; }";
  (* kernels cannot call user functions *)
  expect_err
    "void helper() {}\n\
     kernel void k(int t) { helper(); }\n\
     int main() { return 0; }"

let test_lower_globals () =
  let m =
    lower
      "readonly global int limit = 5;\n\
       global float data[4] = {1.0, 2.0, 3.0, 4.0};\n\
       global char msg[] = \"hi\";\n\
       int main() { return limit; }"
  in
  let g name = Option.get (Ir.find_global m name) in
  check Alcotest.bool "readonly" true (g "limit").Ir.gread_only;
  check Alcotest.int "msg size" 3 (g "msg").Ir.gsize;
  check Alcotest.int "data size" 32 (g "data").Ir.gsize

let test_lower_ptr_globals () =
  let m =
    lower
      "global char a[] = \"x\";\n\
       global char b[] = \"y\";\n\
       global char* tbl[2] = {a, b};\n\
       int main() { return 0; }"
  in
  match (Option.get (Ir.find_global m "tbl")).Ir.ginit with
  | Ir.Ptrs [| "a"; "b" |] -> ()
  | _ -> Alcotest.fail "pointer global initialiser"

(* ------------------------------------------------------------------ *)
(* Constant folding / affine forms                                     *)

let test_const_eval () =
  let e = Parser.parse_string "int main() { return (64 - 1) * 2 + 6 / 3; }" in
  match e with
  | [ Ast.Func_decl { f_body = [ Ast.Return (Some expr) ]; _ } ] ->
    check Alcotest.(option int) "folded" (Some 128) (Affine.const_eval expr)
  | _ -> Alcotest.fail "parse"

let test_affine_forms () =
  let env =
    {
      Affine.parallel_var = "i";
      inner = [ ("j", (0, 9)) ];
      modified = [ "tmp" ];
    }
  in
  let expr_of src =
    match Parser.parse_string ("int main() { return " ^ src ^ "; }") with
    | [ Ast.Func_decl { f_body = [ Ast.Return (Some e) ]; _ } ] -> e
    | _ -> assert false
  in
  (* i*16 + j + 3: coefficient 16, range [3, 12] *)
  (match Affine.of_expr env (expr_of "i * 16 + j + 3") with
  | Some f ->
    check Alcotest.int "icoeff" 16 f.Affine.icoeff;
    check Alcotest.int "lo" 3 f.Affine.lo;
    check Alcotest.int "hi" 12 f.Affine.hi
  | None -> Alcotest.fail "affine");
  (* modified variables are not affine *)
  check Alcotest.bool "tmp rejected" true
    (Affine.of_expr env (expr_of "i + tmp") = None);
  (* invariant atoms *)
  (match Affine.of_expr env (expr_of "i * 8 + n * 4") with
  | Some f -> check Alcotest.int "inv atoms" 1 (List.length f.Affine.inv)
  | None -> Alcotest.fail "invariant affine");
  (* i*j is not affine *)
  check Alcotest.bool "i*j rejected" true
    (Affine.of_expr env (expr_of "i * j") = None)

let test_structs () =
  (* layout: chars pack, words align to 8 *)
  (match parse "struct s { char c; int n; float f; };" with
  | [ Ast.Struct_decl sd ] ->
    check Alcotest.int "size" 24 sd.Ast.s_size;
    check Alcotest.bool "offsets" true
      (sd.Ast.s_fields
      = [ ("c", (0, Ast.Char)); ("n", (8, Ast.Int)); ("f", (16, Ast.Float)) ])
  | _ -> Alcotest.fail "struct parse");
  (* field access + pointer-to-struct, end to end *)
  let m =
    lower
      "struct point { float x; float y; };\n\
       global struct point pts[4];\n\
       int main() {\n\
       pts[1].x = 2.5; \n\
       struct point* p = &pts[1];\n\
       p->y = p->x * 2.0;\n\
       return (int) pts[1].y;\n\
       }"
  in
  Cgcm_ir.Verifier.verify_modul m;
  (* errors *)
  let expect_err src =
    match lower src with
    | exception Lower.Sema_error _ -> ()
    | _ -> Alcotest.fail ("expected sema error on: " ^ src)
  in
  expect_err
    "struct s { int a; };\nint main() { struct s v; v.b = 1; return 0; }";
  expect_err
    "struct s { int a; };\nvoid id(struct s v) { }\nint main() { return 0; }";
  expect_err
    "struct s { int a; };\nint main() { struct s u; struct s v; u = v; return 0; }";
  (* undefined struct use *)
  (match parse "int main() { struct nope v; return 0; }" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected undefined-struct error")

let test_struct_roundtrip () =
  let src =
    "struct point {\nfloat x;\nfloat y;\n};\n\
     global struct point pts[4];\n\
     int main() { pts[0].x = 1.0; struct point* p = &pts[0]; p->y = 2.0;\n\
     print(pts[0].x + pts[0].y); return 0; }"
  in
  let ast1 = parse src in
  let printed = Ast.program_to_string ast1 in
  let ast2 = parse printed in
  if ast1 <> ast2 then Alcotest.fail ("struct round trip:\n" ^ printed)

let test_cross_iteration_overlap () =
  (* write a*i + [0,9], read a*i + [0,9], a = 16: disjoint *)
  check Alcotest.bool "disjoint" false
    (Affine.cross_iteration_overlap ~a:16 ~w:(0, 9) ~r:(0, 9));
  (* stencil: read at offset -16 with a = 16 overlaps the previous row *)
  check Alcotest.bool "stencil conflict" true
    (Affine.cross_iteration_overlap ~a:16 ~w:(0, 9) ~r:(-16, -7));
  (* footprint wider than the stride overlaps *)
  check Alcotest.bool "wide footprint" true
    (Affine.cross_iteration_overlap ~a:4 ~w:(0, 9) ~r:(0, 9));
  (* a = 0 always conflicts *)
  check Alcotest.bool "zero stride" true
    (Affine.cross_iteration_overlap ~a:0 ~w:(0, 0) ~r:(0, 0))

let tests =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex operators" `Quick test_lex_ops;
    Alcotest.test_case "lex string escapes" `Quick test_lex_string_escapes;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "lex positions" `Quick test_lex_positions;
    Alcotest.test_case "parse global" `Quick test_parse_global;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse cast vs paren" `Quick test_parse_cast_vs_paren;
    Alcotest.test_case "parse pointer types" `Quick test_parse_pointer_types;
    Alcotest.test_case "parse parallel for" `Quick test_parse_parallel_for;
    Alcotest.test_case "parse launch" `Quick test_parse_launch;
    Alcotest.test_case "parse ternary" `Quick test_parse_ternary_shortcircuit;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "round trip programs" `Quick test_roundtrip_programs;
    Alcotest.test_case "round trip 24-program suite" `Quick
      test_roundtrip_suite;
    Alcotest.test_case "lower simple" `Quick test_lower_simple;
    Alcotest.test_case "lower errors" `Quick test_lower_errors;
    Alcotest.test_case "lower globals" `Quick test_lower_globals;
    Alcotest.test_case "lower pointer globals" `Quick test_lower_ptr_globals;
    Alcotest.test_case "const eval" `Quick test_const_eval;
    Alcotest.test_case "affine forms" `Quick test_affine_forms;
    Alcotest.test_case "cross-iteration overlap" `Quick
      test_cross_iteration_overlap;
    Alcotest.test_case "structs" `Quick test_structs;
    Alcotest.test_case "struct round trip" `Quick test_struct_roundtrip;
  ]
