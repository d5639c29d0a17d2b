(* Tests for the IR simplifier: constant folding, algebraic identities,
   dead-code elimination, effect preservation. *)

module Ir = Cgcm_ir.Ir
module Builder = Cgcm_ir.Builder
module Pass = Cgcm_transform.Pass
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp

let check = Alcotest.check

let instr_count (f : Ir.func) =
  Ir.fold_instrs (fun n _ _ -> n + 1) 0 f

let simplify f =
  Pass.run_pipeline [ Pass.Atom Pass.simplify ] { Ir.globals = []; funcs = [ f ] }

let test_constant_folding () =
  let b = Builder.create ~name:"f" ~nargs:0 ~kind:Ir.Cpu in
  (* ((64 - 0) + 0) / 1  — the outliner's trip chain *)
  let a = Builder.binop b Ir.Sub (Ir.imm 64) (Ir.imm 0) in
  let c = Builder.binop b Ir.Add a (Ir.imm 0) in
  let d = Builder.binop b Ir.Div c (Ir.imm 1) in
  Builder.ret b (Some d);
  let f = Builder.finish b in
  simplify f;
  check Alcotest.int "chain folded away" 0 (instr_count f);
  (match f.Ir.blocks.(0).Ir.term with
  | Ir.Ret (Some (Ir.Imm_int 64L)) -> ()
  | _ -> Alcotest.fail "terminator not folded")

let test_identities () =
  let b = Builder.create ~name:"f" ~nargs:1 ~kind:Ir.Cpu in
  let x = Ir.Reg 0 in
  let a = Builder.binop b Ir.Add x (Ir.imm 0) in
  let m = Builder.binop b Ir.Mul a (Ir.imm 1) in
  let z = Builder.binop b Ir.Mul m (Ir.imm 0) in
  let r = Builder.binop b Ir.Add m z in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  simplify f;
  check Alcotest.int "identities collapse" 0 (instr_count f);
  (match f.Ir.blocks.(0).Ir.term with
  | Ir.Ret (Some (Ir.Reg 0)) -> ()
  | t -> Alcotest.failf "expected ret %%r0, got %s" (Fmt.str "%a" Cgcm_ir.Printer.pp_term t))

let test_division_by_zero_not_folded () =
  let b = Builder.create ~name:"f" ~nargs:0 ~kind:Ir.Cpu in
  let d = Builder.binop b Ir.Div (Ir.imm 5) (Ir.imm 0) in
  Builder.ret b (Some d);
  let f = Builder.finish b in
  simplify f;
  (* the faulting division must survive so execution still traps *)
  check Alcotest.int "kept" 1 (instr_count f)

let test_effects_preserved () =
  let b = Builder.create ~name:"f" ~nargs:0 ~kind:Ir.Cpu in
  let slot = Builder.alloca b (Ir.imm 8) in
  Builder.store b Ir.I64 slot (Ir.imm 1);
  let dead = Builder.binop b Ir.Add (Ir.imm 2) (Ir.imm 3) in
  ignore dead;
  Builder.call_void b "print_i64" [ Ir.imm 9 ];
  Builder.ret b None;
  let f = Builder.finish b in
  simplify f;
  (* alloca, store and call stay; the dead add goes *)
  check Alcotest.int "three effects remain" 3 (instr_count f)

let test_float_folding () =
  let b = Builder.create ~name:"f" ~nargs:0 ~kind:Ir.Cpu in
  let a = Builder.binop b Ir.Fmul (Ir.Imm_float 2.0) (Ir.Imm_float 3.5) in
  let c = Builder.unop b Ir.Float_to_int a in
  Builder.ret b (Some c);
  let f = Builder.finish b in
  simplify f;
  (match f.Ir.blocks.(0).Ir.term with
  | Ir.Ret (Some (Ir.Imm_int 7L)) -> ()
  | _ -> Alcotest.fail "float chain not folded")

let test_end_to_end_equivalence () =
  (* simplification must not change observable behaviour on a program
     exercising every operator *)
  let src =
    "global float x[16];\n\
     int main() {\n\
     int a = (16 - 0 + 0) / 1 * 2;\n\
     float b = 2.0 * 3.5 - 1.0;\n\
     for (int i = 0; i < 16; i++) { x[i] = i * b + a; }\n\
     float s = 0.0;\n\
     for (int i = 0; i < 16; i++) { s = s + x[i]; }\n\
     print(s); print(a); return 0; }"
  in
  let _, seq = Pipeline.run Pipeline.Sequential src in
  check Alcotest.string "values" "1232\n32\n" seq.Interp.output

let tests =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "algebraic identities" `Quick test_identities;
    Alcotest.test_case "div-by-zero kept" `Quick test_division_by_zero_not_folded;
    Alcotest.test_case "effects preserved" `Quick test_effects_preserved;
    Alcotest.test_case "float folding" `Quick test_float_folding;
    Alcotest.test_case "end-to-end equivalence" `Quick
      test_end_to_end_equivalence;
  ]
