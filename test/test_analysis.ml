(* Tests for the IR-level analyses: natural loops, alias /
   underlying objects, interprocedural mod/ref, and the paper's use-based
   pointer type inference. *)

module Ir = Cgcm_ir.Ir
module Loops = Cgcm_analysis.Loops
module Alias = Cgcm_analysis.Alias
module Modref = Cgcm_analysis.Modref
module Typeinfer = Cgcm_analysis.Typeinfer
module Callgraph = Cgcm_analysis.Callgraph
module Parser = Cgcm_frontend.Parser
module Lower = Cgcm_frontend.Lower

let check = Alcotest.check

let lower src = Lower.lower_program (Parser.parse_string src)

(* A function with a doubly nested loop. *)
let nested_loops_func () =
  let m =
    lower
      "int main() {\n\
      \  int s = 0;\n\
      \  for (int i = 0; i < 4; i++) {\n\
      \    for (int j = 0; j < 4; j++) {\n\
      \      s = s + i * j;\n\
      \    }\n\
      \  }\n\
      \  return s;\n\
      }"
  in
  Ir.find_func_exn m "main"

let test_loop_detection () =
  let f = nested_loops_func () in
  let t = Loops.analyze f in
  check Alcotest.int "two loops" 2 (Array.length t.Loops.loops);
  let order = Loops.innermost_first t in
  let inner = t.Loops.loops.(List.hd order) in
  let outer = t.Loops.loops.(List.nth order 1) in
  check Alcotest.int "inner depth" 2 inner.Loops.depth;
  check Alcotest.int "outer depth" 1 outer.Loops.depth;
  check Alcotest.bool "nesting" true
    (List.for_all (fun b -> List.mem b outer.Loops.body) inner.Loops.body);
  check Alcotest.bool "strictly smaller" true
    (List.length inner.Loops.body < List.length outer.Loops.body)

let test_loop_exits_entries () =
  let f = nested_loops_func () in
  let t = Loops.analyze f in
  Array.iter
    (fun l ->
      check Alcotest.bool "has exit" true (Loops.exit_edges f l <> []);
      check Alcotest.bool "has entry" true (Loops.entry_edges f l <> []))
    t.Loops.loops

let test_no_loops () =
  let m = lower "int main() { return 1 + 2; }" in
  let f = Ir.find_func_exn m "main" in
  let t = Loops.analyze f in
  check Alcotest.int "none" 0 (Array.length t.Loops.loops)

(* ------------------------------------------------------------------ *)

let test_underlying_objects () =
  let m =
    lower
      "global float G[8];\n\
       int main() {\n\
      \  float local[4];\n\
      \  float* h = (float*) malloc(64);\n\
      \  G[2] = 1.0;\n\
      \  local[1] = 2.0;\n\
      \  h[3] = 3.0;\n\
      \  return 0;\n\
       }"
  in
  let f = Ir.find_func_exn m "main" in
  let alias = Alias.analyze f in
  (* collect the address objects of all stores *)
  let objs =
    Ir.fold_instrs
      (fun acc _ i ->
        match i with
        | Ir.Store (Ir.F64, addr, _) -> Alias.underlying alias addr :: acc
        | _ -> acc)
      [] f
  in
  let has p = List.exists p objs in
  check Alcotest.bool "global" true
    (has (function Alias.Obj_global "G" -> true | _ -> false));
  check Alcotest.bool "alloca" true
    (has (function Alias.Obj_alloca _ -> true | _ -> false));
  check Alcotest.bool "heap" true
    (has (function Alias.Obj_heap _ -> true | _ -> false));
  (* distinct concrete objects never alias; unknown aliases everything *)
  check Alcotest.bool "no-alias" false
    (Alias.may_alias (Alias.Obj_global "G") (Alias.Obj_global "H"));
  check Alcotest.bool "unknown aliases" true
    (Alias.may_alias Alias.Obj_unknown (Alias.Obj_global "G"))

let test_escaping_allocas () =
  let m =
    lower
      "void sink(float* p) { }\n\
       int main() {\n\
      \  float kept[4];\n\
      \  float leaked[4];\n\
      \  kept[0] = 1.0;\n\
      \  sink(leaked);\n\
      \  return 0;\n\
       }"
  in
  let f = Ir.find_func_exn m "main" in
  let escaping = Alias.escaping_allocas f in
  (* 'leaked' escapes through the call; 'kept' does not. Slots for locals
     are also allocas, but only address-taken ones escape. *)
  let names =
    Ir.fold_instrs
      (fun acc _ i ->
        match i with
        | Ir.Alloca (d, _, info) when List.mem d escaping ->
          info.Ir.aname :: acc
        | _ -> acc)
      [] f
  in
  check Alcotest.bool "leaked escapes" true (List.mem "leaked" names);
  check Alcotest.bool "kept stays" false (List.mem "kept" names)

(* ------------------------------------------------------------------ *)

let test_modref_summaries () =
  let m =
    lower
      "global float A[8];\n\
       global float B[8];\n\
       void touch_a() { A[0] = 1.0; }\n\
       void chain() { touch_a(); }\n\
       void deref(float* p) { p[0] = 1.0; }\n\
       void pure_fn(int x) { print(x); }\n\
       int main() { touch_a(); chain(); deref(B); pure_fn(1); return 0; }"
  in
  let t = Modref.compute m in
  let touches callee obj = Modref.call_may_touch t ~callee obj in
  check Alcotest.bool "touch_a touches A" true
    (touches "touch_a" (Alias.Obj_global "A"));
  check Alcotest.bool "touch_a spares B" false
    (touches "touch_a" (Alias.Obj_global "B"));
  check Alcotest.bool "transitive through chain" true
    (touches "chain" (Alias.Obj_global "A"));
  check Alcotest.bool "deref is unknown" true
    (touches "deref" (Alias.Obj_global "B"));
  check Alcotest.bool "pure_fn spares A" false
    (touches "pure_fn" (Alias.Obj_global "A"));
  check Alcotest.bool "unknown callee conservative" true
    (touches "nonexistent" (Alias.Obj_global "A"))

let test_callgraph () =
  let m =
    lower
      "void leaf() {}\n\
       void mid() { leaf(); }\n\
       void rec_f() { rec_f(); }\n\
       int main() { mid(); mid(); rec_f(); return 0; }"
  in
  let cg = Callgraph.compute m in
  check Alcotest.int "mid call sites" 2
    (List.length (Callgraph.call_sites cg "mid"));
  check Alcotest.bool "recursive" true (Callgraph.is_recursive cg "rec_f");
  check Alcotest.bool "main not recursive" false
    (Callgraph.is_recursive cg "main");
  check Alcotest.bool "leaf not recursive" false
    (Callgraph.is_recursive cg "leaf")

(* ------------------------------------------------------------------ *)
(* Type inference (Section 4): classification of kernel live-ins.       *)

let infer src kernel =
  let m = lower src in
  Typeinfer.infer_kernel (Ir.find_func_exn m kernel)

let cls_testable =
  Alcotest.testable
    (fun ppf c -> Fmt.string ppf (Typeinfer.cls_to_string c))
    ( = )

let test_infer_scalar_vs_pointer () =
  let t =
    infer
      "kernel void k(int tid, float* data, int n, float scale) {\n\
      \  data[tid] = data[tid] * scale + n;\n\
       }\n\
       int main() { return 0; }"
      "k"
  in
  check cls_testable "tid scalar" Typeinfer.Scalar t.Typeinfer.param_cls.(0);
  check cls_testable "data pointer" Typeinfer.Pointer t.Typeinfer.param_cls.(1);
  check cls_testable "n scalar" Typeinfer.Scalar t.Typeinfer.param_cls.(2);
  check cls_testable "scale scalar" Typeinfer.Scalar t.Typeinfer.param_cls.(3)

let test_infer_double_pointer () =
  let t =
    infer
      "kernel void k(int tid, float** rows) {\n\
      \  float* r = rows[tid];\n\
      \  r[0] = 1.0;\n\
       }\n\
       int main() { return 0; }"
      "k"
  in
  check cls_testable "rows double" Typeinfer.Double_pointer
    t.Typeinfer.param_cls.(1)

let test_infer_through_arithmetic () =
  (* pointer-ness flows through additions and casts, not multiplications *)
  let t =
    infer
      "kernel void k(int tid, float* base, int stride) {\n\
      \  float* p = (float*)((int)base + tid * stride * 8);\n\
      \  p[0] = 0.5;\n\
       }\n\
       int main() { return 0; }"
      "k"
  in
  check cls_testable "base pointer" Typeinfer.Pointer t.Typeinfer.param_cls.(1);
  check cls_testable "stride scalar" Typeinfer.Scalar t.Typeinfer.param_cls.(2)

let test_infer_globals () =
  let t =
    infer
      "global float G[16];\n\
       global float* H;\n\
       kernel void k(int tid) {\n\
      \  G[tid] = H[tid];\n\
       }\n\
       int main() { return 0; }"
      "k"
  in
  let g = List.assoc "G" t.Typeinfer.global_cls in
  let h = List.assoc "H" t.Typeinfer.global_cls in
  check cls_testable "array global is a pointer" Typeinfer.Pointer g;
  check cls_testable "pointer global is a double pointer"
    Typeinfer.Double_pointer h

let test_infer_slot_flow () =
  (* a pointer stored into a kernel-local and reloaded keeps its class *)
  let t =
    infer
      "kernel void k(int tid, float* data) {\n\
      \  float* alias = data;\n\
      \  alias[tid] = 1.0;\n\
       }\n\
       int main() { return 0; }"
      "k"
  in
  check cls_testable "flows through locals" Typeinfer.Pointer
    t.Typeinfer.param_cls.(1)

let test_infer_unused_pointer () =
  let t =
    infer
      "kernel void k(int tid, float* unused) { int x = tid + 1; }\n\
       int main() { return 0; }"
      "k"
  in
  check cls_testable "never dereferenced" Typeinfer.Scalar
    t.Typeinfer.param_cls.(1)

let tests =
  [
    Alcotest.test_case "natural loops" `Quick test_loop_detection;
    Alcotest.test_case "loop exits/entries" `Quick test_loop_exits_entries;
    Alcotest.test_case "no loops" `Quick test_no_loops;
    Alcotest.test_case "underlying objects" `Quick test_underlying_objects;
    Alcotest.test_case "escaping allocas" `Quick test_escaping_allocas;
    Alcotest.test_case "modref summaries" `Quick test_modref_summaries;
    Alcotest.test_case "call graph" `Quick test_callgraph;
    Alcotest.test_case "infer scalar vs pointer" `Quick
      test_infer_scalar_vs_pointer;
    Alcotest.test_case "infer double pointer" `Quick test_infer_double_pointer;
    Alcotest.test_case "infer through arithmetic" `Quick
      test_infer_through_arithmetic;
    Alcotest.test_case "infer globals" `Quick test_infer_globals;
    Alcotest.test_case "infer slot flow" `Quick test_infer_slot_flow;
    Alcotest.test_case "infer unused pointer" `Quick test_infer_unused_pointer;
  ]
