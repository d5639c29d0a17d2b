(* Tests for the compiler transformations: communication management
   insertion, map promotion (Listing 3 -> Listing 4), alloca promotion,
   glue kernels, and the DOALL outliner. *)

module Ir = Cgcm_ir.Ir
module Parser = Cgcm_frontend.Parser
module Doall = Cgcm_frontend.Doall
module Lower = Cgcm_frontend.Lower
module Comm_mgmt = Cgcm_transform.Comm_mgmt
module Pass = Cgcm_transform.Pass
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Loops = Cgcm_analysis.Loops

let check = Alcotest.check

let compile_to ?(parallel = Doall.Auto) level src =
  (Pipeline.compile ~parallel ~level src).Pipeline.modul

(* Count calls to [name] in function [f], optionally restricted to loops. *)
let count_calls ?(in_loops = false) (f : Ir.func) name =
  let loops = Loops.analyze f in
  let in_a_loop bi =
    Array.exists (fun l -> Loops.in_loop l bi) loops.Loops.loops
  in
  Ir.fold_instrs
    (fun acc bi i ->
      match i with
      | Ir.Call (_, n, _) when n = name && ((not in_loops) || in_a_loop bi) ->
        acc + 1
      | _ -> acc)
    0 f

let count_launches (f : Ir.func) =
  Ir.fold_instrs
    (fun acc _ i -> match i with Ir.Launch _ -> acc + 1 | _ -> acc)
    0 f

(* ------------------------------------------------------------------ *)
(* DOALL outliner                                                      *)

let test_doall_positive () =
  let ast =
    Parser.parse_string
      "global float A[64];\n\
       global float B[64];\n\
       int main() { for (int i = 0; i < 64; i++) { B[i] = A[i] * 2.0; }\n\
       return 0; }"
  in
  let _, report = Doall.transform ~mode:Doall.Auto ast in
  check Alcotest.int "one kernel" 1 (List.length report.Doall.kernels)

let test_doall_negatives () =
  let count src =
    let ast = Parser.parse_string src in
    let _, report = Doall.transform ~mode:Doall.Auto ast in
    List.length report.Doall.kernels
  in
  (* loop-carried scalar dependence (reduction) *)
  check Alcotest.int "reduction" 0
    (count
       "global float A[64];\n\
        int main() { float s = 0.0;\n\
        for (int i = 0; i < 64; i++) { s = s + A[i]; } print(s); return 0; }");
  (* cross-iteration array dependence *)
  check Alcotest.int "recurrence" 0
    (count
       "global float A[64];\n\
        int main() {\n\
        for (int i = 1; i < 64; i++) { A[i] = A[i - 1] + 1.0; } return 0; }");
  (* may-alias through pointers *)
  check Alcotest.int "pointer alias" 0
    (count
       "int main() { float* p = (float*) malloc(512);\n\
        float* q = p;\n\
        for (int i = 0; i < 8; i++) { p[i] = q[i] + 1.0; } return 0; }");
  (* non-pure call in the body *)
  check Alcotest.int "call in body" 0
    (count
       "global float A[8];\n\
        int main() { for (int i = 0; i < 8; i++) { print(i); A[i] = 0.0; }\n\
        return 0; }");
  (* same element written every iteration *)
  check Alcotest.int "same cell" 0
    (count
       "global float A[8];\n\
        int main() { for (int i = 0; i < 8; i++) { A[0] = i * 1.0; }\n\
        return 0; }")

let test_doall_stencil_two_arrays () =
  (* jacobi-style: reads A at i-1/i+1, writes B: fine because the roots
     are distinct arrays *)
  let ast =
    Parser.parse_string
      "global float A[64];\nglobal float B[64];\n\
       int main() {\n\
       for (int i = 1; i < 63; i++) { B[i] = A[i-1] + A[i] + A[i+1]; }\n\
       return 0; }"
  in
  let _, report = Doall.transform ~mode:Doall.Auto ast in
  check Alcotest.int "stencil parallel" 1 (List.length report.Doall.kernels)

let test_doall_stencil_same_array_rejected () =
  let ast =
    Parser.parse_string
      "global float A[64];\n\
       int main() {\n\
       for (int i = 1; i < 63; i++) { A[i] = A[i-1] + A[i+1]; }\n\
       return 0; }"
  in
  let _, report = Doall.transform ~mode:Doall.Auto ast in
  check Alcotest.int "rejected" 0 (List.length report.Doall.kernels)

let test_doall_2d_rows () =
  (* row-disjoint writes with a constant inner bound parallelize, and the
     perfect nest flattens into one 2-D kernel *)
  let ast =
    Parser.parse_string
      "global float A[16][16];\n\
       int main() {\n\
       for (int i = 0; i < 16; i++) {\n\
       for (int j = 0; j < 16; j++) { A[i][j] = i + j * 2.0; } }\n\
       return 0; }"
  in
  let ast', report = Doall.transform ~mode:Doall.Auto ast in
  check Alcotest.int "one kernel" 1 (List.length report.Doall.kernels);
  (* the launch trip count must be 16*16 = 256 *)
  let m = Lower.lower_program ast' in
  let main = Ir.find_func_exn m "main" in
  check Alcotest.int "one launch" 1 (count_launches main)

let test_doall_manual_annotation () =
  (* the conservative test rejects this column-interleaved write, but the
     annotation forces it *)
  let src kw =
    "global float A[8][8];\n\
     int main() {\n" ^ kw
    ^ " for (int j = 0; j < 8; j++) {\n\
       for (int i = 1; i < 8; i++) { A[i][j] = A[i-1][j] * 0.5; } }\n\
       return 0; }"
  in
  let auto_count mode s =
    let _, r = Doall.transform ~mode (Parser.parse_string s) in
    List.length r.Doall.kernels
  in
  check Alcotest.int "auto rejects" 0 (auto_count Doall.Auto (src ""));
  check Alcotest.int "annotation accepted" 1
    (auto_count Doall.Auto (src "parallel"));
  check Alcotest.int "manual-only honours annotation" 1
    (auto_count Doall.Manual_only (src "parallel"))

let test_doall_off_strips () =
  let ast =
    Parser.parse_string
      "global float A[8];\n\
       int main() { parallel for (int i = 0; i < 8; i++) { A[i] = 1.0; }\n\
       return 0; }"
  in
  let ast', report = Doall.transform ~mode:Doall.Off ast in
  check Alcotest.int "no kernels" 0 (List.length report.Doall.kernels);
  (* lowering must not see any 'parallel' annotation *)
  ignore (Lower.lower_program ast')

let test_doall_downward_loop () =
  let src =
    "global float A[32];\n\
     int main() { for (int i = 31; i >= 0; i--) { A[i] = i * 1.0; }\n\
     float s = 0.0; for (int i = 0; i < 32; i++) { s = s + A[i]; }\n\
     print(s); return 0; }"
  in
  let ast, report = Doall.transform ~mode:Doall.Auto (Parser.parse_string src) in
  check Alcotest.int "downward kernel" 1 (List.length report.Doall.kernels);
  ignore ast;
  (* and it computes the same thing *)
  let _, seq = Pipeline.run Pipeline.Sequential src in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
  check Alcotest.string "output" seq.Interp.output opt.Interp.output

(* ------------------------------------------------------------------ *)
(* Communication management                                            *)

let managed_example =
  "global float A[64];\n\
   global float B[64];\n\
   int main() {\n\
   for (int i = 0; i < 64; i++) { A[i] = i * 0.5; B[i] = 0.0; }\n\
   for (int t = 0; t < 4; t++) {\n\
   for (int i = 0; i < 64; i++) { B[i] = B[i] + A[i]; } }\n\
   float s = 0.0; for (int i = 0; i < 64; i++) { s = s + B[i]; }\n\
   print(s); return 0; }"

let test_comm_mgmt_inserts_calls () =
  let m = compile_to Pipeline.Managed managed_example in
  let main = Ir.find_func_exn m "main" in
  let maps = count_calls main Ir.Intrinsic.map in
  let unmaps = count_calls main Ir.Intrinsic.unmap in
  let releases = count_calls main Ir.Intrinsic.release in
  check Alcotest.bool "maps inserted" true (maps > 0);
  check Alcotest.int "map/release balance" maps releases;
  check Alcotest.int "map/unmap balance" maps unmaps

let test_comm_mgmt_scalars_unmanaged () =
  (* scalar launch operands are not wrapped in map calls *)
  let m =
    compile_to Pipeline.Managed
      "global float A[8];\n\
       int main() { float v = 2.0;\n\
       for (int i = 0; i < 8; i++) { A[i] = v * i; } return 0; }"
  in
  let main = Ir.find_func_exn m "main" in
  (* only the global A needs communication: one map per launch site *)
  check Alcotest.int "one map" 1 (count_calls main Ir.Intrinsic.map)

let test_unmanaged_split_fails () =
  (* without management, launches carry CPU pointers: device execution
     must fault (it is only correct in unified memory) *)
  let m = compile_to Pipeline.Unmanaged managed_example in
  match Interp.run m with
  | exception _ -> ()
  | r ->
    (* if it does not fault, it must at least produce wrong output versus
       the sequential run (a stale-data symptom, cf. Section 1) *)
    let _, seq = Pipeline.run Pipeline.Sequential managed_example in
    check Alcotest.bool "unmanaged split is wrong" true
      (r.Interp.output <> seq.Interp.output)

(* ------------------------------------------------------------------ *)
(* Map promotion                                                       *)

let test_map_promotion_listing4 () =
  (* Listing 3 -> Listing 4: after promotion no unmap stays inside the
     loop, and a map is available in the preheader *)
  let m = compile_to Pipeline.Managed managed_example in
  Pass.run_pipeline [ Pass.fixpoint [ Pass.Atom Pass.map_promotion ] ] m;
  let main = Ir.find_func_exn m "main" in
  check Alcotest.int "no unmap in loops" 0
    (count_calls ~in_loops:true main Ir.Intrinsic.unmap);
  (* translation maps stay inside the loop (they are copies, not moves) *)
  check Alcotest.bool "translation maps remain" true
    (count_calls ~in_loops:true main Ir.Intrinsic.map > 0)

let test_map_promotion_transfers () =
  (* optimized runs transfer each array roughly once per direction;
     unoptimized transfers every iteration *)
  let _, unopt = Pipeline.run Pipeline.Cgcm_unoptimized managed_example in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized managed_example in
  let htod r = r.Interp.dev_stats.Cgcm_gpusim.Device.htod_count in
  let dtoh r = r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count in
  check Alcotest.bool "cyclic pattern" true (htod unopt > 6);
  (* the standalone init launch re-uploads once; the time loop itself is
     acyclic, so at most two uploads per array overall *)
  check Alcotest.bool "acyclic HtoD" true (htod opt <= 5);
  check Alcotest.bool "acyclic DtoH" true (dtoh opt <= 4);
  check Alcotest.bool "far fewer transfers" true (htod opt * 2 < htod unopt);
  check Alcotest.string "same output" unopt.Interp.output opt.Interp.output

let test_map_promotion_blocked_by_cpu_access () =
  (* the CPU reads B inside the loop: promotion of B must not remove the
     per-iteration unmap (modOrRef), and the output stays correct *)
  let src =
    "global float B[32];\n\
     int main() {\n\
     float s = 0.0;\n\
     for (int t = 0; t < 3; t++) {\n\
     for (int i = 0; i < 32; i++) { B[i] = B[i] + 1.0; }\n\
     s = s + B[0];\n\
     }\n\
     print(s); return 0; }"
  in
  let _, seq = Pipeline.run Pipeline.Sequential src in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
  check Alcotest.string "correct despite CPU reads" seq.Interp.output
    opt.Interp.output;
  (* B must still be copied back every iteration: > 1 DtoH *)
  check Alcotest.bool "still cyclic" true
    (opt.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count >= 3)

let test_function_level_promotion () =
  (* maps climb from the callee to the caller's loop *)
  let src =
    "global float A[32];\n\
     void bump() { for (int i = 0; i < 32; i++) { A[i] = A[i] + 1.0; } }\n\
     int main() {\n\
     for (int i = 0; i < 32; i++) { A[i] = 0.0; }\n\
     for (int t = 0; t < 5; t++) { bump(); }\n\
     print(A[7]); return 0; }"
  in
  let m = compile_to Pipeline.Optimized src in
  let bump = Ir.find_func_exn m "bump" in
  check Alcotest.int "no unmap left in callee" 0
    (count_calls bump Ir.Intrinsic.unmap);
  let _, seq = Pipeline.run Pipeline.Sequential src in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
  check Alcotest.string "output" seq.Interp.output opt.Interp.output;
  (* one HtoD for A overall *)
  check Alcotest.bool "single upload" true
    (opt.Interp.dev_stats.Cgcm_gpusim.Device.htod_count <= 2)

(* ------------------------------------------------------------------ *)
(* Glue kernels                                                        *)

let glue_example =
  "global float q[1];\n\
   global float data[64];\n\
   int main() {\n\
   q[0] = 1.0;\n\
   for (int t = 0; t < 6; t++) {\n\
   parallel for (int i = 0; i < 64; i++) { data[i] = data[i] + q[0]; }\n\
   q[0] = q[0] * 0.5;\n\
   parallel for (int i = 0; i < 64; i++) { data[i] = data[i] * 1.25; }\n\
   }\n\
   float s = 0.0; for (int i = 0; i < 64; i++) { s = s + data[i]; }\n\
   print(s); return 0; }"

let test_glue_kernels_created () =
  let m = compile_to Pipeline.Optimized glue_example in
  let glue =
    List.filter
      (fun (f : Ir.func) ->
        f.Ir.fkind = Ir.Kernel
        && String.length f.Ir.fname >= 6
        && String.sub f.Ir.fname 0 6 = "__glue")
      m.Ir.funcs
  in
  check Alcotest.bool "glue kernel exists" true (glue <> [])

let test_glue_correct_and_acyclic () =
  let _, seq = Pipeline.run Pipeline.Sequential glue_example in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized glue_example in
  check Alcotest.string "output" seq.Interp.output opt.Interp.output;
  (* with the glue kernel, the time loop has no transfers at all *)
  check Alcotest.bool "acyclic" true
    (opt.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count <= 3)

(* ------------------------------------------------------------------ *)
(* Alloca promotion                                                    *)

let alloca_example =
  "global float out[32];\n\
   void work(float seedv) {\n\
   float tmp[32];\n\
   parallel for (int i = 0; i < 32; i++) { tmp[i] = seedv + i; }\n\
   parallel for (int i = 0; i < 32; i++) { out[i] = out[i] + tmp[i]; }\n\
   }\n\
   int main() {\n\
   for (int t = 0; t < 4; t++) { work(t * 1.0); }\n\
   float s = 0.0; for (int i = 0; i < 32; i++) { s = s + out[i]; }\n\
   print(s); return 0; }"

let test_alloca_promotion () =
  let m = compile_to Pipeline.Optimized alloca_example in
  let work = Ir.find_func_exn m "work" in
  (* the escaping local was promoted: work gained a parameter and lost
     the alloca *)
  check Alcotest.int "extra parameter" 2 work.Ir.nargs;
  let allocas =
    Ir.fold_instrs
      (fun acc _ i ->
        match i with
        | Ir.Alloca (_, _, info) when info.Ir.aregistered -> acc + 1
        | _ -> acc)
      0 work
  in
  check Alcotest.int "registered alloca moved out" 0 allocas;
  let _, seq = Pipeline.run Pipeline.Sequential alloca_example in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized alloca_example in
  check Alcotest.string "output" seq.Interp.output opt.Interp.output

(* ------------------------------------------------------------------ *)
(* Pass pipeline invariants                                            *)

let test_passes_idempotent_validity () =
  (* running the optimizer twice keeps the module verifiable and the
     semantics intact *)
  let m = compile_to Pipeline.Optimized managed_example in
  Pass.run_pipeline
    [
      Pass.Atom Pass.glue_kernels;
      Pass.fixpoint ~max_iter:8 [ Pass.Atom Pass.alloca_promotion ];
      Pass.fixpoint [ Pass.Atom Pass.map_promotion ];
    ]
    m;
  Cgcm_ir.Verifier.verify_modul m;
  let r = Interp.run m in
  let _, seq = Pipeline.run Pipeline.Sequential managed_example in
  check Alcotest.string "still correct" seq.Interp.output r.Interp.output

let tests =
  [
    Alcotest.test_case "doall positive" `Quick test_doall_positive;
    Alcotest.test_case "doall negatives" `Quick test_doall_negatives;
    Alcotest.test_case "doall stencil two arrays" `Quick
      test_doall_stencil_two_arrays;
    Alcotest.test_case "doall stencil same array" `Quick
      test_doall_stencil_same_array_rejected;
    Alcotest.test_case "doall 2-D flattening" `Quick test_doall_2d_rows;
    Alcotest.test_case "doall manual annotation" `Quick
      test_doall_manual_annotation;
    Alcotest.test_case "doall off strips annotations" `Quick
      test_doall_off_strips;
    Alcotest.test_case "doall downward loop" `Quick test_doall_downward_loop;
    Alcotest.test_case "comm mgmt inserts calls" `Quick
      test_comm_mgmt_inserts_calls;
    Alcotest.test_case "comm mgmt leaves scalars" `Quick
      test_comm_mgmt_scalars_unmanaged;
    Alcotest.test_case "unmanaged split is incorrect" `Quick
      test_unmanaged_split_fails;
    Alcotest.test_case "map promotion (Listing 4)" `Quick
      test_map_promotion_listing4;
    Alcotest.test_case "map promotion transfer counts" `Quick
      test_map_promotion_transfers;
    Alcotest.test_case "map promotion blocked by modOrRef" `Quick
      test_map_promotion_blocked_by_cpu_access;
    Alcotest.test_case "function-level promotion" `Quick
      test_function_level_promotion;
    Alcotest.test_case "glue kernels created" `Quick test_glue_kernels_created;
    Alcotest.test_case "glue kernels acyclic + correct" `Quick
      test_glue_correct_and_acyclic;
    Alcotest.test_case "alloca promotion" `Quick test_alloca_promotion;
    Alcotest.test_case "repeated optimization is safe" `Quick
      test_passes_idempotent_validity;
  ]
