(* End-to-end differential tests: every execution configuration must
   produce the same observable output as the sequential CPU run, for all
   24 benchmark programs (scaled down) and for property-generated random
   DOALL programs. Also checks cost-model orderings that the paper's
   evaluation depends on. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Doall = Cgcm_frontend.Doall
module Registry = Cgcm_progs.Registry

let check = Alcotest.check

(* Small instances of all 24 programs: fast enough for `dune runtest`. *)
let small_suite =
  [
    ("adi", Cgcm_progs.Polybench.adi ~n:10 ~steps:3 ());
    ("atax", Cgcm_progs.Polybench.atax ~n:12 ());
    ("bicg", Cgcm_progs.Polybench.bicg ~n:12 ());
    ("correlation", Cgcm_progs.Polybench.correlation ~n:10 ());
    ("covariance", Cgcm_progs.Polybench.covariance ~n:10 ());
    ("doitgen", Cgcm_progs.Polybench.doitgen ~n:6 ());
    ("gemm", Cgcm_progs.Polybench.gemm ~n:10 ());
    ("gemver", Cgcm_progs.Polybench.gemver ~n:12 ());
    ("gesummv", Cgcm_progs.Polybench.gesummv ~n:12 ());
    ("gramschmidt", Cgcm_progs.Polybench.gramschmidt ~n:8 ());
    ("jacobi-2d-imper", Cgcm_progs.Polybench.jacobi_2d ~n:10 ~steps:3 ());
    ("seidel", Cgcm_progs.Polybench.seidel ~n:10 ~steps:2 ());
    ("lu", Cgcm_progs.Polybench.lu ~n:10 ());
    ("ludcmp", Cgcm_progs.Polybench.ludcmp ~n:10 ());
    ("2mm", Cgcm_progs.Polybench.twomm ~n:10 ());
    ("3mm", Cgcm_progs.Polybench.threemm ~n:8 ());
    ("cfd", Cgcm_progs.Rodinia.cfd ~cells:40 ~steps:3 ());
    ("hotspot", Cgcm_progs.Rodinia.hotspot ~n:10 ~steps:3 ());
    ("kmeans", Cgcm_progs.Rodinia.kmeans ~points:40 ~dims:4 ~clusters:4 ~iters:3 ());
    ("lud", Cgcm_progs.Rodinia.lud ~n:10 ());
    ("nw", Cgcm_progs.Rodinia.nw ~n:12 ());
    ("srad", Cgcm_progs.Rodinia.srad ~n:10 ~steps:3 ());
    ("fm", Cgcm_progs.Others.fm ~samples:256 ~taps:4 ());
    ("blackscholes", Cgcm_progs.Others.blackscholes ~options:50 ());
  ]

(* Leak-free exit: only module globals may stay device-resident, every
   refcount has drained to zero, and the driver heap holds no live
   blocks the run-time no longer tracks. *)
let assert_leak_free name cname (r : Interp.result) =
  let l = r.Interp.leaks in
  let module Runtime = Cgcm_runtime.Runtime in
  if
    l.Runtime.resident_nonglobal <> 0
    || l.Runtime.refcount_sum <> 0
    || l.Runtime.leaked_dev_blocks <> 0
  then
    Alcotest.fail
      (Printf.sprintf
         "%s: %s leaks at exit: %d resident non-global units, refcount sum \
          %d, %d live device blocks (%d B)"
         name cname l.Runtime.resident_nonglobal l.Runtime.refcount_sum
         l.Runtime.leaked_dev_blocks l.Runtime.leaked_dev_bytes)

let differential name src =
  let _, seq = Pipeline.run Pipeline.Sequential src in
  let configs =
    [
      ("unified-unmanaged", Pipeline.Unified_oracle Pipeline.Unmanaged);
      ("unified-managed", Pipeline.Unified_oracle Pipeline.Managed);
      ("unified-optimized", Pipeline.Unified_oracle Pipeline.Optimized);
      ("inspector-executor", Pipeline.Inspector_executor_exec);
      ("cgcm-unoptimized", Pipeline.Cgcm_unoptimized);
      ("cgcm-optimized", Pipeline.Cgcm_optimized);
    ]
  in
  List.iter
    (fun (cname, exec) ->
      let _, r = Pipeline.run exec src in
      if r.Interp.output <> seq.Interp.output then
        Alcotest.fail
          (Printf.sprintf "%s: %s diverges\nseq: %sgot: %s" name cname
             seq.Interp.output r.Interp.output);
      assert_leak_free name cname r)
    configs

let struct_program =
  {|struct particle { float x; float vx; int id; };
global struct particle ps[64];
int main() {
  for (int i = 0; i < 64; i++) {
    ps[i].x = i * 0.5; ps[i].vx = 1.0 - i * 0.001; ps[i].id = i;
  }
  for (int t = 0; t < 5; t++) {
    for (int i = 0; i < 64; i++) {
      ps[i].x = ps[i].x + ps[i].vx * 0.1;
    }
  }
  float s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + ps[i].x; }
  print(s); return 0;
}
|}

let test_struct_differential () =
  differential "particles" struct_program;
  (* the struct-array loop parallelizes: the whole array is one
     allocation unit, moved wholesale (paper, Section 3.1) *)
  let c = Pipeline.compile ~level:Pipeline.Optimized struct_program in
  check Alcotest.bool "kernels found" true
    (List.length c.Pipeline.doall.Doall.kernels >= 2)

let test_differential_suite () =
  List.iter (fun (name, src) -> differential name src) small_suite

let test_full_size_sources_compile () =
  (* the registry's full-size programs must at least compile through the
     whole pipeline *)
  List.iter
    (fun (p : Registry.program) ->
      ignore
        (Pipeline.compile ~level:Pipeline.Optimized p.Registry.source))
    Registry.all

let test_every_program_finds_kernels () =
  List.iter
    (fun (name, src) ->
      let c = Pipeline.compile ~level:Pipeline.Optimized src in
      let expected_min = if name = "seidel" then 1 else 2 in
      let n = List.length c.Pipeline.doall.Doall.kernels in
      if n < expected_min then
        Alcotest.fail
          (Printf.sprintf "%s: only %d kernels found" name n))
    (List.filter (fun (n, _) -> n <> "blackscholes") small_suite)

let test_cost_orderings () =
  (* the qualitative claims of Section 6 on a time-loop stencil:
     optimized beats unoptimized; unoptimized is slower than sequential;
     optimized transfers far less than unoptimized *)
  let src = Cgcm_progs.Polybench.jacobi_2d ~n:24 ~steps:8 () in
  let _, seq = Pipeline.run Pipeline.Sequential src in
  let _, unopt = Pipeline.run Pipeline.Cgcm_unoptimized src in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
  check Alcotest.bool "unoptimized slower than sequential" true
    (unopt.Interp.wall > seq.Interp.wall);
  check Alcotest.bool "optimization helps" true
    (opt.Interp.wall < unopt.Interp.wall);
  let bytes r =
    r.Interp.dev_stats.Cgcm_gpusim.Device.htod_bytes
    + r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_bytes
  in
  check Alcotest.bool "acyclic moves less data" true
    (bytes opt * 4 < bytes unopt)

let test_acyclic_trace () =
  (* after map promotion the time loop contains no per-iteration
     transfers: the DtoH count is bounded by the number of arrays (times
     the init/compute phase boundary), independent of the step count *)
  let run_steps steps =
    let src = Cgcm_progs.Polybench.jacobi_2d ~n:16 ~steps () in
    let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
    ( opt.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count,
      opt.Interp.dev_stats.Cgcm_gpusim.Device.htod_count )
  in
  let d6, h6 = run_steps 6 in
  let d12, h12 = run_steps 12 in
  check Alcotest.int "DtoH independent of step count" d6 d12;
  check Alcotest.int "HtoD independent of step count" h6 h12;
  check Alcotest.bool "bounded" true (d6 <= 4 && h6 <= 6)

let test_ie_cyclic_trace () =
  (* the inspector-executor baseline stays cyclic: DtoH transfers are
     interleaved with kernels *)
  let src = Cgcm_progs.Polybench.jacobi_2d ~n:16 ~steps:6 () in
  let _, ie = Pipeline.run ~trace:true Pipeline.Inspector_executor_exec src in
  let d = ie.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count in
  check Alcotest.bool "many DtoH rounds" true (d >= 6)

(* The compile and config halves, composed by hand with profiling on,
   must reproduce Pipeline.run exactly: profiling observes, it never
   changes what an execution means. *)
let test_halves_match_run () =
  List.iter
    (fun (prog, src) ->
      List.iter
        (fun (mode, exec) ->
          let label what = Printf.sprintf "%s %s: %s" prog mode what in
          let _, want = Pipeline.run exec src in
          let c = Pipeline.compile_for exec src in
          let got =
            Interp.run
              ~config:{ (Pipeline.config exec) with Interp.profile = true }
              c.Pipeline.modul
          in
          check Alcotest.string (label "output") want.Interp.output
            got.Interp.output;
          check (Alcotest.float 0.0) (label "wall") want.Interp.wall
            got.Interp.wall;
          check (Alcotest.float 0.0) (label "comm") want.Interp.comm
            got.Interp.comm;
          check Alcotest.bool (label "dev_stats") true
            (want.Interp.dev_stats = got.Interp.dev_stats))
        Pipeline.executions)
    (List.filter
       (fun (name, _) -> List.mem name [ "gemm"; "srad"; "blackscholes" ])
       small_suite)

let test_mode_table () =
  List.iter
    (fun name ->
      match Pipeline.parse_mode name with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    Pipeline.mode_names;
  check Alcotest.int "five names, four backend-suffixed split modes" 9
    (List.length Pipeline.mode_names);
  (match Pipeline.parse_mode "opt+paged" with
  | Ok (e, b) ->
    check Alcotest.bool "opt+paged" true
      (e = Pipeline.Cgcm_optimized && b = Cgcm_runtime.Mem_backend.Paged)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      check Alcotest.bool (bad ^ " rejected") true
        (Result.is_error (Pipeline.parse_mode bad)))
    [ "bogus"; "opt+bogus"; "" ]

(* Property: random DOALL map programs agree across all modes. *)
let random_program_gen =
  QCheck2.Gen.(
    let* n = int_range 4 24 in
    let* scale = int_range 1 9 in
    let* offset = int_range 0 5 in
    let* steps = int_range 1 4 in
    let* use_second = bool in
    let* cpu_reads = bool in
    (* optional CPU access inside the time loop: modOrRef must then keep
       the communication cyclic for that array, and stay correct *)
    let interference =
      if cpu_reads then "s0 = s0 + A[0];" else ""
    in
    return
      (Printf.sprintf
         "global float A[%d];\nglobal float B[%d];\n\
          int main() {\n\
          float s0 = 0.0;\n\
          for (int i = 0; i < %d; i++) { A[i] = i * 0.%d; B[i] = %d - i; }\n\
          for (int t = 0; t < %d; t++) {\n\
          for (int i = 0; i < %d; i++) { %s }\n\
          %s\n\
          }\n\
          float s = s0;\n\
          for (int i = 0; i < %d; i++) { s = s + A[i] + B[i]; }\n\
          print(s); return 0; }"
         n n n scale offset steps n
         (if use_second then "B[i] = B[i] * 1.5 + A[i];"
          else "A[i] = A[i] + 2.0;")
         interference n))

let prop_random_differential =
  QCheck2.Test.make ~name:"random DOALL programs agree across modes" ~count:25
    random_program_gen (fun src ->
      let _, seq = Pipeline.run Pipeline.Sequential src in
      let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
      let _, unopt = Pipeline.run Pipeline.Cgcm_unoptimized src in
      let _, ie = Pipeline.run Pipeline.Inspector_executor_exec src in
      seq.Interp.output = opt.Interp.output
      && seq.Interp.output = unopt.Interp.output
      && seq.Interp.output = ie.Interp.output)

let tests =
  [
    Alcotest.test_case "24-program differential" `Slow test_differential_suite;
    Alcotest.test_case "struct differential" `Quick test_struct_differential;
    Alcotest.test_case "full-size sources compile" `Slow
      test_full_size_sources_compile;
    Alcotest.test_case "kernels found everywhere" `Quick
      test_every_program_finds_kernels;
    Alcotest.test_case "cost orderings" `Quick test_cost_orderings;
    Alcotest.test_case "optimized trace is acyclic" `Quick test_acyclic_trace;
    Alcotest.test_case "inspector-executor stays cyclic" `Quick
      test_ie_cyclic_trace;
    Alcotest.test_case "compile + config halves match run" `Quick
      test_halves_match_run;
    Alcotest.test_case "mode-name table" `Quick test_mode_table;
    QCheck_alcotest.to_alcotest prop_random_differential;
  ]
