(* Per-program pinning tests for the 24-benchmark suite: kernel counts,
   baseline applicability, and the communication-pattern properties the
   paper's evaluation depends on. These run at reduced sizes. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Doall = Cgcm_frontend.Doall
module Registry = Cgcm_progs.Registry

let check = Alcotest.check

(* Every managed run must come back leak-free: no resident non-global
   units, refcounts fully drained, no live driver-heap blocks. *)
let leak_free label (r : Interp.result) =
  let l = r.Interp.leaks in
  let module Runtime = Cgcm_runtime.Runtime in
  if
    l.Runtime.resident_nonglobal <> 0
    || l.Runtime.refcount_sum <> 0
    || l.Runtime.leaked_dev_blocks <> 0
  then
    Alcotest.failf "%s leaks: %d resident, refcounts %d, %d dev blocks" label
      l.Runtime.resident_nonglobal l.Runtime.refcount_sum
      l.Runtime.leaked_dev_blocks

(* (name, small source, expected kernels, expected NR/IE-applicable) *)
let expectations =
  [
    ("adi", Cgcm_progs.Polybench.adi ~n:10 ~steps:2 (), 6, 6);
    ("atax", Cgcm_progs.Polybench.atax ~n:12 (), 3, 3);
    ("bicg", Cgcm_progs.Polybench.bicg ~n:12 (), 3, 3);
    ("correlation", Cgcm_progs.Polybench.correlation ~n:10 (), 5, 5);
    ("covariance", Cgcm_progs.Polybench.covariance ~n:10 (), 4, 4);
    ("doitgen", Cgcm_progs.Polybench.doitgen ~n:6 (), 4, 4);
    ("gemm", Cgcm_progs.Polybench.gemm ~n:10 (), 4, 4);
    ("gemver", Cgcm_progs.Polybench.gemver ~n:12 (), 4, 4);
    ("gesummv", Cgcm_progs.Polybench.gesummv ~n:12 (), 2, 2);
    ("gramschmidt", Cgcm_progs.Polybench.gramschmidt ~n:8 (), 3, 3);
    ("jacobi", Cgcm_progs.Polybench.jacobi_2d ~n:10 ~steps:2 (), 3, 3);
    ("seidel", Cgcm_progs.Polybench.seidel ~n:10 ~steps:2 (), 1, 1);
    ("lu", Cgcm_progs.Polybench.lu ~n:10 (), 3, 3);
    ("ludcmp", Cgcm_progs.Polybench.ludcmp ~n:10 (), 4, 4);
    ("2mm", Cgcm_progs.Polybench.twomm ~n:10 (), 6, 6);
    ("3mm", Cgcm_progs.Polybench.threemm ~n:8 (), 6, 6);
    (* Rodinia ports use heap data behind pointer globals: the named-
       regions / inspector-executor baselines are inapplicable (Table 3) *)
    ("cfd", Cgcm_progs.Rodinia.cfd ~cells:40 ~steps:2 (), 9, 0);
    ("hotspot", Cgcm_progs.Rodinia.hotspot ~n:10 ~steps:2 (), 3, 0);
    ( "kmeans",
      Cgcm_progs.Rodinia.kmeans ~points:40 ~dims:4 ~clusters:4 ~iters:2 (),
      3, 3 );
    ("lud", Cgcm_progs.Rodinia.lud ~n:10 (), 4, 0);
    ("nw", Cgcm_progs.Rodinia.nw ~n:12 (), 4, 4);
    ("srad", Cgcm_progs.Rodinia.srad ~n:10 ~steps:2 (), 5, 0);
    ("fm", Cgcm_progs.Others.fm ~samples:128 ~taps:4 (), 4, 4);
    ("blackscholes", Cgcm_progs.Others.blackscholes ~options:40 (), 1, 1);
  ]

let test_kernel_counts () =
  List.iter
    (fun (name, src, kernels, applicable) ->
      let c = Pipeline.compile ~level:Pipeline.Unmanaged src in
      let got = List.length c.Pipeline.doall.Doall.kernels in
      let got_app =
        List.length
          (List.filter
             (fun k -> k.Doall.k_named_applicable)
             c.Pipeline.doall.Doall.kernels)
      in
      if got <> kernels then
        Alcotest.failf "%s: expected %d kernels, found %d" name kernels got;
      if got_app <> applicable then
        Alcotest.failf "%s: expected %d NR-applicable kernels, found %d" name
          applicable got_app)
    expectations

let test_registry_metadata () =
  check Alcotest.int "24 programs" 24 (List.length Registry.all);
  let suites =
    List.sort_uniq compare
      (List.map (fun p -> p.Registry.suite) Registry.all)
  in
  check
    Alcotest.(list string)
    "four suites"
    [ "PARSEC"; "PolyBench"; "Rodinia"; "StreamIt" ]
    suites;
  check Alcotest.int "PolyBench count" 16
    (List.length
       (List.filter (fun p -> p.Registry.suite = "PolyBench") Registry.all));
  check Alcotest.int "paper kernel total" 101
    (List.fold_left (fun a p -> a + p.Registry.paper_kernels) 0 Registry.all);
  check Alcotest.bool "lookup" true (Registry.find "gemm" <> None);
  check Alcotest.bool "missing lookup" true (Registry.find "nope" = None)

(* The paper's headline communication patterns, checked per class on one
   representative of each. *)
let test_time_loop_programs_are_cyclic_unoptimized () =
  List.iter
    (fun src ->
      let _, unopt = Pipeline.run Pipeline.Cgcm_unoptimized src in
      let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
      leak_free "unoptimized" unopt;
      leak_free "optimized" opt;
      let d r = r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count in
      check Alcotest.bool "unoptimized is cyclic" true (d unopt > 3 * d opt))
    [
      Cgcm_progs.Polybench.jacobi_2d ~n:10 ~steps:6 ();
      Cgcm_progs.Rodinia.hotspot ~n:10 ~steps:6 ();
      Cgcm_progs.Rodinia.srad ~n:10 ~steps:6 ();
    ]

let test_gramschmidt_stays_cyclic () =
  (* the per-column CPU reduction pins CGCM to cyclic communication: DtoH
     grows with the column count even when optimized *)
  let run n =
    let _, opt =
      Pipeline.run Pipeline.Cgcm_optimized (Cgcm_progs.Polybench.gramschmidt ~n ())
    in
    leak_free "gramschmidt" opt;
    opt.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count
  in
  check Alcotest.bool "cyclic growth" true (run 12 > run 6 + 3)

(* [Registry.all] substitutes every suite template when a process
   starts, so [subst] must not allocate per character it scans: its
   minor words stay under half the template's length. *)
let test_template_subst_allocation () =
  let line = "  for (int i = 0; i < @N; i++) { a[i] = a[i] + @STEPS; }\n" in
  let expand n steps =
    String.concat ""
      (List.init 24 (fun _ ->
           Printf.sprintf "  for (int i = 0; i < %d; i++) { a[i] = a[i] + %d; }\n"
             n steps))
  in
  let template = String.concat "" (List.init 24 (fun _ -> line)) in
  let pairs = [ ("N", 64); ("STEPS", 3) ] in
  check Alcotest.string "placeholders replaced" (expand 64 3)
    (Cgcm_progs.Template.subst pairs template);
  check Alcotest.string "@N never matches inside @NX" "@NX 7"
    (Cgcm_progs.Template.subst [ ("N", 7) ] "@NX @N");
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Cgcm_progs.Template.subst pairs template));
  let words = Gc.minor_words () -. before in
  let n = String.length template in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for a %d-char template, under n/2" words
       n)
    true
    (words < float_of_int n /. 2.0)

let tests =
  [
    Alcotest.test_case "kernel counts + applicability" `Quick
      test_kernel_counts;
    Alcotest.test_case "registry metadata" `Quick test_registry_metadata;
    Alcotest.test_case "time loops cyclic unoptimized" `Quick
      test_time_loop_programs_are_cyclic_unoptimized;
    Alcotest.test_case "gramschmidt stays cyclic" `Quick
      test_gramschmidt_stays_cyclic;
    Alcotest.test_case "template substitution allocates per result, not per char"
      `Quick test_template_subst_allocation;
  ]
