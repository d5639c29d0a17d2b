(* Prepared programs ([Interp.prepare] / [Interp.run_program]): decoded
   code is a function of the module and the config's variant alone, so
   one program serves any number of runs. Every run of a prepared
   program must be bit-identical to a fresh [Interp.run]:
   - run twice in a row, and on two domains at once, in every
     execution configuration (and with the sanitizer on);
   - after runs that fault mid-kernel, which is where a per-run cache
     kept in the program would survive into the next run;
   - a config of another variant is refused. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Trace = Cgcm_gpusim.Trace
module Mem_backend = Cgcm_runtime.Mem_backend

let check = Alcotest.check

let programs =
  List.filter
    (fun (name, _) -> List.mem name [ "gemm"; "kmeans"; "nw"; "srad"; "blackscholes" ])
    Test_fastpath.small_programs

(* name, execution, backend, sanitize *)
let variants =
  [
    ("opt", Pipeline.Cgcm_optimized, Mem_backend.Explicit, false);
    ("unopt", Pipeline.Cgcm_unoptimized, Mem_backend.Explicit, false);
    ("opt+paged", Pipeline.Cgcm_optimized, Mem_backend.Paged, false);
    ("seq", Pipeline.Sequential, Mem_backend.Explicit, false);
    ("ie", Pipeline.Inspector_executor_exec, Mem_backend.Explicit, false);
    ("opt+sanitize", Pipeline.Cgcm_optimized, Mem_backend.Explicit, true);
  ]

let config ?(jobs = 1) (_, ex, backend, sanitize) =
  {
    (Pipeline.config ~trace:true ~jobs ~sanitize ~backend ex) with
    Interp.profile = true;
  }

let bits = Int64.bits_of_float

let to_fault run =
  let r, e = run () in
  (r, Option.map Printexc.to_string e)

(* Every field of the result, floats to the bit. *)
let check_same where (a : Interp.result) (b : Interp.result) =
  let n what = where ^ " " ^ what in
  check Alcotest.int64 (n "exit code") a.Interp.exit_code b.Interp.exit_code;
  check Alcotest.string (n "output") a.Interp.output b.Interp.output;
  List.iter
    (fun (what, x, y) -> check Alcotest.int64 (n what) (bits x) (bits y))
    [
      ("wall", a.Interp.wall, b.Interp.wall);
      ("cpu cycles", a.Interp.cpu_compute, b.Interp.cpu_compute);
      ("gpu cycles", a.Interp.gpu, b.Interp.gpu);
      ("comm cycles", a.Interp.comm, b.Interp.comm);
      ("sync cycles", a.Interp.sync, b.Interp.sync);
    ];
  check Alcotest.int (n "cpu insts") a.Interp.cpu_insts b.Interp.cpu_insts;
  check Alcotest.int (n "kernel insts") a.Interp.kernel_insts b.Interp.kernel_insts;
  check Alcotest.int (n "device peak") a.Interp.dev_peak_bytes b.Interp.dev_peak_bytes;
  let same what x y = check Alcotest.bool (n what) true (x = y) in
  same "dev_stats" a.Interp.dev_stats b.Interp.dev_stats;
  same "rt_stats" a.Interp.rt_stats b.Interp.rt_stats;
  same "page_stats" a.Interp.page_stats b.Interp.page_stats;
  same "leaks" a.Interp.leaks b.Interp.leaks;
  same "san_report" a.Interp.san_report b.Interp.san_report;
  same "profile" a.Interp.profile b.Interp.profile;
  same "trace" (Trace.events a.Interp.trace) (Trace.events b.Interp.trace)

let test_reuse (pname, src) () =
  List.iter
    (fun ((vname, ex, _, _) as v) ->
      let m = (Pipeline.compile_for ex src).Pipeline.modul in
      let config = config v in
      let fresh = Interp.run ~config m in
      let p = Interp.prepare config m in
      let where what = Printf.sprintf "%s/%s %s" pname vname what in
      check_same (where "first run") fresh (Interp.run_program ~config p);
      check_same (where "second run") fresh (Interp.run_program ~config p);
      let ds =
        List.init 2 (fun _ -> Domain.spawn (fun () -> Interp.run_program ~config p))
      in
      List.iteri
        (fun i d -> check_same (where (Printf.sprintf "domain %d" i)) fresh (Domain.join d))
        ds)
    variants

(* Site caches start empty in every run. A kernel that names a global
   resolves its device copy through the site's global-address cells,
   and the first touch allocates the copy (and charges for it): cells
   that outlived a run would hand the next run an address its device
   never allocated. Under the paged backend, a host store that runs only
   before any page migrates caches its page at generation 0: a cache
   that outlived the run would make the next run's first touch a hit,
   skip populating the page, and turn the kernel's migration into a free
   first touch. *)
let heap_touch =
  "kernel p(2 args, 2 regs) {\n\
   b0:\n\
  \  store.i64 %r1, 7\n\
  \  ret\n\
   }\n\
   func main(0 args, 2 regs) {\n\
   b0:\n\
  \  %r0 = call malloc(64)\n\
  \  store.i64 %r0, 1\n\
  \  launch p<1>(%r0)\n\
  \  %r1 = load.i64 %r0\n\
  \  call print_i64(%r1)\n\
  \  ret 0\n\
   }\n"

let global_touch =
  "global G : 64 bytes = zeroed\n\
   kernel k(1 args, 3 regs) {\n\
   b0:\n\
  \  %r1 = mul %r0, 8\n\
  \  %r2 = add @G, %r1\n\
  \  store.i64 %r2, %r0\n\
  \  ret\n\
   }\n\
   func main(0 args, 2 regs) {\n\
   b0:\n\
  \  launch k<8>()\n\
  \  %r0 = load.i64 @G\n\
  \  call print_i64(%r0)\n\
  \  ret 0\n\
   }\n"

let test_first_touch () =
  List.iter
    (fun (pname, src) ->
      let m = Cgcm_ir.Reader.parse_verified src in
      List.iter
        (fun ((vname, _, _, _) as v) ->
          let config = config v in
          (* some of these runs fault (a host pointer in a kernel under
             the explicit backend, the sanitizer on a stale read): every
             run of the program must fault the same way *)
          let r0, e0 = to_fault (fun () -> Interp.run_to_fault ~config m) in
          let p = Interp.prepare config m in
          for i = 1 to 2 do
            let where = Printf.sprintf "%s/%s run %d" pname vname i in
            let r, e = to_fault (fun () -> Interp.run_program_to_fault ~config p) in
            check Alcotest.(option string) (where ^ " fault") e0 e;
            check_same where r0 r
          done)
        variants)
    [ ("global", global_touch); ("heap page", heap_touch) ]

(* Shard machines share the program's logged-store code: a program
   prepared at jobs 2 and run twice matches a fresh run. *)
let test_parallel_reuse () =
  List.iter
    (fun (pname, src) ->
      let v = List.hd variants in
      let m = (Pipeline.compile_for Pipeline.Cgcm_optimized src).Pipeline.modul in
      let config = config ~jobs:2 v in
      let fresh = Interp.run ~config m in
      let p = Interp.prepare config m in
      for i = 1 to 2 do
        check_same (Printf.sprintf "%s/parallel run %d" pname i) fresh
          (Interp.run_program ~config p)
      done)
    programs

(* Faults mid-kernel leave the machine inside a launch, with site caches
   pointing into its memory. Two faulting runs of one program (division
   by zero in a kernel, a wild store) each equal a fresh faulting run.
   A run of a clean program that runs out of fuel mid-kernel, then a run
   of the same program with its full budget, equal fresh runs too. A
   cache that outlived its run would change a later run's transfers or
   clock. *)
let test_faulting_runs () =
  let vs = [ List.hd variants; List.nth variants 5 ] in
  List.iter
    (fun (pname, src, _) ->
      List.iter
        (fun ((vname, ex, _, _) as v) ->
          let m = (Pipeline.compile_for ex src).Pipeline.modul in
          let config = { (config v) with Interp.cost = Test_fastpath.fault_cost } in
          let where what = Printf.sprintf "%s/%s %s" pname vname what in
          let r0, e0 = to_fault (fun () -> Interp.run_to_fault ~config m) in
          check Alcotest.bool (where "faults") true (Option.is_some e0);
          let p = Interp.prepare config m in
          for i = 1 to 2 do
            let r, e = to_fault (fun () -> Interp.run_program_to_fault ~config p) in
            check Alcotest.(option string) (where (Printf.sprintf "fault %d" i)) e0 e;
            check_same (where (Printf.sprintf "faulted run %d" i)) r0 r
          done)
        vs)
    (List.filter
       (fun (n, _, _) -> n = "div by zero" || n = "store past the end")
       Test_fastpath.fault_programs);
  let src = List.assoc "gemm" programs in
  List.iter
    (fun ((vname, ex, _, _) as v) ->
      let m = (Pipeline.compile_for ex src).Pipeline.modul in
      let config = config v in
      let where what = Printf.sprintf "gemm/%s %s" vname what in
      let clean = Interp.run ~config m in
      let short =
        {
          config with
          Interp.fuel = (clean.Interp.cpu_insts + clean.Interp.kernel_insts) * 3 / 4;
        }
      in
      let r0, e0 = to_fault (fun () -> Interp.run_to_fault ~config:short m) in
      let p = Interp.prepare config m in
      let r, e = to_fault (fun () -> Interp.run_program_to_fault ~config:short p) in
      check Alcotest.(option string) (where "out of fuel") e0 e;
      check Alcotest.bool (where "ran out") true (Option.is_some e);
      check_same (where "out of fuel") r0 r;
      check_same (where "clean run after") clean (Interp.run_program ~config p))
    variants

let test_variant_refused () =
  let src = List.assoc "gemm" programs in
  let v = List.hd variants in
  let m = (Pipeline.compile_for Pipeline.Cgcm_optimized src).Pipeline.modul in
  let config = config v in
  let p = Interp.prepare config m in
  List.iter
    (fun (what, other) ->
      match Interp.run_program ~config:other p with
      | _ -> Alcotest.failf "%s: a config of another variant ran" what
      | exception Invalid_argument _ -> ())
    [
      ("mode", { config with Interp.mode = Interp.Unified });
      ("backend", { config with Interp.backend = Mem_backend.Paged });
      ("sanitize", { config with Interp.sanitize = true });
      ("engine", { config with Interp.engine = Interp.Tree_walk });
    ];
  (* run-time inputs are not part of the variant *)
  let other =
    { config with Interp.fuel = config.Interp.fuel - 1; trace = false; dirty_spans = false }
  in
  check_same "run-time inputs" (Interp.run ~config:other m)
    (Interp.run_program ~config:other p)

(* Minor-heap words per [Interp.prepare] of the 16 PolyBench generators
   at n = 8, by variant (compile excluded): the decode work on a cold
   serve request. The count is deterministic for one binary. Measured
   before address chains were flattened at decode time, as below; the
   bound is that measurement plus a third. *)
let prepare_words =
  [ ("opt", 24_967.); ("unopt", 23_389.); ("opt+paged", 25_100.); ("seq", 20_059.) ]

let prepare_words_headroom = 1.33

let test_prepare_allocation_budget () =
  let module P = Cgcm_progs.Polybench in
  let sources =
    [
      P.adi ~n:8 (); P.atax ~n:8 (); P.bicg ~n:8 (); P.correlation ~n:8 ();
      P.covariance ~n:8 (); P.doitgen ~n:8 (); P.gemm ~n:8 ();
      P.gemver ~n:8 (); P.gesummv ~n:8 (); P.gramschmidt ~n:8 ();
      P.jacobi_2d ~n:8 (); P.seidel ~n:8 (); P.lu ~n:8 (); P.ludcmp ~n:8 ();
      P.twomm ~n:8 (); P.threemm ~n:8 ();
    ]
  in
  List.iter
    (fun ((vname, ex, _, _) as v) ->
      match List.assoc_opt vname prepare_words with
      | None -> ()
      | Some words ->
          let config = config v in
          let ms = List.map (fun src -> (Pipeline.compile_for ex src).Pipeline.modul) sources in
          let w0 = Gc.minor_words () in
          List.iter (fun m -> ignore (Interp.prepare config m)) ms;
          let per = (Gc.minor_words () -. w0) /. float_of_int (List.length ms) in
          let bound = prepare_words_headroom *. words in
          if per > bound then
            Alcotest.failf "%s: %.0f minor words per prepare (bound %.0f)" vname per
              bound)
    variants

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case
        (Printf.sprintf "prepared program reused: %s" name)
        `Quick (test_reuse (name, src)))
    programs
  @ [
      Alcotest.test_case "site caches start empty in every run" `Quick
        test_first_touch;
      Alcotest.test_case "prepared Parallel program reused" `Quick
        test_parallel_reuse;
      Alcotest.test_case "faulting runs leave no cache behind" `Quick
        test_faulting_runs;
      Alcotest.test_case "a config of another variant is refused" `Quick
        test_variant_refused;
      Alcotest.test_case "prepare allocation budget (words per prepare)" `Quick
        test_prepare_allocation_budget;
    ]
