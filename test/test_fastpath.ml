(* Differential testing of the closure-compiled interpreter engine
   against the tree-walking engine, and properties of the dirty-span
   transfer tracker.

   The closure engine is an aggressive reimplementation (pre-decoded
   closure arrays, unboxed typed register slots, folding, scalar alloca
   promotion, cached block handles, one frame per kernel launch), so
   every program in the suite runs under both engines
   in every execution configuration and must produce bit-identical
   outputs, simulated clocks, instruction counts, device/run-time stats,
   and traces. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Memspace = Cgcm_memory.Memspace
module Trace = Cgcm_gpusim.Trace
module Device = Cgcm_gpusim.Device
module Runtime = Cgcm_runtime.Runtime
module Cost_model = Cgcm_gpusim.Cost_model
module Reader = Cgcm_ir.Reader
module PB = Cgcm_progs.Polybench
module RD = Cgcm_progs.Rodinia
module OT = Cgcm_progs.Others

let check = Alcotest.check

(* Small-size variants of all 24 registry programs: same sources as the
   benchmark registry, scaled down so the whole matrix stays quick. *)
let small_programs =
  [
    ("adi", PB.adi ~n:10 ~steps:3 ());
    ("atax", PB.atax ~n:16 ());
    ("bicg", PB.bicg ~n:16 ());
    ("correlation", PB.correlation ~n:10 ());
    ("covariance", PB.covariance ~n:10 ());
    ("doitgen", PB.doitgen ~n:6 ());
    ("gemm", PB.gemm ~n:12 ());
    ("gemver", PB.gemver ~n:16 ());
    ("gesummv", PB.gesummv ~n:16 ());
    ("gramschmidt", PB.gramschmidt ~n:8 ());
    ("jacobi-2d-imper", PB.jacobi_2d ~n:10 ~steps:4 ());
    ("seidel", PB.seidel ~n:10 ~steps:3 ());
    ("lu", PB.lu ~n:12 ());
    ("ludcmp", PB.ludcmp ~n:12 ());
    ("2mm", PB.twomm ~n:10 ());
    ("3mm", PB.threemm ~n:10 ());
    ("cfd", RD.cfd ~cells:64 ~steps:4 ());
    ("hotspot", RD.hotspot ~n:10 ~steps:4 ());
    ("kmeans", RD.kmeans ~points:48 ~dims:4 ~clusters:4 ~iters:3 ());
    ("lud", RD.lud ~n:12 ());
    ("nw", RD.nw ~n:16 ());
    ("srad", RD.srad ~n:10 ~steps:4 ());
    ("fm", OT.fm ~samples:256 ~taps:4 ());
    ("blackscholes", OT.blackscholes ~options:200 ());
  ]

let exact = Alcotest.float 0.0

let check_equal_results where (a : Interp.result) (b : Interp.result) =
  let n fmt = where ^ " " ^ fmt in
  check Alcotest.int64 (n "exit") a.Interp.exit_code b.Interp.exit_code;
  check Alcotest.string (n "output") a.Interp.output b.Interp.output;
  check exact (n "wall") a.Interp.wall b.Interp.wall;
  check exact (n "cpu") a.Interp.cpu_compute b.Interp.cpu_compute;
  check exact (n "gpu") a.Interp.gpu b.Interp.gpu;
  check exact (n "comm") a.Interp.comm b.Interp.comm;
  check exact (n "sync") a.Interp.sync b.Interp.sync;
  check Alcotest.int (n "cpu insts") a.Interp.cpu_insts b.Interp.cpu_insts;
  check Alcotest.int (n "kernel insts") a.Interp.kernel_insts
    b.Interp.kernel_insts;
  let da = a.Interp.dev_stats and db = b.Interp.dev_stats in
  check Alcotest.int (n "htod bytes") da.Device.htod_bytes db.Device.htod_bytes;
  check Alcotest.int (n "dtoh bytes") da.Device.dtoh_bytes db.Device.dtoh_bytes;
  check Alcotest.int (n "htod count") da.Device.htod_count db.Device.htod_count;
  check Alcotest.int (n "dtoh count") da.Device.dtoh_count db.Device.dtoh_count;
  check Alcotest.int (n "launches") da.Device.launches db.Device.launches;
  let ra = a.Interp.rt_stats and rb = b.Interp.rt_stats in
  check Alcotest.int (n "map calls") ra.Runtime.map_calls rb.Runtime.map_calls;
  check Alcotest.int (n "unmap calls") ra.Runtime.unmap_calls
    rb.Runtime.unmap_calls;
  check Alcotest.int (n "release calls") ra.Runtime.release_calls
    rb.Runtime.release_calls;
  check Alcotest.int (n "skipped unmaps") ra.Runtime.skipped_unmaps
    rb.Runtime.skipped_unmaps;
  check Alcotest.int (n "partial copies") ra.Runtime.partial_copies
    rb.Runtime.partial_copies;
  check Alcotest.int (n "bytes saved") ra.Runtime.bytes_saved
    rb.Runtime.bytes_saved;
  let ea = Trace.events a.Interp.trace and eb = Trace.events b.Interp.trace in
  check Alcotest.int (n "trace length") (List.length ea) (List.length eb);
  check Alcotest.bool (n "trace events") true (ea = eb)

let test_differential (name, src) () =
  List.iter
    (fun (cname, ex) ->
      let _, closures =
        Pipeline.run ~trace:true ~engine:Interp.Closures ex src
      in
      let _, tree =
        Pipeline.run ~trace:true ~engine:Interp.Tree_walk ex src
      in
      check_equal_results (name ^ "/" ^ cname) closures tree)
    Pipeline.executions

(* Dirty-span transfers must only ever reduce communication: the
   optimized configuration with the tracker on moves no more bytes than
   with whole-unit copies, and prints the same output. *)
let test_dirty_monotone () =
  List.iter
    (fun pname ->
      let src = (List.assoc pname small_programs : string) in
      let c = Pipeline.compile_for Pipeline.Cgcm_optimized src in
      let run dirty_spans =
        let config = Pipeline.config Pipeline.Cgcm_optimized in
        Interp.run ~config:{ config with Interp.dirty_spans } c.Pipeline.modul
      in
      let on = run true and off = run false in
      check Alcotest.string (pname ^ " output") on.Interp.output
        off.Interp.output;
      let bytes (r : Interp.result) =
        ( r.Interp.dev_stats.Device.htod_bytes,
          r.Interp.dev_stats.Device.dtoh_bytes )
      in
      let h_on, d_on = bytes on and h_off, d_off = bytes off in
      check Alcotest.bool (pname ^ " htod no worse") true (h_on <= h_off);
      check Alcotest.bool (pname ^ " dtoh no worse") true (d_on <= d_off))
    [ "gemm"; "hotspot"; "jacobi-2d-imper"; "nw"; "srad" ]

(* Property: the dirty-span tracker never loses a written byte. Random
   writes go into one unit; every written offset must be covered by some
   recorded span, and clearing leaves nothing behind. *)
let prop_dirty_covers =
  QCheck2.Test.make ~name:"dirty spans cover every written byte" ~count:200
    QCheck2.Gen.(list_size (1 -- 40) (pair (int_bound 255) (int_bound 31)))
    (fun writes ->
      let m =
        Memspace.create ~name:"dirty" ~range_lo:0x1000 ~range_hi:0x100000
      in
      let size = 256 in
      let base = Memspace.alloc m size in
      let written = Array.make size false in
      List.iter
        (fun (off, len) ->
          let len = min (len + 1) (size - off) in
          for i = off to off + len - 1 do
            Memspace.store_u8 m (base + i) 0xAB;
            written.(i) <- true
          done)
        writes;
      let spans = Memspace.dirty_spans m base in
      let covered i =
        List.exists (fun (o, l) -> o <= i && i < o + l) spans
      in
      let ok = ref true in
      for i = 0 to size - 1 do
        if written.(i) && not (covered i) then ok := false
      done;
      (* spans never exceed the unit *)
      List.iter
        (fun (o, l) -> if o < 0 || l <= 0 || o + l > size then ok := false)
        spans;
      Memspace.clear_dirty m base;
      !ok && Memspace.dirty_bytes m base = 0)


(* ------------------------------------------------------------------ *)
(* Faults inside a reused launch frame                                 *)

(* A launch runs all its threads in one frame (one per shard at
   jobs > 1). A fault at a middle thread must leave the same trace
   under every engine and job count: exception text, the output printed
   so far and device residency, with every thread's allocas freed; the
   closure engine's counters and clock must not depend on the job count.
   Sharding is forced for every launch of two or more threads. *)
let fault_cost = { Cost_model.default with Cost_model.par_min_trip = 2 }

let fault_programs =
  [
    (* thread 8 divides by zero after printing; shardable *)
    ( "div by zero",
      "global int A[16];\n\
       kernel void k(int tid, int* a, int d) {\n\
       print(tid);\n\
       a[tid] = 100 / (tid - d);\n\
       }\n\
       int main() { print(7); launch k<16>((int*) A, 8); print(9); return 0; }",
      None );
    (* thread 6 stores past the end of A; the local array is a real
       per-thread alloca (so the kernel stays sequential) *)
    ( "store past the end",
      "global int A[16];\n\
       kernel void k(int tid, int* a) {\n\
       int tmp[3];\n\
       tmp[tid % 3] = tid;\n\
       print(tmp[tid % 3]);\n\
       a[tid + 10] = tid;\n\
       }\n\
       int main() { print(3); launch k<16>((int*) A); print(4); return 0; }",
      None );
    (* every thread prints and loops; the budget runs out at thread 12,
       while each shard's chunk alone fits in it *)
    ( "out of fuel",
      "global int A[16];\n\
       kernel void k(int tid, int* a, int n) {\n\
       print(tid);\n\
       int s = 0;\n\
       for (int i = 0; i < n; i++) { s = s + i * tid; }\n\
       a[tid] = s;\n\
       }\n\
       int main() { print(1); launch k<16>((int*) A, 40); print(2); return 0; }",
      Some `Three_quarters );
  ]

let fault_engines =
  [
    ("closures", Interp.Closures, 1);
    ("parallel", Interp.Closures, 2);
    ("tree", Interp.Tree_walk, 1);
  ]

let contains ~affix s =
  let n = String.length affix in
  let rec at i = i + n <= String.length s && (String.sub s i n = affix || at (i + 1)) in
  at 0

let run_faulty ~engine ~jobs ?fuel src =
  let ex = Pipeline.Cgcm_optimized in
  let c = Pipeline.compile_for ex src in
  let config = Pipeline.config ~cost:fault_cost ~engine ~jobs ex in
  let config =
    match fuel with Some f -> { config with Interp.fuel = f } | None -> config
  in
  Interp.run_to_fault ~config c.Pipeline.modul

let test_faults_in_launch_frame () =
  (* a clean program, run fresh before any fault and again after *)
  let clean = List.assoc "gemm" small_programs in
  let fresh =
    List.map
      (fun (ename, engine, jobs) ->
        (ename, snd (Pipeline.run ~cost:fault_cost ~engine ~jobs Pipeline.Cgcm_optimized clean)))
      fault_engines
  in
  List.iter
    (fun (pname, src, fuel) ->
      let fuel =
        match fuel with
        | None -> None
        | Some `Three_quarters ->
          let r, _ = run_faulty ~engine:Interp.Tree_walk ~jobs:1 src in
          Some ((r.Interp.cpu_insts + r.Interp.kernel_insts) * 3 / 4)
      in
      let outcome (ename, engine, jobs) =
        let r, e = run_faulty ~engine ~jobs ?fuel src in
        let e =
          match e with
          | Some e -> Printexc.to_string e
          | None -> Alcotest.failf "%s/%s: no fault" pname ename
        in
        (ename, e, r)
      in
      let outcomes = List.map outcome fault_engines in
      let _, e0, r0 = List.nth outcomes 2 in
      (* a fault's counts follow the closure engine's runs (see
         [Interp.run_program_to_fault]), whatever the job count; only a
         sharded launch that runs out of fuel counts up to the budget
         itself, where the sequential engine stops before the run it
         cannot pay for *)
      let _, _, (c1 : Interp.result) = List.nth outcomes 0
      and _, _, (c2 : Interp.result) = List.nth outcomes 1 in
      let n what = Printf.sprintf "%s/closures jobs 1 vs 2 %s" pname what in
      check Alcotest.int (n "cpu_insts") c1.Interp.cpu_insts c2.Interp.cpu_insts;
      if fuel = None then
        check Alcotest.int (n "kernel_insts") c1.Interp.kernel_insts c2.Interp.kernel_insts;
      check Alcotest.int64 (n "wall") (Int64.bits_of_float c1.Interp.wall)
        (Int64.bits_of_float c2.Interp.wall);
      (* fuel pays for CPU and kernel instructions alike, and a sharded
         launch counts no more than the fuel it had left, however the
         chunks split it *)
      Option.iter
        (fun fuel ->
          List.iter
            (fun (jobs, (r : Interp.result)) ->
              let spent = r.Interp.cpu_insts + r.Interp.kernel_insts in
              check Alcotest.bool
                (Printf.sprintf "%s/closures jobs %d instructions %d <= fuel %d"
                   pname jobs spent fuel)
                true (spent <= fuel))
            [ (2, c2); (4, fst (run_faulty ~engine:Interp.Closures ~jobs:4 ~fuel src)) ])
        fuel;
      List.iter
        (fun (ename, e, (r : Interp.result)) ->
          let n what = Printf.sprintf "%s/%s %s" pname ename what in
          check Alcotest.string (n "exception") e0 e;
          check Alcotest.string (n "output prefix") r0.Interp.output r.Interp.output;
          let l0 = r0.Interp.leaks and l = r.Interp.leaks in
          check Alcotest.int (n "resident non-global") l0.Runtime.resident_nonglobal
            l.Runtime.resident_nonglobal;
          check Alcotest.int (n "resident global") l0.Runtime.resident_global
            l.Runtime.resident_global;
          check Alcotest.int (n "refcount sum") l0.Runtime.refcount_sum
            l.Runtime.refcount_sum;
          check Alcotest.int (n "leaked dev blocks") l0.Runtime.leaked_dev_blocks
            l.Runtime.leaked_dev_blocks;
          (* promoted scalars never reach device memory, so the closure
             engines' peak is at most the tree engine's; a thread's
             allocas left live in the reused frame would push it past *)
          check Alcotest.bool (n "device peak") true
            (r.Interp.dev_peak_bytes <= r0.Interp.dev_peak_bytes))
        outcomes;
      (* the faults above are real: the expected texts *)
      let expect =
        match pname with
        | "div by zero" -> "integer division by zero"
        | "out of fuel" -> "instruction budget exhausted"
        | _ -> "Fault"
      in
      check Alcotest.bool (pname ^ " fault text: " ^ e0) true (contains ~affix:expect e0))
    fault_programs;
  (* no stale frame state: the clean program matches its fresh run *)
  List.iter
    (fun (ename, engine, jobs) ->
      let _, again =
        Pipeline.run ~cost:fault_cost ~engine ~jobs Pipeline.Cgcm_optimized clean
      in
      check_equal_results ("after faults/" ^ ename) (List.assoc ename fresh) again)
    fault_engines

(* A launch whose argument list does not match its kernel: with no
   threads nothing runs and nothing is checked, as with a call per
   thread; with threads, every engine raises the arity fault before the
   first thread, after the same output. The verifier does not check
   launch arity, so verified IR reaches this. *)
let test_launch_arity () =
  let src trip =
    Printf.sprintf
      "kernel k(2 args, 3 regs) {\n\
       b0:\n\
      \  %%r2 = mul %%r0, 8\n\
      \  ret\n\
       }\n\
       func main(0 args, 1 regs) {\n\
       b0:\n\
      \  call print_i64(1)\n\
      \  launch k<%d>(7, 5)\n\
      \  call print_i64(2)\n\
      \  ret 0\n\
       }\n"
      trip
  in
  List.iter
    (fun trip ->
      let m = Reader.parse_verified (src trip) in
      let outcomes =
        List.map
          (fun (ename, engine, jobs) ->
            let config =
              { Interp.default_config with Interp.engine; jobs; cost = fault_cost }
            in
            let r, e = Interp.run_to_fault ~config m in
            (ename, Option.map Printexc.to_string e, r.Interp.output))
          fault_engines
      in
      let _, e0, o0 = List.nth outcomes 2 in
      let expect =
        if trip = 0 then None
        else Some (Printexc.to_string (Interp.Exec_error "k called with 3 args, expected 2"))
      in
      let n ename what = Printf.sprintf "trip %d/%s %s" trip ename what in
      check Alcotest.(option string) (n "tree" "exception") expect e0;
      List.iter
        (fun (ename, e, o) ->
          check Alcotest.(option string) (n ename "exception") e0 e;
          check Alcotest.string (n ename "output") o0 o)
        outcomes)
    [ 0; 2 ]

(* The closure engine refuses a function that is not in SSA form (here,
   unverified IR that assigns a register twice) instead of running it,
   at any job count: its unboxed slots rely on single assignment. *)
let test_ill_formed_refused () =
  let m =
    Reader.parse
      "func main(0 args, 1 regs) {\n\
       b0:\n\
      \  %r0 = add 1, 2\n\
      \  %r0 = add %r0, 1\n\
      \  call print_i64(%r0)\n\
      \  ret 0\n\
       }\n"
  in
  List.iter
    (fun jobs ->
      let config = { Interp.default_config with Interp.jobs } in
      match Interp.run ~config m with
      | _ -> Alcotest.fail "ill-formed IR ran"
      | exception Interp.Exec_error e ->
        check Alcotest.bool ("refused: " ^ e) true (contains ~affix:"main: ill-formed IR" e))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Type confusion through typed slots                                  *)

(* A register's slot is fixed by its def; a consumer that wants the
   other kind must still raise the tree engine's exact message, whether
   it sits in the def's block or a later one. *)
let confusion_cases =
  let float_as_int = "type confusion: float used as integer/pointer"
  and int_as_float = "type confusion: integer used as float" in
  let prog ~same def use =
    Printf.sprintf
      "global G : 16 bytes = zeroed\n\
       func main(0 args, 4 regs) {\n\
       b0:\n\
      \  %s\n\
       %s\
      \  %s\n\
      \  ret 0\n\
       }\n"
      def (if same then "" else "  br b1\nb1:\n") use
  in
  List.concat_map
    (fun (name, def, use, msg) ->
      [
        (name, prog ~same:true def use, msg);
        (name ^ " (later block)", prog ~same:false def use, msg);
      ])
    [
      ("load.f64 as address", "%r0 = load.f64 @G", "%r1 = load.i64 %r0", float_as_int);
      ("load.f64 as store address", "%r0 = load.f64 @G", "store.i64 %r0, 1", float_as_int);
      ("load.f64 as int operand", "%r0 = load.f64 @G", "%r1 = add %r0, 1", float_as_int);
      ("fmul as address", "%r0 = fmul 0x1p+0, 0x1p+1", "%r1 = load.f64 %r0", float_as_int);
      ("fmul as int operand", "%r0 = fmul 0x1p+0, 0x1p+1", "%r1 = mul 3, %r0", float_as_int);
      ("fmul as branch condition", "%r0 = fmul 0x1p+0, 0x1p+1", "%r1 = lt %r0, 2", float_as_int);
      ("add used by fadd", "%r0 = add 1, 2", "%r1 = fadd %r0, 0x1p+0", int_as_float);
      ("add used by fadd (right)", "%r0 = add 1, 2", "%r1 = fadd 0x1p+0, %r0", int_as_float);
      ("add stored as f64", "%r0 = add 1, 2", "store.f64 @G, %r0", int_as_float);
    ]

let test_type_confusion () =
  List.iter
    (fun (name, src, msg) ->
      let m = Reader.parse_verified src in
      List.iter
        (fun engine ->
          let config = { Interp.default_config with Interp.engine } in
          match Interp.run ~config m with
          | _ -> Alcotest.failf "%s: no type confusion" name
          | exception Interp.Exec_error e -> check Alcotest.string name msg e)
        [ Interp.Tree_walk; Interp.Closures ])
    confusion_cases

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)

(* Minor-heap words per executed instruction, closure engine on one
   domain, the 24 small programs at opt (compile excluded). The count is
   deterministic for one binary. Boxed register traffic measured 3.54
   words per instruction; unboxed slots and the per-launch frame 0.85. A
   later edit that re-boxes register values crosses the bound. *)
let words_per_inst_bound = 1.5

let test_allocation_budget () =
  let ex = Pipeline.Cgcm_optimized in
  let words = ref 0.0 and insts = ref 0 in
  List.iter
    (fun (_, src) ->
      let c = Pipeline.compile_for ex src in
      let config = Pipeline.config ~engine:Interp.Closures ex in
      let w0 = Gc.minor_words () in
      let r = Interp.run ~config c.Pipeline.modul in
      words := !words +. (Gc.minor_words () -. w0);
      insts := !insts + r.Interp.cpu_insts + r.Interp.kernel_insts)
    small_programs;
  let per = !words /. float_of_int !insts in
  if per > words_per_inst_bound then
    Alcotest.failf "%.3f minor words per instruction (bound %.2f)" per
      words_per_inst_bound

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case
        (Printf.sprintf "engines agree on %s" name)
        `Quick
        (test_differential (name, src)))
    small_programs
  @ [
      Alcotest.test_case "dirty spans only reduce traffic" `Quick
        test_dirty_monotone;
      Alcotest.test_case "faults inside a reused launch frame" `Quick
        test_faults_in_launch_frame;
      Alcotest.test_case "launch arity with and without threads" `Quick
        test_launch_arity;
      Alcotest.test_case "closure engines refuse non-SSA IR" `Quick
        test_ill_formed_refused;
      Alcotest.test_case "type confusion through typed slots" `Quick
        test_type_confusion;
      Alcotest.test_case "allocation budget (words per instruction)" `Quick
        test_allocation_budget;
      QCheck_alcotest.to_alcotest prop_dirty_covers;
    ]
