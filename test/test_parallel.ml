(* Differential testing of the closure engine's sharded kernel launches
   (jobs > 1, a domain pool) against its sequential path (jobs = 1).

   At jobs > 1 every eligible DOALL launch shards across OCaml 5
   domains, so every program in the suite runs at jobs 1 and at several
   job counts in every execution configuration, and must
   produce bit-identical outputs, simulated clocks, instruction counts,
   device/run-time stats, and traces — the join-order merge (output
   buffers, deferred dirty-span logs, instruction counts) is what makes
   that hold, and these tests are the referee. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Cost_model = Cgcm_gpusim.Cost_model
module Pool = Cgcm_support.Pool

let check = Alcotest.check

(* Force sharding on the scaled-down suite: every launch with at least
   two iterations is eligible, so the differential actually exercises
   cross-domain execution instead of the sequential fallback. *)
let par_cost = { Cost_model.default with Cost_model.par_min_trip = 2 }

let test_differential (name, src) () =
  List.iter
    (fun (cname, ex) ->
      let _, closures = Pipeline.run ~cost:par_cost ~trace:true ex src in
      List.iter
        (fun jobs ->
          let _, parallel = Pipeline.run ~cost:par_cost ~trace:true ~jobs ex src in
          Test_fastpath.check_equal_results
            (Printf.sprintf "%s/%s/j%d" name cname jobs)
            closures parallel)
        [ 2; 4 ])
    Pipeline.executions

(* --jobs 1 is the exact sequential closure path, and the default of
   every config builder: no pool, no shards, no shardability scan. A
   program prepared at jobs 1 carries no sharded code, so a jobs-2
   config is another variant and is refused rather than run. *)
let test_jobs1_is_closures () =
  check Alcotest.int "Interp.default_config.jobs" 1 Interp.default_config.Interp.jobs;
  List.iter
    (fun (name, ex) ->
      check Alcotest.int ("Pipeline.config jobs: " ^ name) 1
        (Pipeline.config ex).Interp.jobs)
    Pipeline.executions;
  List.iter
    (fun pname ->
      let src = List.assoc pname Test_fastpath.small_programs in
      let ex = Pipeline.Cgcm_optimized in
      let _, j1 =
        Pipeline.run ~cost:par_cost ~trace:true ~engine:Interp.Closures ~jobs:1 ex src
      in
      (* no engine and no jobs given: the defaults *)
      let config = Pipeline.config ~cost:par_cost ~trace:true ex in
      let p = Interp.prepare config (Pipeline.compile_for ex src).Pipeline.modul in
      Test_fastpath.check_equal_results (pname ^ "/j1") j1 (Interp.run_program ~config p);
      match Interp.run_program ~config:{ config with Interp.jobs = 2 } p with
      | _ -> Alcotest.failf "%s: a jobs-1 program ran under jobs 2" pname
      | exception Invalid_argument _ -> ())
    [ "gemm"; "srad"; "kmeans"; "blackscholes" ]

(* Prove the pool actually engages (the differential would be vacuous if
   every launch silently fell back to the sequential path): the pool
   spawns workers lazily, exactly when a launch shards, and no other
   test asks for more than 4 domains — so after one run at jobs = 5 the
   pool must be able to bring 5 domains to bear. *)
let test_pool_engages () =
  let src = List.assoc "gemm" Test_fastpath.small_programs in
  let _, r = Pipeline.run ~cost:par_cost ~jobs:5 Pipeline.Cgcm_optimized src in
  check Alcotest.bool "ran" true (String.length r.Interp.output > 0);
  check Alcotest.bool "pool grew to 5 domains" true (Pool.size () >= 5)

(* The sanitizer's byte-version maps are updated concurrently from the
   shards (disjoint bytes by the DOALL guarantee; an atomic check
   counter): a sanitized parallel run must stay violation-free and agree
   with the sanitized sequential run wherever the sanitizer's own
   counters are not involved. *)
let test_sanitized_parallel () =
  List.iter
    (fun pname ->
      let src = List.assoc pname Test_fastpath.small_programs in
      let _, closures =
        Pipeline.run ~cost:par_cost ~sanitize:true Pipeline.Cgcm_optimized src
      in
      let _, parallel =
        Pipeline.run ~cost:par_cost ~sanitize:true ~jobs:4 Pipeline.Cgcm_optimized
          src
      in
      check Alcotest.string (pname ^ " sanitized output") closures.Interp.output
        parallel.Interp.output;
      check Alcotest.int64 (pname ^ " sanitized exit") closures.Interp.exit_code
        parallel.Interp.exit_code;
      match parallel.Interp.san_report with
      | None -> Alcotest.fail "sanitizer did not run"
      | Some rep ->
        check Alcotest.bool (pname ^ " checks happened") true
          (rep.Cgcm_sanitizer.Sanitizer.r_checks > 0))
    [ "gemm"; "hotspot"; "atax" ]

(* Fault-soak: sharded launches under an injected-fault driver and a
   tight device-memory cap must degrade exactly like sequential ones
   (evictions, retries, CPU fallbacks are all main-domain work; a launch
   whose globals were evicted falls back to the sequential path and
   re-resolves through the run-time). Both job counts issue identical
   driver-call sequences, so a replayable fault plan fires identically —
   including runs the driver legitimately cannot recover, which must
   fail with the same error. *)
let test_faulty_parallel () =
  List.iter
    (fun pname ->
      let src = List.assoc pname Test_fastpath.small_programs in
      let _, clean =
        Pipeline.run ~cost:par_cost Pipeline.Cgcm_optimized src
      in
      let cap = (clean.Interp.dev_peak_bytes * 8 / 10) + 1 in
      List.iter
        (fun seed ->
          let faults =
            Cgcm_gpusim.Faults.parse
              (Printf.sprintf "%d:alloc@1,htod@2,dtoh%%0.1,launch@1" seed)
          in
          let attempt jobs =
            match
              Pipeline.run ~cost:par_cost ~jobs ~faults
                ~device_mem:cap ~trace:true Pipeline.Cgcm_optimized src
            with
            | _, r -> Ok r
            | exception e -> Error (Printexc.to_string e)
          in
          let where = Printf.sprintf "%s/faults:%d" pname seed in
          match (attempt 1, attempt 4) with
          | Ok c, Ok p -> Test_fastpath.check_equal_results where c p
          | Error c, Error p -> check Alcotest.string (where ^ " error") c p
          | Ok _, Error p ->
            Alcotest.failf "%s: jobs 1 succeeded, jobs 4 failed: %s" where p
          | Error c, Ok _ ->
            Alcotest.failf "%s: jobs 4 succeeded, jobs 1 failed: %s" where c)
        [ 1; 7; 42 ])
    [ "gemm"; "jacobi-2d-imper"; "nw" ]

(* The address-shape probes (see [Test_addr_shapes]) with sharded
   launches: the shards' logged stores read their addresses through the
   same decoded chains. Jobs 0 resolves via CGCM_JOBS. *)
let test_addr_shapes () =
  List.iter
    (fun jobs -> List.iter (Test_addr_shapes.check_probe ~jobs) Test_addr_shapes.probes)
    [ 2; 4; 0 ]

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("parallel vs closures: " ^ name) `Quick
        (test_differential (name, src)))
    Test_fastpath.small_programs
  @ [
      Alcotest.test_case "jobs=1 is the closure engine" `Quick
        test_jobs1_is_closures;
      Alcotest.test_case "domain pool engages" `Quick test_pool_engages;
      Alcotest.test_case "address shapes: parallel vs tree" `Quick
        test_addr_shapes;
      Alcotest.test_case "sanitized parallel agrees" `Quick
        test_sanitized_parallel;
      Alcotest.test_case "fault soak parallel vs closures" `Slow
        test_faulty_parallel;
    ]
