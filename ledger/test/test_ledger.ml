(* Unit tests of the ledger's own arithmetic and generators. *)

open Cgcm_ledger
module Json = Cgcm_serve.Json

let feq = Alcotest.float 1e-9

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 1,000 samples: p99 is the 990th value, with 10 samples beyond it *)
  Alcotest.(check (option (pair feq feq)))
    "p99 at 1000" (Some (990.0, 99.0)) (Stat.tail (xs 1000));
  Alcotest.(check (option (pair feq feq)))
    "96 samples" (Some (86.0, 100.0 *. 86.0 /. 96.0)) (Stat.tail (xs 96));
  Alcotest.(check (option (pair feq feq)))
    "11 samples" (Some (1.0, 100.0 /. 11.0)) (Stat.tail (xs 11));
  Alcotest.(check (option (pair feq feq))) "10 samples" None (Stat.tail (xs 10));
  Alcotest.(check feq) "median odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check feq) "median even" 2.5 (Stat.median [ 4.0; 1.0; 2.0; 3.0 ])

let facts ~cycles ~bytes =
  {
    Runner.output = "";
    exit_code = 0L;
    cycles;
    cpu_cycles = 0.0;
    gpu_cycles = 0.0;
    comm_cycles = 0.0;
    sync_cycles = 0.0;
    insts = 0;
    launches = 0;
    transfers = 0;
    comm_bytes = bytes;
    map_calls = 0;
    skipped_copies = 0;
    bytes_saved = 0;
    evictions = 0;
    touches = 0;
    faults = 0;
    leaked = false;
  }

let test_geomean () =
  (* speedups 2x and 8x over sequential: geomean 4x; only optimized runs
     count towards the cycle and speedup geomeans, every run's bytes
     towards the total *)
  let runs =
    [
      ("a", "seq", facts ~cycles:100.0 ~bytes:0);
      ("a", "opt", facts ~cycles:50.0 ~bytes:7);
      ("b", "unopt", facts ~cycles:400.0 ~bytes:11);
      ("b", "opt+paged", facts ~cycles:12.5 ~bytes:5);
    ]
  in
  let cycles, speedup, bytes =
    Harness.sim_summary ~seq_cycles:(fun _ -> 100.0) runs
  in
  Alcotest.(check feq) "cycles geomean" 25.0 cycles;
  Alcotest.(check feq) "speedup geomean" 4.0 speedup;
  Alcotest.(check int) "bytes" 23 bytes

let lower = { Diff.name = "wall_s"; better = Diff.Lower; bound = 0.1 }
let higher = { Diff.name = "ops_per_s"; better = Diff.Higher; bound = 0.1 }

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Diff.verdict_name v))
    ( = )

let test_diff_classes () =
  let best (b : Diff.bound) ?value passes =
    Metric.best ?value ~higher:(b.better = Diff.Higher) b.name "" passes
  in
  let c b o n = Diff.classify b ~old_m:(best b [ o ]) ~new_m:(best b [ n ]) in
  Alcotest.check verdict "within bound" Diff.Same (c lower 10.0 10.5);
  Alcotest.check verdict "slower" Diff.Worse (c lower 10.0 12.0);
  Alcotest.check verdict "faster" Diff.Better (c lower 10.0 8.0);
  Alcotest.check verdict "fewer ops" Diff.Worse (c higher 100.0 80.0);
  Alcotest.check verdict "more ops" Diff.Better (c higher 100.0 120.0);
  (* the runner-up pass lies 25% from the best, beyond the 10% bound:
     the best pass cannot decide... *)
  let wide = best lower ~value:10.0 [ 8.0; 10.0; 12.0 ] in
  Alcotest.check verdict "wide spread" Diff.Unresolved
    (Diff.classify lower ~old_m:wide ~new_m:(best lower [ 12.0 ]));
  (* ...unless every new pass beats every old one *)
  Alcotest.check verdict "wide but separated" Diff.Better
    (Diff.classify lower ~old_m:wide ~new_m:(best lower [ 5.0 ]))

(* Set-up times are medians of samples; their spread is the
   interquartile share, as Python's statistics.quantiles gives it. *)
let test_diff_medians () =
  Alcotest.(check feq) "iqr of 1..9" 1.0 (Stat.iqr_share (List.init 9 (fun i -> float_of_int (i + 1))));
  Alcotest.(check feq) "iqr of 1..4" 1.0 (Stat.iqr_share [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check feq) "iqr of one" 0.0 (Stat.iqr_share [ 3.0 ]);
  let setup = { Diff.name = "setup_s"; better = Diff.Lower; bound = 0.25 } in
  let scaled k xs = List.map (fun x -> k *. x) xs in
  let noisy = [ 0.030; 0.032; 0.035; 0.040; 0.041; 0.045; 0.050; 0.060; 0.070 ] in
  let quiet = [ 0.040; 0.040; 0.041; 0.041; 0.041; 0.042; 0.042; 0.043; 0.043 ] in
  let m = Metric.median "setup_s" "s" in
  Alcotest.(check feq) "median value" 0.041 (m noisy).value;
  (* 30% slower, beyond the bound, but the samples spread over half
     their median: the medians cannot decide *)
  Alcotest.check verdict "noisy set-ups" Diff.Unresolved
    (Diff.classify setup ~old_m:(m noisy) ~new_m:(m (scaled 1.3 noisy)));
  (* another draw of the same noise, its median 27% higher *)
  let redraw = [ 0.028; 0.033; 0.038; 0.044; 0.052; 0.055; 0.061; 0.068; 0.075 ] in
  Alcotest.check verdict "noisy, same commit" Diff.Unresolved
    (Diff.classify setup ~old_m:(m noisy) ~new_m:(m redraw));
  Alcotest.check verdict "quiet set-ups" Diff.Worse
    (Diff.classify setup ~old_m:(m quiet) ~new_m:(m (scaled 1.3 quiet)));
  Alcotest.check verdict "quiet, same commit" Diff.Same
    (Diff.classify setup ~old_m:(m quiet) ~new_m:(m (scaled 1.02 quiet)))

let result ~failed ~wall : Json.t =
  Obj
    [
      ( "workloads",
        Obj
          [
            ( "suite-explicit",
              Obj
                [
                  ( "untraced",
                    Obj
                      [
                        ("failed_ratio", Float failed);
                        ( "metrics",
                          Obj
                            [
                              ( "wall_s",
                                Obj
                                  [
                                    ("value", Float wall);
                                    ("unit", Str "s");
                                    ("passes", List [ Float wall ]);
                                    ("spread", Float 0.0);
                                  ] );
                            ]
                        );
                      ] );
                ] );
          ] );
    ]

let test_diff_exit () =
  let run ~old_r ~new_r =
    snd (Diff.compare ~bounds:[ lower ] ~old_result:old_r ~new_result:new_r)
  in
  Alcotest.(check bool) "same" false
    (run ~old_r:(result ~failed:0.0 ~wall:10.0) ~new_r:(result ~failed:0.0 ~wall:10.2));
  Alcotest.(check bool) "worse wall" true
    (run ~old_r:(result ~failed:0.0 ~wall:10.0) ~new_r:(result ~failed:0.0 ~wall:12.0));
  Alcotest.(check bool) "more failures" true
    (run ~old_r:(result ~failed:0.0 ~wall:10.0) ~new_r:(result ~failed:0.01 ~wall:9.0))

let test_self_time () =
  let t = Span.create () in
  let root = Span.add t "op" ~start_ns:0 ~stop_ns:100 in
  (* two overlapping children cover [10, 50): 40 of the root's 100 *)
  let a = Span.add t ~parent:root.Span.id "a" ~start_ns:10 ~stop_ns:30 in
  let _ = Span.add t ~parent:root.Span.id "b" ~start_ns:20 ~stop_ns:50 in
  let _ = Span.add t ~parent:a.Span.id "c" ~start_ns:12 ~stop_ns:18 in
  (* a grandchild does not count against the root *)
  let self = Span.self_times (Span.spans t) in
  let of_name n = snd (List.find (fun ((s : Span.span), _) -> s.name = n) self) in
  Alcotest.(check int) "root" 60 (of_name "op");
  Alcotest.(check int) "a" 14 (of_name "a");
  Alcotest.(check int) "b" 30 (of_name "b");
  Alcotest.(check int) "c" 6 (of_name "c");
  let by_name = Span.self_ms_by_name (Span.spans t) in
  Alcotest.(check (list string)) "names in order" [ "op"; "a"; "b"; "c" ] (List.map fst by_name);
  Alcotest.(check feq) "root in ms" 60e-6 (List.assoc "op" by_name)

let test_generators () =
  let ids items = List.map (fun (i : Workload.item) -> Json.print (Cgcm_serve.Wire.request_to_json i.req)) items in
  let hot seed = ids (Workload.hot_requests ~seed ~pass:0 ~copies:2) in
  let cold seed = ids (Workload.cold_requests ~seed ~pass:0) in
  Alcotest.(check (list string)) "hot: same seed" (hot 1) (hot 1);
  Alcotest.(check bool) "hot: other seed" false (hot 1 = hot 2);
  Alcotest.(check (list string)) "cold: same seed" (cold 1) (cold 1);
  Alcotest.(check bool) "cold: other seed" false (cold 1 = cold 2);
  Alcotest.(check int) "cold: every source unique" 512
    (List.length (List.sort_uniq compare (List.map (fun (i : Workload.item) -> i.req.rq_source) (Workload.cold_requests ~seed:1 ~pass:0))));
  let order seed = List.map (fun (p : Cgcm_progs.Registry.program) -> p.name) (Workload.suite_order ~seed) in
  Alcotest.(check (list string)) "suite: same seed" (order 1) (order 1);
  Alcotest.(check bool) "suite: other seed" false (order 1 = order 2)

(* The traced composition must match [Pipeline.run] bit for bit. *)
let test_traced_matches () =
  let source = Cgcm_progs.Polybench.gemm ~n:6 () in
  List.iter
    (fun mode ->
      let spans = Span.create () in
      let traced, _ = Runner.run_traced spans ~lane:0 ~op:0 ~mode source in
      Alcotest.(check bool) mode true (Runner.run ~mode source = traced))
    [ "seq"; "ie"; "unopt"; "opt"; "unopt+paged"; "opt+paged" ]

(* The metrics a run prints are the ones BENCHMARK.json declares. *)
let test_declared () =
  let b = Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  let declared key =
    match Json.member key b with
    | Some (List ms) -> List.map (fun m -> (Json.str_field "name" m, Json.str_field "unit" m)) ms
    | _ -> []
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metric.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metric.per_layer (declared "per_layer");
  Alcotest.(check (list string)) "workloads"
    (List.map Workload.name Workload.all)
    (match Json.member "workloads" b with
    | Some (List ws) -> List.map (Json.str_field "name") ws
    | _ -> [])

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "simulated geomeans" `Quick test_geomean;
          Alcotest.test_case "diff classification" `Quick test_diff_classes;
          Alcotest.test_case "diff of medians" `Quick test_diff_medians;
          Alcotest.test_case "diff exit status" `Quick test_diff_exit;
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "generators are deterministic" `Quick test_generators;
          Alcotest.test_case "traced runs match untraced" `Quick test_traced_matches;
          Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_declared;
        ] );
    ]
