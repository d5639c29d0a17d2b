(* Per-layer metrics of a traced run. Layer times are span self times
   over one traced run of each (program, mode) the workload carries;
   counts are summed from those runs' facts. *)

(* One traced program run, as [Runner.run_traced] returns it. *)
type run = { mode : string; facts : Runner.facts; compile : Runner.compile_facts }

(* What the serve workloads measure from replies and daemon stats; the
   suite workloads have no daemon and pass [no_serve]. *)
type serve = {
  cache_hit_ratio : float;
  batched_ratio : float;
  warm_coalesced : int;
  latency_growth : float;
}

let no_serve =
  { cache_hit_ratio = 0.0; batched_ratio = 0.0; warm_coalesced = 0; latency_growth = 0.0 }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* [wall_ns] is the traced layer pass's wall time; time inside it that no
   layer span covers is unaccounted. The op span is the harness, not a
   layer, so its self time counts as unaccounted too. *)
let metrics ~spans ~wall_ns ~exec_ms ~overhead_ms ~trace_overhead ~serve
    (runs : run list) =
  let self = Span.self_ms_by_name spans in
  let ms name = Option.value ~default:0.0 (List.assoc_opt name self) in
  let layer_ms =
    List.fold_left (fun acc (n, v) -> if n = "op" then acc else acc +. v) 0.0 self
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let facts f = sum (fun r -> f r.facts) and compile f = sum (fun r -> f r.compile) in
  let paged f =
    sum (fun r -> if snd (Workload.execution r.mode) = Workload.Mem_backend.Paged then f r.facts else 0)
  in
  let insts = facts (fun f -> f.Runner.insts) in
  let map_calls = facts (fun f -> f.Runner.map_calls) in
  let touches = facts (fun f -> f.Runner.touches) in
  let faults = facts (fun f -> f.Runner.faults) in
  let count name v = Metric.make name "count" (float_of_int v) in
  let wall_ms = float_of_int wall_ns /. 1e6 in
  [
    Metric.make "frontend.parse_ms" "ms" (ms "frontend.parse");
    Metric.make "frontend.doall_ms" "ms" (ms "frontend.doall");
    Metric.make "frontend.lower_ms" "ms" (ms "frontend.lower");
    count "frontend.kernels" (compile (fun c -> c.Runner.kernels));
  ]
  @ List.map
      (fun p -> Metric.make ("transform." ^ p ^ "_ms") "ms" (ms ("transform." ^ p)))
      Metric.pass_names
  @ [
      count "transform.rtcalls_after" (compile (fun c -> c.Runner.rtcalls_after));
      count "transform.ir_instrs_after" (compile (fun c -> c.Runner.instrs_after));
      Metric.make "analysis.cache_hit_ratio" "ratio"
        (ratio
           (compile (fun c -> c.Runner.analysis_hits))
           (compile (fun c -> c.Runner.analysis_lookups)));
      count "analysis.lookups" (compile (fun c -> c.Runner.analysis_lookups));
      Metric.make "interp.run_ms" "ms" (ms "interp.run");
      count "interp.insts" insts;
      Metric.make "interp.ns_per_inst" "ns"
        (if insts = 0 then 0.0 else ms "interp.run" *. 1e6 /. float_of_int insts);
      Metric.make "gpusim.cpu_cycles" "cycles" (sumf (fun r -> r.facts.Runner.cpu_cycles));
      Metric.make "gpusim.gpu_cycles" "cycles" (sumf (fun r -> r.facts.Runner.gpu_cycles));
      Metric.make "gpusim.comm_cycles" "cycles" (sumf (fun r -> r.facts.Runner.comm_cycles));
      Metric.make "gpusim.sync_cycles" "cycles" (sumf (fun r -> r.facts.Runner.sync_cycles));
      count "gpusim.launches" (facts (fun f -> f.Runner.launches));
      count "gpusim.transfers" (facts (fun f -> f.Runner.transfers));
      count "runtime.map_calls" map_calls;
      Metric.make "runtime.skipped_copy_ratio" "ratio"
        (ratio (facts (fun f -> f.Runner.skipped_copies)) map_calls);
      Metric.make "runtime.bytes_saved" "bytes"
        (float_of_int (facts (fun f -> f.Runner.bytes_saved)));
      count "runtime.evictions" (facts (fun f -> f.Runner.evictions));
      count "paged.touches" touches;
      count "paged.faults" faults;
      Metric.make "paged.fault_ratio" "ratio" (ratio faults touches);
      Metric.make "paged.migrated_bytes" "bytes"
        (float_of_int (paged (fun f -> f.Runner.comm_bytes)));
      Metric.make "op.exec_ms" "ms" (Stat.median exec_ms);
      Metric.make "op.overhead_ms" "ms" (Stat.median overhead_ms);
      Metric.make "serve.cache_hit_ratio" "ratio" serve.cache_hit_ratio;
      Metric.make "serve.batched_ratio" "ratio" serve.batched_ratio;
      count "serve.warm_coalesced" serve.warm_coalesced;
      Metric.make "serve.latency_growth" "ratio" serve.latency_growth;
      Metric.make "bench.unaccounted_ratio" "ratio"
        (if wall_ms <= 0.0 then 0.0 else Float.max 0.0 (wall_ms -. layer_ms) /. wall_ms);
      Metric.make "bench.trace_overhead" "ratio" trace_overhead;
    ]

(* Per-op split for the suites: an op span's children are the layer
   calls (exec); its self time is the harness around them (overhead). *)
let op_split spans =
  List.filter_map
    (fun ((s : Span.span), self_ns) ->
      if s.name = "op" then
        Some
          ( float_of_int (s.stop_ns - s.start_ns - self_ns) /. 1e6,
            float_of_int self_ns /. 1e6 )
      else None)
    (Span.self_times spans)
  |> List.split
