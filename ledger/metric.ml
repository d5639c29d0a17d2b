(* A named metric with its unit: the reported value and, for host-time
   metrics, the per-pass values behind it and how far apart they lie,
   judged the way the value was taken from them. *)

module Json = Cgcm_serve.Json

type t = { name : string; unit_ : string; value : float; passes : float list; spread : float }

let make name unit_ value = { name; unit_; value; passes = []; spread = 0.0 }

(* The best of [passes], or [value] where the best was taken op by op. *)
let best ?value ~higher name unit_ passes =
  {
    name;
    unit_;
    value = (match value with Some v -> v | None -> Stat.best ~higher passes);
    passes;
    spread = Stat.gap ~higher passes;
  }

let median name unit_ passes =
  { name; unit_; value = Stat.median passes; passes; spread = Stat.iqr_share passes }

(* The end-to-end metrics, in the order BENCHMARK.json lists them. Every
   workload reports all of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("sim_cycles_geomean", "cycles");
    ("sim_speedup_geomean", "ratio");
    ("sim_comm_bytes", "bytes");
  ]

let pass_names = [ "simplify"; "comm-mgmt"; "glue-kernels"; "alloca-promotion"; "map-promotion" ]

(* The per-layer metrics of a traced run, in BENCHMARK.json order. Every
   workload reports all of them; a layer the workload never reaches
   reports 0. *)
let per_layer =
  [
    ("frontend.parse_ms", "ms");
    ("frontend.doall_ms", "ms");
    ("frontend.lower_ms", "ms");
    ("frontend.kernels", "count");
  ]
  @ List.map (fun p -> ("transform." ^ p ^ "_ms", "ms")) pass_names
  @ [
      ("transform.rtcalls_after", "count");
      ("transform.ir_instrs_after", "count");
      ("analysis.cache_hit_ratio", "ratio");
      ("analysis.lookups", "count");
      ("interp.run_ms", "ms");
      ("interp.insts", "count");
      ("interp.ns_per_inst", "ns");
      ("gpusim.cpu_cycles", "cycles");
      ("gpusim.gpu_cycles", "cycles");
      ("gpusim.comm_cycles", "cycles");
      ("gpusim.sync_cycles", "cycles");
      ("gpusim.launches", "count");
      ("gpusim.transfers", "count");
      ("runtime.map_calls", "count");
      ("runtime.skipped_copy_ratio", "ratio");
      ("runtime.bytes_saved", "bytes");
      ("runtime.evictions", "count");
      ("paged.touches", "count");
      ("paged.faults", "count");
      ("paged.fault_ratio", "ratio");
      ("paged.migrated_bytes", "bytes");
      ("op.exec_ms", "ms");
      ("op.overhead_ms", "ms");
      ("serve.cache_hit_ratio", "ratio");
      ("serve.batched_ratio", "ratio");
      ("serve.warm_coalesced", "count");
      ("serve.latency_growth", "ratio");
      ("bench.unaccounted_ratio", "ratio");
      ("bench.trace_overhead", "ratio");
    ]

(* Look each of [names] up in [ms], in order; a metric the run did not
   produce, or produced in another unit, is a bug in the ledger. *)
let select names ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m when m.unit_ = unit_ -> m
      | Some _ | None -> failwith ("ledger: metric " ^ name ^ " was not measured in " ^ unit_))
    names

(* A run's last line carries each metric as {"value": v, "unit": u}. *)
let value_json m : Json.t = Obj [ ("value", Float m.value); ("unit", Str m.unit_) ]

(* The result file's form adds the per-pass values behind the value, and
   their spread. *)
let full_json m : Json.t =
  Obj
    ([ ("value", Json.Float m.value); ("unit", Str m.unit_) ]
    @
    match m.passes with
    | [] -> []
    | ps ->
      [ ("passes", List (List.map (fun p -> Json.Float p) ps)); ("spread", Float m.spread) ])
