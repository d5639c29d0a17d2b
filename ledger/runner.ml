(* One program run under one mode, either through [Pipeline.run] or, in
   the traced pass, composed from each layer's public calls with a span
   around every call. Both paths must yield the same facts bit for bit:
   output, exit code, cycles, instructions and every device count. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Parser = Cgcm_frontend.Parser
module Doall = Cgcm_frontend.Doall
module Lower = Cgcm_frontend.Lower
module Pass = Cgcm_transform.Pass
module Manager = Cgcm_analysis.Manager
module Device = Cgcm_gpusim.Device
module Runtime = Cgcm_runtime.Runtime
module Paged = Cgcm_runtime.Paged

(* What the ledger checks and sums from one run. *)
type facts = {
  output : string;
  exit_code : int64;
  cycles : float;
  cpu_cycles : float;
  gpu_cycles : float;
  comm_cycles : float;
  sync_cycles : float;
  insts : int;
  launches : int;
  transfers : int;
  comm_bytes : int;  (** htod + dtoh bytes, or migrated bytes when paged *)
  map_calls : int;
  skipped_copies : int;
  bytes_saved : int;
  evictions : int;
  touches : int;
  faults : int;
  leaked : bool;
}

let facts_of (r : Interp.result) =
  let d = r.dev_stats and rt = r.rt_stats in
  let touches, faults, migrated =
    match r.page_stats with
    | Some p ->
      ( p.Paged.touches,
        p.Paged.faults_to_dev + p.Paged.faults_to_host,
        Some (p.Paged.bytes_to_dev + p.Paged.bytes_to_host) )
    | None -> (0, 0, None)
  in
  {
    output = r.output;
    exit_code = r.exit_code;
    cycles = r.wall;
    cpu_cycles = r.cpu_compute;
    gpu_cycles = r.gpu;
    comm_cycles = r.comm;
    sync_cycles = r.sync;
    insts = r.cpu_insts + r.kernel_insts;
    launches = d.Device.launches;
    transfers = d.Device.htod_count + d.Device.dtoh_count;
    comm_bytes =
      Option.value migrated ~default:(d.Device.htod_bytes + d.Device.dtoh_bytes);
    map_calls = rt.Runtime.map_calls;
    skipped_copies = rt.Runtime.skipped_copies;
    bytes_saved = rt.Runtime.bytes_saved;
    evictions = rt.Runtime.evictions;
    touches;
    faults;
    leaked =
      r.leaks.Runtime.resident_nonglobal <> 0
      || r.leaks.Runtime.leaked_dev_blocks <> 0;
  }

let run ~mode source =
  let exec, backend = Workload.execution mode in
  facts_of (snd (Pipeline.run ~backend exec source))

(* What the traced compile adds: counts no untraced run reports. *)
type compile_facts = {
  kernels : int;
  rtcalls_after : int;
  instrs_after : int;
  analysis_hits : int;
  analysis_lookups : int;
}

(* The DOALL mode, compile level and interpreter mode [Pipeline.run]
   picks for each execution. *)
let plan exec =
  match exec with
  | Pipeline.Sequential -> (Doall.Off, Pipeline.Unmanaged, Interp.Unified)
  | Pipeline.Inspector_executor_exec ->
    (Doall.Auto, Pipeline.Unmanaged, Interp.Inspector_executor)
  | Pipeline.Cgcm_unoptimized -> (Doall.Auto, Pipeline.Managed, Interp.Split)
  | Pipeline.Cgcm_optimized -> (Doall.Auto, Pipeline.Optimized, Interp.Split)
  | Pipeline.Unified_oracle l -> (Doall.Auto, l, Interp.Unified)

let compile ~mode source =
  let parallel, level, _ = plan (fst (Workload.execution mode)) in
  ignore (Pipeline.compile ~parallel ~level source : Pipeline.compiled)

(* [Pipeline.run]'s composition, spelled out with its configuration.
   Pass spans run from one [on_stat] to the next, so each covers its
   pass's step and verification. *)
let run_traced spans ~lane ~op ~mode source =
  let exec, backend = Workload.execution mode in
  let parallel, level, imode = plan exec in
  Span.record spans ~lane ~op "op" (fun root ->
      let layer name f =
        Span.record spans ~parent:root.Span.id ~lane ~op name (fun _ -> f ())
      in
      let ast = layer "frontend.parse" (fun () -> Parser.parse_string source) in
      let ast, doall =
        layer "frontend.doall" (fun () -> Doall.transform ~mode:parallel ast)
      in
      let modul = layer "frontend.lower" (fun () -> Lower.lower_program ast) in
      let last = ref None and analysis = ref [] in
      Span.record spans ~parent:root.Span.id ~lane ~op "transform" (fun tr ->
          let mgr = Manager.create modul in
          let mark = ref (Span.now_ns ()) in
          let on_stat (st : Pass.pass_stat) =
            let now = Span.now_ns () in
            ignore
              (Span.add spans ~parent:tr.Span.id ~lane ~op
                 ("transform." ^ st.Pass.ps_pass)
                 ~start_ns:!mark ~stop_ns:now);
            mark := now;
            last := Some st
          in
          Pass.run_plan
            ~hooks:{ Pass.default_hooks with on_stat }
            mgr
            (Pipeline.plan_of_level level);
          analysis := Manager.stats mgr);
      let config =
        {
          Interp.default_config with
          mode = imode;
          dirty_spans = exec = Pipeline.Cgcm_optimized;
          backend;
        }
      in
      let r = layer "interp.run" (fun () -> Interp.run ~config modul) in
      let hits, lookups =
        List.fold_left
          (fun (h, l) (_, hit, miss) -> (h + hit, l + hit + miss))
          (0, 0) !analysis
      in
      ( facts_of r,
        {
          kernels = List.length doall.Doall.kernels;
          rtcalls_after =
            (match !last with Some s -> s.Pass.ps_rtcalls_after | None -> 0);
          instrs_after =
            (match !last with Some s -> s.Pass.ps_instrs_after | None -> 0);
          analysis_hits = hits;
          analysis_lookups = lookups;
        } ))
