(* The end-to-end CGCM pipeline: CGC source -> AST -> DOALL outlining ->
   IR -> communication management -> communication optimization.

   This is the facade most users (CLI, examples, benchmarks, tests) go
   through. *)

module Ast = Cgcm_frontend.Ast
module Parser = Cgcm_frontend.Parser
module Doall = Cgcm_frontend.Doall
module Lower = Cgcm_frontend.Lower
module Ir = Cgcm_ir.Ir
module Interp = Cgcm_interp.Interp
module Pass = Cgcm_transform.Pass
module Manager = Cgcm_analysis.Manager
module Mem_backend = Cgcm_runtime.Mem_backend

(* How much of CGCM runs after parallelization. *)
type level =
  | Unmanaged  (* DOALL only: launches carry raw CPU pointers *)
  | Managed  (* + communication management (unoptimized CGCM) *)
  | Optimized  (* + glue kernels, alloca promotion, map promotion *)

type compiled = {
  modul : Ir.modul;
  doall : Doall.report;
  level : level;
  parallel : Doall.mode;
  pass_stats : Pass.pass_stat list;  (* one row per pass execution *)
}

let plan_of_level = function
  | Unmanaged -> Pass.unmanaged_plan
  | Managed -> Pass.managed_pipeline
  | Optimized -> Pass.optimized_pipeline

let compile ?(parallel = Doall.Auto) ?(level = Optimized) ?plan ?hooks
    (source : string) : compiled =
  let ast = Parser.parse_string source in
  let ast, doall = Doall.transform ~mode:parallel ast in
  let modul = Lower.lower_program ast in
  (* The pass framework runs the §5.3 schedule; simplification runs in
     every configuration (including the sequential baseline) so cost
     comparisons stay fair. An explicit [plan] overrides the level's; the
     level still names what the interpreter should expect of the
     module. *)
  let plan = match plan with Some p -> p | None -> plan_of_level level in
  let stats = ref [] in
  let base = match hooks with Some h -> h | None -> Pass.default_hooks in
  let hooks =
    {
      base with
      Pass.on_stat =
        (fun s ->
          stats := s :: !stats;
          base.Pass.on_stat s);
    }
  in
  Pass.run_plan ~hooks (Manager.create modul) plan;
  { modul; doall; level; parallel; pass_stats = List.rev !stats }

(* The paper's execution configurations. *)
type execution =
  | Sequential  (* best sequential CPU-only run: the baseline *)
  | Cgcm_unoptimized
  | Cgcm_optimized
  | Inspector_executor_exec
  | Unified_oracle of level  (* functional oracle for differential tests *)

let execution_to_string = function
  | Sequential -> "sequential"
  | Cgcm_unoptimized -> "cgcm-unopt"
  | Cgcm_optimized -> "cgcm-opt"
  | Inspector_executor_exec -> "inspector-executor"
  | Unified_oracle _ -> "unified-oracle"

(* What an execution configuration means — the one place it is said. *)
type shape = {
  doall_mode : Doall.mode;
  compile_level : level;
  interp_mode : Interp.mode;
  dirty_spans : bool;
}

let shape = function
  | Sequential ->
    (* No DOALL, no management. Explicitly-written kernels (the manual-
       parallelization path) still carry launch statements, so the
       baseline executes in unified memory: kernels run as ordinary host
       loops and their instructions are charged as CPU time. *)
    {
      doall_mode = Doall.Off;
      compile_level = Unmanaged;
      interp_mode = Interp.Unified;
      dirty_spans = false;
    }
  | Cgcm_unoptimized ->
    (* Dirty-span transfers are part of the optimized run-time; the
       unoptimized configuration keeps the paper's whole-unit protocol so
       the Figure 4 contrast measures what the paper measures. *)
    {
      doall_mode = Doall.Auto;
      compile_level = Managed;
      interp_mode = Interp.Split;
      dirty_spans = false;
    }
  | Cgcm_optimized ->
    {
      doall_mode = Doall.Auto;
      compile_level = Optimized;
      interp_mode = Interp.Split;
      dirty_spans = true;
    }
  | Inspector_executor_exec ->
    {
      doall_mode = Doall.Auto;
      compile_level = Unmanaged;
      interp_mode = Interp.Inspector_executor;
      dirty_spans = false;
    }
  | Unified_oracle level ->
    {
      doall_mode = Doall.Auto;
      compile_level = level;
      interp_mode = Interp.Unified;
      dirty_spans = false;
    }

(* The names the CLI, the wire protocol, the journal and the chaos
   harness use for the configurations. *)
let executions =
  [
    ("seq", Sequential);
    ("unopt", Cgcm_unoptimized);
    ("opt", Cgcm_optimized);
    ("ie", Inspector_executor_exec);
    ("unified", Unified_oracle Optimized);
  ]

(* Every spelling [parse_mode] accepts that names a distinct run: the
   split-memory configurations also take a memory-backend suffix. *)
let mode_names =
  List.map fst executions
  @ List.concat_map
      (fun (name, e) ->
        if (shape e).interp_mode = Interp.Split then
          List.map (fun (b, _) -> name ^ "+" ^ b) Mem_backend.all
        else [])
      executions

(* A mode is an execution name with an optional "+BACKEND" suffix. The
   suffix is inert outside the split-memory configurations, like
   [config]'s [backend]. *)
let parse_mode m =
  let base, suffix =
    match String.index_opt m '+' with
    | None -> (m, None)
    | Some i ->
      (String.sub m 0 i, Some (String.sub m (i + 1) (String.length m - i - 1)))
  in
  match (List.assoc_opt base executions, suffix) with
  | None, _ ->
    Error
      (Printf.sprintf "unknown mode %S (want %s, optionally suffixed %s)" m
         (String.concat "|" (List.map fst executions))
         (String.concat " or "
            (List.map (fun (b, _) -> "+" ^ b) Mem_backend.all)))
  | Some e, None -> Ok (e, Mem_backend.Explicit)
  | Some e, Some s -> Result.map (fun b -> (e, b)) (Mem_backend.of_string s)

let compile_for ?plan ?hooks execution source =
  let s = shape execution in
  compile ~parallel:s.doall_mode ~level:s.compile_level ?plan ?hooks source

let config ?(cost = Cgcm_gpusim.Cost_model.default) ?(trace = false)
    ?(engine = Interp.default_config.Interp.engine) ?faults ?device_mem
    ?page_bytes ?(paranoid = false) ?(sanitize = false) ?(jobs = 1)
    ?(backend = Mem_backend.Explicit) execution : Interp.config =
  let s = shape execution in
  let cost =
    match device_mem with
    | Some bytes ->
      { cost with Cgcm_gpusim.Cost_model.device_mem_bytes = bytes }
    | None -> cost
  in
  let cost =
    match page_bytes with
    | Some bytes -> { cost with Cgcm_gpusim.Cost_model.page_bytes = bytes }
    | None -> cost
  in
  {
    Interp.default_config with
    mode = s.interp_mode;
    cost;
    trace;
    engine;
    dirty_spans = s.dirty_spans;
    faults;
    paranoid;
    sanitize;
    jobs;
    backend;
  }

let run ?cost ?trace ?engine ?faults ?device_mem ?page_bytes ?paranoid
    ?sanitize ?jobs ?backend execution source =
  let c = compile_for execution source in
  let config =
    config ?cost ?trace ?engine ?faults ?device_mem ?page_bytes ?paranoid
      ?sanitize ?jobs ?backend execution
  in
  (c, Interp.run ~config c.modul)
