(** The end-to-end CGCM pipeline: CGC source -> AST -> DOALL outlining ->
    IR -> communication management -> communication optimization -> the
    simulated split-memory machine. This is the facade the CLI, examples,
    benchmarks and tests go through. *)

module Doall = Cgcm_frontend.Doall
module Ir = Cgcm_ir.Ir
module Interp = Cgcm_interp.Interp

(** How much of CGCM runs after parallelization. *)
type level =
  | Unmanaged  (** DOALL only: launches carry raw CPU pointers *)
  | Managed  (** + communication management (unoptimized CGCM) *)
  | Optimized  (** + glue kernels, alloca promotion, map promotion *)

type compiled = {
  modul : Ir.modul;
  doall : Doall.report;  (** kernels created, loops rejected, and why *)
  level : level;
  parallel : Doall.mode;
  pass_stats : Cgcm_transform.Pass.pass_stat list;
      (** one row per pass execution, in execution order *)
}

val plan_of_level : level -> Cgcm_transform.Pass.plan

val compile :
  ?parallel:Doall.mode ->
  ?level:level ->
  ?plan:Cgcm_transform.Pass.plan ->
  ?hooks:Cgcm_transform.Pass.hooks ->
  string ->
  compiled
(** Compile CGC source text. The module is verified after lowering and
    after every transformation. [plan] overrides the pass plan the
    [level] implies — e.g. a custom [--passes] spec; [hooks] observes
    each pass execution. Raises the frontend/transform exceptions
    ([Parse_error], [Sema_error], [Doall_error], [Ill_formed]) on bad
    input or (for the latter) a compiler bug. *)

(** The paper's execution configurations. *)
type execution =
  | Sequential
      (** best sequential CPU-only run — the baseline. Parallelization is
          off; explicitly written kernels execute in unified memory with
          their work charged as CPU time. *)
  | Cgcm_unoptimized  (** management only: cyclic communication *)
  | Cgcm_optimized  (** full CGCM: acyclic communication *)
  | Inspector_executor_exec  (** the idealized baseline of Section 6.3 *)
  | Unified_oracle of level
      (** flat-memory functional oracle for differential tests *)

val execution_to_string : execution -> string

(** What an execution configuration means. Every consumer — {!run}, the
    CLI, the serve engine, the chaos harness — derives its behaviour
    from this one mapping. *)
type shape = {
  doall_mode : Doall.mode;
      (** DOALL outlining: [Off] for the sequential baseline *)
  compile_level : level;  (** how much of CGCM the mid-end runs *)
  interp_mode : Interp.mode;  (** the memory model the interpreter simulates *)
  dirty_spans : bool;
      (** run-time transfers move dirty spans (the optimized run-time)
          rather than whole units (the paper's unoptimized protocol) *)
}

val shape : execution -> shape

val executions : (string * execution) list
(** The mode-name table: [seq], [unopt], [opt], [ie], [unified]. *)

val mode_names : string list
(** Every mode name {!parse_mode} accepts for a distinct run: the
    {!executions} names, plus the split-memory ones suffixed with each
    memory backend ([opt+paged], [unopt+explicit], ...). *)

val parse_mode :
  string -> (execution * Cgcm_runtime.Mem_backend.kind, string) result
(** Parse [NAME] or [NAME+BACKEND]; no suffix means [Explicit]. The
    suffix is inert outside the split-memory configurations. The error
    names the accepted spellings. *)

val compile_for :
  ?plan:Cgcm_transform.Pass.plan ->
  ?hooks:Cgcm_transform.Pass.hooks ->
  execution ->
  string ->
  compiled
(** {!compile} at the DOALL mode and level the execution's {!shape}
    names — the compile half of {!run}. *)

val config :
  ?cost:Cgcm_gpusim.Cost_model.t ->
  ?trace:bool ->
  ?engine:Interp.engine ->
  ?faults:Cgcm_gpusim.Faults.spec ->
  ?device_mem:int ->
  ?page_bytes:int ->
  ?paranoid:bool ->
  ?sanitize:bool ->
  ?jobs:int ->
  ?backend:Cgcm_runtime.Mem_backend.kind ->
  execution ->
  Interp.config
(** The interpreter configuration for an execution — the run half of
    {!run}. Fields the options do not name keep
    {!Interp.default_config}'s values.

    [engine] selects the interpreter engine (default
    {!Interp.default_config}'s, i.e. the closure-compiled one) and [jobs]
    its host parallelism (default 1, see {!Interp.config}). Dirty-span
    transfers follow the {!shape}: on for {!Cgcm_optimized} only, so
    {!Cgcm_unoptimized} keeps the paper's whole-unit protocol and the
    Figure 4 contrast measures what the paper measures.

    [faults] arms a deterministic driver fault plan and [device_mem]
    caps device memory (see {!Cgcm_gpusim.Faults}); the run-time then
    recovers via eviction, retry and CPU fallback without changing
    program output. [paranoid] re-checks every run-time invariant after
    every run-time call. [sanitize] arms the shadow-memory coherence
    sanitizer on the Split configurations (raises
    [Cgcm_support.Errors.Coherence_violation] fail-fast on a coherence
    bug; a no-op for the oracle modes and the paged backend, which have
    one memory and nothing to keep coherent).

    [backend] selects the memory backend for the Split configurations
    ({!Cgcm_unoptimized}/{!Cgcm_optimized}): [Explicit] (default) is the
    CGCM-managed explicit-copy model, [Paged] a single shared address
    space charging touch-driven page-granular migration, under which the
    cgcm.* intrinsics are no-ops. [page_bytes] overrides the migration
    granularity ({!Cgcm_gpusim.Cost_model.t.page_bytes}). Program output
    must be bit-identical across backends. *)

val run :
  ?cost:Cgcm_gpusim.Cost_model.t ->
  ?trace:bool ->
  ?engine:Interp.engine ->
  ?faults:Cgcm_gpusim.Faults.spec ->
  ?device_mem:int ->
  ?page_bytes:int ->
  ?paranoid:bool ->
  ?sanitize:bool ->
  ?jobs:int ->
  ?backend:Cgcm_runtime.Mem_backend.kind ->
  execution ->
  string ->
  compiled * Interp.result
(** Compile and execute CGC source under the given configuration:
    {!compile_for} composed with {!config}, whose options it takes. *)
