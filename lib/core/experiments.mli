(** Drivers that regenerate the paper's tables and figures; the
    per-experiment index lives in DESIGN.md, and paper-vs-measured values
    in EXPERIMENTS.md. *)

module Interp = Cgcm_interp.Interp
module Registry = Cgcm_progs.Registry

type prog_result = {
  prog : Registry.program;
  seq : Interp.result;
  ie : Interp.result;
  unopt : Interp.result;
  opt : Interp.result;
  kernels : int;  (** kernels created by the DOALL parallelizer *)
  baseline_applicable : int;  (** named-regions / inspector-executor *)
  outputs_match : bool;
      (** all four configurations printed identical output *)
}

val speedup : seq:Interp.result -> Interp.result -> float

val run_program :
  ?cost:Cgcm_gpusim.Cost_model.t ->
  ?engine:Interp.engine ->
  ?jobs:int ->
  ?backend:Cgcm_runtime.Mem_backend.kind ->
  ?page_bytes:int ->
  Registry.program ->
  prog_result
(** Run one program under all four configurations. [engine], [jobs],
    [backend] and [page_bytes] pass through to {!Pipeline.run} ([backend]
    shapes only the split-memory configurations, [jobs] only host time). *)

val run_suite :
  ?cost:Cgcm_gpusim.Cost_model.t ->
  ?engine:Interp.engine ->
  ?jobs:int ->
  ?backend:Cgcm_runtime.Mem_backend.kind ->
  ?page_bytes:int ->
  ?progress:(string -> unit) ->
  unit ->
  prog_result list
(** All 24 programs. *)

val geomeans :
  prog_result list -> (float * float * float) * (float * float * float)
(** ((IE, unopt, opt), same clamped at 1.0) — the Figure 4 geomeans. *)

val figure4 : prog_result list -> string
(** Figure 4: per-program log-scale speedup bars + geomeans vs paper. *)

val limiting : Interp.result -> Registry.limiting
(** Classify the limiting factor from the time breakdown (>=50% rule). *)

val table3 : prog_result list -> string
(** Table 3: suite, limiting factors, GPU%/Comm% unopt and opt, kernel
    counts and baseline applicability — side by side with the paper. *)

val applicability : prog_result list -> string
(** The Section 6 kernel-count claim (101 / 101 / 80 in the paper). *)

val volume_table : prog_result list -> string
(** Extension: bytes moved and DMA counts per configuration — quantifies
    Section 6.3's "dramatically fewer bytes" trade. *)

val breakdown_table : prog_result list -> string
(** Extension: absolute cycle decomposition (wall / cpu / gpu / comm /
    sync / launches) of the optimized runs. *)

val table1 : unit -> string
(** Table 1: the paper's static comparison plus executed capability
    checks (each microbenchmark diffed against its sequential run). *)

val figure1 : unit -> string
(** Figure 1: the related-work taxonomy, annotated with where this
    reproduction's configurations sit. *)

val figure3 : unit -> string
(** Figure 3: the system overview as a pipeline diagram, one module per
    stage. *)

val figure2 : unit -> string
(** Figure 2: rendered execution schedules for the naive cyclic,
    inspector-executor, and acyclic regimes. *)

val latency_sweep : unit -> string
(** Extension: sweep the per-transfer latency and show the qualitative
    ordering (opt > IE > unopt) is invariant. *)

val ablation : unit -> string
(** Extension: per-pass contributions — managed only, map promotion
    alone, + glue kernels, + alloca promotion. *)
