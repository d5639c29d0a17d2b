(** IR interpreter with the split CPU/GPU memory model and the analytic
    cost model attached.

    Execution modes:
    - {!Split} — the real model: kernels execute against device memory,
      all data movement must go through the CGCM run-time (or explicit
      driver calls), and the clock advances per the cost model.
    - {!Unified} — a debugging oracle: one flat memory, kernels read host
      memory directly, [cgcm.*] intrinsics are identity/no-ops, kernel
      work is charged as CPU time. Every transformed program must produce
      the same observable output under [Unified] as the untransformed
      program — the differential tests lean on this. It is also the
      sequential baseline for programs with explicitly written kernels.
    - {!Inspector_executor} — the idealized baseline of Section 6.3: an
      oracle scheduler, one byte transferred per accessed allocation unit
      (batched into one DMA per direction per launch), a sequential
      inspection pass before every launch, fully cyclic synchronisation.
      Runs on the plain DOALL-parallelized module with no management. *)

module Ir = Cgcm_ir.Ir
module Memspace = Cgcm_memory.Memspace
module Device = Cgcm_gpusim.Device
module Trace = Cgcm_gpusim.Trace
module Cost_model = Cgcm_gpusim.Cost_model
module Faults = Cgcm_gpusim.Faults
module Runtime = Cgcm_runtime.Runtime
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged

exception Exec_error of string
(** Raised on dynamic errors the memory model does not already catch:
    division by zero, type confusion (float used as pointer), calls to
    unknown functions, fuel exhaustion, arity mismatches, and (closure
    engines) functions not in SSA form. *)

val is_out_of_fuel : exn -> bool
(** The run used up [config.fuel]: the [Exec_error] an instruction
    budget raises, told apart from every other failure. *)

type mode = Split | Unified | Inspector_executor

(** Execution engines:
    - {!Closures} — the default: each function is pre-decoded once per
      prepared program ({!prepare}) into arrays of closures
      (threaded-code style) with operand shapes, binop/unop dispatch,
      and callees and kernels resolved at decode time; registers whose
      type their def fixes live in unboxed int64 and float slot files;
      loads and stores cache a validated block handle per site, in the
      run's own site arrays, so decoded code is shared by every run; a
      kernel launch runs all its threads in one reused frame. A function
      that is not in SSA form (a register assigned twice, or used where
      its def does not dominate: IR the verifier rejects) raises
      [Exec_error] when it is first called or launched.
    - {!Tree_walk} — the original AST interpreter, kept for differential
      testing: both engines must produce bit-identical outputs, stats,
      and traces on every program.
    - {!Parallel} — the closure engine plus a persistent domain pool
      (see {!Cgcm_support.Pool}): each eligible kernel launch statically
      chunks its DOALL trip count across [config.jobs] domains, each
      running the program's shared code on a machine with its own site
      caches, and a join barrier merges
      shard state in iteration order — outputs, stats, traces and
      simulated timelines stay bit-identical to {!Closures}. Launches
      below the {!Cost_model.t.par_min_trip} threshold, kernels the
      static shardability check rejects, and everything outside kernels
      run on the sequential closure path. *)
type engine = Closures | Tree_walk | Parallel

type config = {
  mode : mode;
  cost : Cost_model.t;
  trace : bool;  (** record a {!Trace.t} of transfers/kernels/stalls *)
  fuel : int;  (** dynamic instruction budget; guards infinite loops *)
  profile : bool;  (** collect per-function instruction counts *)
  engine : engine;
  dirty_spans : bool;
      (** run-time transfers only dirty spans instead of whole units *)
  faults : Faults.spec option;
      (** deterministic driver fault plan ([None] = infallible driver);
          the run-time recovers via eviction, retry and CPU fallback *)
  paranoid : bool;
      (** re-run {!Runtime.check_invariants} after every run-time call,
          and check {!Cgcm_runtime.Paged.check_invariants} at the end of
          a paged run *)
  sanitize : bool;
      (** shadow-memory coherence sanitizer: mirror every allocation unit
          with an independent byte-version map and raise
          {!Cgcm_support.Errors.Coherence_violation} fail-fast on stale
          reads, lost updates, premature releases and double frees
          ({!Split} mode only; the oracle modes have nothing to check) *)
  jobs : int;
      (** {!Parallel} engine only: domains executing kernel launches;
          0 (the default) resolves via [CGCM_JOBS] then
          [Domain.recommended_domain_count]. [jobs = 1] selects the
          exact sequential closure path. *)
  backend : Mem_backend.kind;
      (** Memory backend, {!Split} mode only. [Explicit] (the default)
          is the CGCM-managed split-memory explicit-copy model: the
          interpreter calls {!Runtime} for allocation tracking, the
          [cgcm.*] intrinsics and the launch epoch, and kernels run
          against device memory. [Paged] is a single shared address
          space with touch-driven page-granular migration (managed
          memory, {!Paged}): the interpreter makes none of those
          run-time calls ([cgcm.map]/[map_array] return their pointer,
          the other intrinsics do nothing), and all communication cost
          comes from page faults priced by
          {!Cost_model.t.page_bytes}/[page_fault_cycles]. Outputs must
          be bit-identical across backends; only the timeline and
          transfer accounting differ. Not to be confused with the
          {!Unified} {e mode}, the zero-cost address-space oracle used
          for differential testing. *)
}

val default_config : config

type result = {
  exit_code : int64;
  output : string;  (** everything the program printed *)
  wall : float;  (** total simulated cycles, including the final sync *)
  cpu_compute : float;  (** cycles spent in interpreted CPU instructions *)
  gpu : float;  (** device busy cycles in kernels *)
  comm : float;  (** cycles spent in CPU-GPU transfers *)
  sync : float;  (** CPU cycles stalled on the device *)
  cpu_insts : int;
  kernel_insts : int;
  dev_stats : Device.stats;
  rt_stats : Runtime.stats;
  leaks : Runtime.leak_report;
      (** device residency at program exit: non-global resident units and
          live driver-heap blocks must both be zero for a leak-free run *)
  dev_peak_bytes : int;  (** high-water mark of device memory use *)
  trace : Trace.t;
  profile : (string * int) list;
      (** per-function dynamic instruction counts, descending; empty
          unless [config.profile] *)
  san_report : Cgcm_sanitizer.Sanitizer.report option;
      (** coherence-sanitizer statistics (redundant transfers, live
          units); present iff [config.sanitize] ran *)
  page_stats : Paged.stats option;
      (** page-migration accounting (touches, faults and migrated bytes
          per direction); present iff the paged backend ran *)
}

type program
(** A module decoded for one variant of {!config}: its [mode],
    [backend], [sanitize] and [engine]. Decoded code depends on these
    alone; every other field (fuel, faults, cost and device memory,
    trace, profile, dirty spans, paranoid, jobs) is a run-time input.
    A program is never mutated once {!prepare} returns, so any number
    of runs, on any number of domains, may share it. *)

val prepare : config -> Ir.modul -> program
(** Decode every function of the module for [config]'s variant (none
    under {!Tree_walk}) and compute the per-kernel facts: shardability
    under {!Parallel}, the sanitizer's read/write sets. A function the
    closure engines refuse raises when it is first run, not here. The
    module must not change while the program is in use. *)

val run_program : ?config:config -> program -> result
(** Load the module's globals (under the explicit backend, registering
    each with the run-time: the compiler's declareGlobal calls), execute
    [main], and account timing per the configuration. Raises
    [Invalid_argument] when [config]'s variant differs from the
    program's. *)

val run_program_to_fault : ?config:config -> program -> result * exn option
(** {!run_program} without losing the machine on a fault: with
    [Some e], the result holds the state at the point [e] left the
    program — the output printed so far, the counters, the device
    residency in [leaks] — and [exit_code] is 0. If reading the faulted
    machine raises too, [e] is re-raised instead. [run_program] raises
    [e] without building a result. *)

val run : ?config:config -> Ir.modul -> result
(** [run_program (prepare config m)]. *)

val run_to_fault : ?config:config -> Ir.modul -> result * exn option
(** [run_program_to_fault (prepare config m)]. *)

