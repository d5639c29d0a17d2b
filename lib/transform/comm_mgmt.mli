(** Communication management (Section 4 of the paper).

    Starts from sequential CPU code launching GPU kernels with no CPU-GPU
    communication whatsoever (the shared-namespace fiction produced by the
    DOALL outliner) and makes the program correct on split memories: each
    kernel's live-ins (launch operands + referenced globals) are
    classified by use-based type inference, and pointer live-ins are
    routed through the run-time — map before the launch, unmap and release
    after it. Stack variables whose address escapes are flagged for
    declareAlloca registration.

    The result is correct but cyclic; the optimization passes remove the
    cycles afterwards. *)

exception Unmanageable of string

val manage_launch :
  Cgcm_ir.Ir.func ->
  Cgcm_analysis.Typeinfer.kernel_types ->
  kernel:string ->
  trip:Cgcm_ir.Ir.value ->
  args:Cgcm_ir.Ir.value list ->
  Cgcm_ir.Ir.instr list
(** Wrap one launch in management calls; returns the replacement
    instruction sequence. Exposed for the glue-kernel pass, which must
    manage the launches it synthesises. *)

val drop_nth_call : Cgcm_ir.Ir.modul -> intrinsic:string -> n:int -> bool
(** Fault injection for the coherence sanitizer's mutation tests: delete
    the [n]th occurrence (textual order across CPU functions) of the
    named management intrinsic, modelling a communication-management
    bug. A dropped [cgcm.map]'s result is substituted with its host
    pointer operand; unit-returning intrinsics are removed outright. The
    module is intentionally not re-verified. Returns [true] iff a call
    was dropped. *)

val step : Cgcm_analysis.Manager.t -> bool
(** Manage every launch through the analysis manager (no verify);
    [true] iff a launch was wrapped. Not idempotent: re-running it
    would wrap the already-translated launch operands again. *)
