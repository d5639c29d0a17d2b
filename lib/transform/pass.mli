(** Pass framework: passes composed into plans (with fixpoint
    iteration) and run under instrumentation hooks, getting their
    analyses from a {!Cgcm_analysis.Manager}. *)

module Manager = Cgcm_analysis.Manager

type t = {
  name : string;
  description : string;
  step : Manager.t -> bool;  (** [true] iff the pass changed the IR *)
}

(** The standard CGCM passes. *)

val simplify : t
val comm_mgmt : t
val glue_kernels : t
val alloca_promotion : t
val map_promotion : t

val all : t list
(** The single pass registry: every pass, in §5.3 schedule order.
    [find] and the CLI's [--passes] enumerate from here. *)

val find : string -> t option

(** {1 Plans} *)

(** A plan is a tree of passes: atoms run once, fixpoints iterate their
    body until no pass reports a change (or [max_iter] is hit). *)
type plan_item = Atom of t | Fixpoint of { max_iter : int; body : plan }

and plan = plan_item list

val fixpoint : ?max_iter:int -> plan -> plan_item
(** The convergence combinator that subsumes the hand-rolled loops the
    promotion passes used to carry. *)

val unmanaged_plan : plan
(** Simplify only: the sequential baseline's pipeline. *)

val managed_pipeline : plan
(** simplify + communication management: unoptimized CGCM. *)

val optimized_pipeline : plan
(** The full §5.3 schedule — simplify, comm-mgmt, glue kernels, then
    alloca promotion and map promotion each iterated to convergence. *)

val named_plans : (string * plan) list
(** [unmanaged]/[managed]/[optimized]. *)

val parse_plan : string -> (plan, string) result
(** Parse a custom spec like ["simplify,comm-mgmt,fixpoint(map-promotion)"]:
    comma-separated pass names, with [fixpoint(...)] wrapping a sub-plan.
    A named plan's name is also accepted as an item. *)

val plan_to_string : plan -> string
(** Inverse of {!parse_plan} (canonical spelling). *)

(** {1 Instrumented execution} *)

type pass_stat = {
  ps_pass : string;
  ps_wall_ms : float;
      (** wall-clock time of the pass itself, without verification or
          counting *)
  ps_changed : bool;
  ps_instrs_before : int;
  ps_instrs_after : int;
  ps_launches_before : int;
  ps_launches_after : int;
  ps_rtcalls_before : int;
  ps_rtcalls_after : int;  (** management-intrinsic call count *)
}

type hooks = {
  on_stat : pass_stat -> unit;
  after_pass : string -> Cgcm_ir.Ir.modul -> unit;
      (** called after every pass execution (for [--dump-ir after:p]);
          must not edit the module, whose counts carry over as the next
          execution's before-counts *)
}

val default_hooks : hooks

val run_plan : ?hooks:hooks -> Manager.t -> plan -> unit
(** Execute [plan] over the manager's module, running
    {!Cgcm_ir.Verifier.verify_modul} after every pass execution. The
    module is counted once up front and once after each pass execution. *)

val run_pipeline : plan -> Cgcm_ir.Ir.modul -> unit
(** Convenience: run over a new manager with default hooks. *)

(** {1 Module metrics} *)

val instr_count : Cgcm_ir.Ir.modul -> int
val launch_count : Cgcm_ir.Ir.modul -> int

val runtime_call_count : Cgcm_ir.Ir.modul -> int
(** Static count of management-intrinsic call sites. *)
