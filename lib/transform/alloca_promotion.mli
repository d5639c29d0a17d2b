(** Alloca promotion (Section 5.2): map promotion cannot hoist a mapping
    above the function that owns the local variable being mapped, so this
    pass preallocates escaping fixed-size locals in the callers' stack
    frames and passes their address down as a fresh parameter. Only
    non-recursive functions are transformed. As in C, a program relying on
    locals being fresh per call could observe the reuse; CGC programs
    initialise locals before use. *)

val step : Cgcm_analysis.Manager.t -> bool
(** One promotion sweep over the module; [true] iff anything changed.
    Iterated to convergence by the pass framework's fixpoint
    combinator. *)
