(** Map promotion (Section 5.1, Algorithm 4): turns cyclic communication
    acyclic by hoisting run-time calls out of loops and up the call graph.

    For a loop region: the map call is {e copied} into the preheader (the
    in-loop calls stay — they still perform pointer translation but cause
    no transfers, because the preheader map holds a reference); unmap
    calls inside the loop are deleted; unmap + release are placed on every
    exit edge. A candidate is promotable when its pointer value is
    region-invariant (possibly after cloning its computation into the
    preheader — "copying some code from the loop body") and the CPU
    neither reads nor writes the unit inside the region (modOrRef, via the
    underlying-object alias analysis and interprocedural mod/ref
    summaries).

    For a function region: candidates resolvable to a parameter or global
    are hoisted around every call site in every caller. Iterating the two
    to convergence lets map operations climb from inner loops to outer
    loops to callers, as in the paper. Recursive functions are skipped. *)

val step : Cgcm_analysis.Manager.t -> bool
(** One round of loop- plus function-level promotion; [true] iff
    anything changed. The pass framework's
    fixpoint combinator iterates it to convergence. *)
