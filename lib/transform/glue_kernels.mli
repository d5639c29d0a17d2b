(** Glue kernels (Section 5.3): small straight-line CPU regions between
    two kernel launches block map promotion — their loads and stores force
    data back to the host every iteration even though their performance
    contribution is negligible. This pass outlines such regions into
    single-threaded GPU kernels (wrapping the new launch in management
    calls immediately), so the surrounding map operations can rise.

    A region moves when it consists only of arithmetic, loads and stores;
    registers it defines that are used elsewhere keep their (pure)
    defining instructions on the CPU, and a load may stay behind only if
    no moved store can alias it. *)

val step : Cgcm_analysis.Manager.t -> bool
(** Outline to convergence (regions of at most 40 instructions); [true]
    iff anything was outlined. *)
