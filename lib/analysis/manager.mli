(** Analysis manager: the one place passes get analyses from.

    Every lookup computes a fresh result from the module as it stands,
    so no result can be stale after a rewrite and passes declare nothing
    about what they clobber. The manager counts lookups per analysis.
    The module-level analyses are {!Callgraph} and {!Modref}; the rest
    ({!Loops}, {!Alias}, kernel classifications from {!Typeinfer}) are
    per function. *)

type t

val create : Cgcm_ir.Ir.modul -> t
val modul : t -> Cgcm_ir.Ir.modul

(** {1 Lookups}

    Each computes the analysis afresh and counts one lookup. *)

val callgraph : t -> Callgraph.t
val modref : t -> Modref.t
val loops : t -> Cgcm_ir.Ir.func -> Loops.t
val alias : t -> Cgcm_ir.Ir.func -> Alias.t
val kernel_types : t -> Cgcm_ir.Ir.func -> Typeinfer.kernel_types

(** {1 Instrumentation} *)

val stats : t -> (string * int * int) list
(** [(analysis, hits, misses)] per analysis, in a fixed order. Nothing
    is cached, so hits are always 0 and misses count the lookups. *)
