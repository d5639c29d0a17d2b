(** The memory backends the interpreter simulates in Split mode.

    [Explicit] is the paper's split-memory world: the CGCM run-time
    ({!Runtime}) tracks allocation units and map/unmap/release move data
    over the bus. [Paged] is a single shared address space with
    touch-driven page-granular migration ({!Paged}): the [cgcm.*]
    intrinsics do nothing and all cost comes from page faults charged at
    the interpreter's access hooks. The interpreter makes the choice at
    each site; this module only names the backends. *)

type kind = Explicit | Paged

val to_string : kind -> string
val of_string : string -> (kind, string) result

val all : (string * kind) list
(** Name/value pairs for CLI enum converters. *)
