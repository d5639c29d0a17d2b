(** Classic backward liveness over virtual registers (per-block bitsets,
    iterated to fixpoint). Kernel live-ins come directly from launch
    operands, but glue-kernel outlining and several tests need real
    liveness information. *)

module ISet : Set.S with type elt = int

type t = { live_in : ISet.t array; live_out : ISet.t array }

val compute : Cgcm_ir.Ir.func -> t
val live_in : t -> int -> ISet.t
val live_out : t -> int -> ISet.t
