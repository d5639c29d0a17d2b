(** Dominator computation (the Cooper-Harvey-Kennedy iterative
    algorithm). *)

type t

val compute : Ir.func -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]? Reflexive;
    false for unreachable blocks. *)

val idom : t -> int -> int
(** Immediate dominator; the entry's idom is itself; -1 = unreachable. *)
