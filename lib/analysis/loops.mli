(** Natural-loop detection from back edges (via dominators). Map
    promotion's loop regions come from here. *)

type loop = {
  header : int;
  body : int list;  (** blocks in the loop, including the header *)
  members : bool array;
      (** [body] as a set, indexed by block; blocks added after the
          analysis are outside it *)
  mutable parent : int option;  (** index of the innermost enclosing loop *)
  depth : int;  (** 1 = outermost *)
}

type t = {
  loops : loop array;
  block_loop : int option array;  (** innermost loop containing each block *)
}

val in_loop : loop -> int -> bool

val analyze : Cgcm_ir.Ir.func -> t

val innermost_first : t -> int list
(** Loop indices ordered deepest first — the promotion order. *)

val exit_edges : Cgcm_ir.Ir.func -> loop -> (int * int) list
(** Edges from a block in the loop to one outside (where promotion puts
    unmap + release). *)

val entry_edges : Cgcm_ir.Ir.func -> loop -> int list
(** Predecessors of the header from outside the loop (redirected to the
    preheader). *)
