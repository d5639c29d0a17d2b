(** Imperative function builder used by the frontend lowering and by
    tests constructing IR by hand. Instructions accumulate per block; the
    insertion point moves freely between blocks; {!finish} writes the
    accumulated lists into the function. *)

type t

val create : name:string -> nargs:int -> kind:Ir.fkind -> t
(** A function with one (entry) block, positioned there. *)

val fresh : t -> int
val new_block : t -> int
val position_at : t -> int -> unit
val insert : t -> Ir.instr -> unit

(** Convenience wrappers allocating the destination register: *)

val binop : t -> Ir.binop -> Ir.value -> Ir.value -> Ir.value
val unop : t -> Ir.unop -> Ir.value -> Ir.value
val load : t -> Ir.ty -> Ir.value -> Ir.value
val store : t -> Ir.ty -> Ir.value -> Ir.value -> unit
val alloca : t -> ?name:string -> Ir.value -> Ir.value
val call : t -> string -> Ir.value list -> Ir.value
val call_void : t -> string -> Ir.value list -> unit
val launch : t -> kernel:string -> trip:Ir.value -> args:Ir.value list -> unit

val br : t -> int -> unit
val cbr : t -> Ir.value -> int -> int -> unit
val ret : t -> Ir.value option -> unit

val finish : t -> Ir.func
