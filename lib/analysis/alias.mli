(** Lightweight intraprocedural alias analysis based on underlying
    objects.

    CGCM deliberately avoids depending on strong alias analysis — the
    run-time handles aliasing correctly by construction — but the
    compiler still needs a conservative may-alias test for map promotion's
    modOrRef check, and an escape analysis for stack slots to drive
    declareAlloca insertion. *)

(** The object an address is derived from, when derivable. *)
type obj =
  | Obj_alloca of int  (** register holding the alloca result *)
  | Obj_global of string
  | Obj_heap of int  (** register holding a malloc/calloc/realloc result *)
  | Obj_unknown

val def_map : Cgcm_ir.Ir.func -> Cgcm_ir.Ir.instr option array
(** Defining instruction per register (registers are single-assignment). *)

type t = {
  defs : Cgcm_ir.Ir.instr option array;
  slots : (int, bool) Hashtbl.t;
  stored : (int, Cgcm_ir.Ir.value list) Hashtbl.t;
      (** the values stored to each unescaped slot, as the function stood
          when analysed *)
}

val analyze : Cgcm_ir.Ir.func -> t

val underlying : t -> Cgcm_ir.Ir.value -> obj
(** Trace an address back through arithmetic, casts and private-slot
    reloads to its allocation site. *)

val may_alias : obj -> obj -> bool
(** Unknown aliases everything; distinct concrete objects never alias. *)

val access_may_alias : t -> access:obj -> target:obj -> bool
(** Refinement for modOrRef: an access to a {e non-escaping} stack slot
    of the current function cannot alias a pointer of unknown provenance
    (no pointer to that slot exists outside the addressing the escape
    analysis already saw). *)

val escaping_allocas : Cgcm_ir.Ir.func -> int list
(** Alloca registers needing declareAlloca registration. *)
