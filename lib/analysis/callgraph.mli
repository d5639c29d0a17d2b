(** Call graph over a module: direct calls between user-defined CPU
    functions (intrinsics are not nodes). Function-level map promotion
    and alloca promotion use the caller sets; both skip recursion. *)

type t = {
  callers : (string, (string * int) list) Hashtbl.t;
      (** callee -> (caller, block index) call sites *)
  callees : (string, string list) Hashtbl.t;
  recursive : (string, bool) Hashtbl.t;
}

val compute : Cgcm_ir.Ir.modul -> t
val call_sites : t -> string -> (string * int) list
val is_recursive : t -> string -> bool
