(** Human-readable IR dumps, used by the CLI ([cgcm ir]), examples, and
    golden tests. *)

val pp_term : Format.formatter -> Ir.terminator -> unit

val func_to_string : Ir.func -> string
val modul_to_string : Ir.modul -> string
