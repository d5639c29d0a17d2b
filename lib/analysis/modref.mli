(** Interprocedural CPU mod/ref summaries.

    Map promotion must prove that the CPU code of a region neither reads
    nor writes the candidate allocation unit; when the region contains
    calls, it consults a summary of what each callee's {e CPU} code (not
    its kernels — those run against device memory) can touch. *)

type summary = {
  globals : string list;  (** named globals the callee may load or store *)
  unknown : bool;
      (** the callee may dereference pointers of unknown provenance, so it
          may touch anything a pointer could reach *)
}

val empty : summary
val union : summary -> summary -> summary

type t = (string, summary) Hashtbl.t

val compute : Cgcm_ir.Ir.modul -> t
(** Fixpoint over the call graph; recursion and unknown callees degrade
    to [unknown]. *)

type rw = {
  reads : string list;  (** named globals the kernel body may load *)
  writes : string list;  (** named globals the kernel body may store *)
  rw_unknown : bool;
      (** pointer parameters, loaded pointers or user calls: the kernel
          may reach memory the sets do not name *)
}

val kernel_rw : Cgcm_ir.Ir.func -> rw
(** Kernel-side read/write sets for the coherence sanitizer's launch
    hook. *)

val call_may_touch : t -> callee:string -> Alias.obj -> bool
(** May a call to [callee] touch [obj] from CPU code? Callee-local units
    are invisible to callers; caller-local units are reachable only
    through dereferenced pointers, which [unknown] accounts for. *)
