(** Use-based pointer type inference (Section 4 of the paper).

    The C type system is unreliable, so the communication-management pass
    never trusts declared types. A live-in value of a GPU kernel is
    classified by how the kernel {e uses} it:

    - if the value flows to the address operand of a load or store
      (possibly through additions, subtractions and casts — deliberately
      {e not} multiplications, which is what keeps scaled induction
      variables out of the pointer class), it is a pointer;
    - if a value loaded through it flows to another memory operation's
      address, it is a double pointer (mapArray territory);
    - three or more levels of indirection are outside CGCM's supported
      fragment ({!Too_indirect}).

    Flow passes through private stack slots (store-then-reload of a
    pointer in a kernel-local variable). *)

exception Too_indirect of string

type cls = Scalar | Pointer | Double_pointer

val cls_to_string : cls -> string

type kernel_types = {
  param_cls : cls array;
      (** classification of kernel parameters; index 0 is the thread id *)
  global_cls : (string * cls) list;
      (** classification of every global the kernel references *)
}

val infer_kernel : Cgcm_ir.Ir.func -> kernel_types
(** Classify every live-in of a kernel: its parameters (the launch
    operands) and the globals its body references. *)
