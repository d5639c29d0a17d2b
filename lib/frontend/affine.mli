(** Affine analysis of index expressions relative to a candidate parallel
    loop variable — the core of the DOALL dependence test.

    A flat (element-granularity) index expression is decomposed as
    [a*i + h(inner loop variables) + inv] where [i] is the parallel
    induction variable, [h] ranges over inner sequential loop variables
    with known constant bounds (tracked as a numeric interval), and [inv]
    is a multiset of syntactic atoms invariant across iterations of [i].
    Footprints with equal [inv] parts differ only by [a*i + h], which the
    disjointness test reasons about. *)

type atom = int * Ast.expr  (** coefficient * invariant expression *)

type form = {
  icoeff : int;  (** coefficient of the parallel variable *)
  lo : int;  (** lower bound of the varying-constant part *)
  hi : int;  (** upper bound (inclusive) *)
  inv : atom list;  (** sorted invariant atoms *)
}

type env = {
  parallel_var : string;
  inner : (string * (int * int)) list;
      (** inner sequential loop variables with inclusive constant ranges *)
  modified : string list;
      (** variables modified somewhere in the loop body *)
}

val const_eval : Ast.expr -> int option
(** Constant folding over integer expressions (literals, arithmetic,
    sizeof, int casts). *)

val mentions : string list -> Ast.expr -> bool
(** Does the expression mention any of the named variables? *)

val of_expr : env -> Ast.expr -> form option
(** Decompose an index expression; [None] = not affine in the required
    sense (mentions a modified variable, non-constant multiplication,
    a call, ...). *)

val same_inv : form -> form -> bool

val cross_iteration_overlap : a:int -> w:int * int -> r:int * int -> bool
(** With a write footprint [a*i + w] and a read footprint [a*i' + r]
    (same stride, same invariant part), do {e distinct} iterations
    overlap? True iff a nonzero multiple of [a] lies in
    [fst r - snd w, snd r - fst w]; [a = 0] always overlaps. *)
