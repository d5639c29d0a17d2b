(** Whole-program fuzzer with shrinking.

    Generates random but well-formed CGC programs exercising everything
    CGCM manages — global arrays, malloc'd heap blocks behind pointer
    globals, jagged double-pointer tables, nested doall loops,
    pointer-taking helpers, escaping allocas, host writes between
    launches — and runs each under every optimization level and both
    interpreter engines with the coherence sanitizer armed. Every
    configuration must agree with the sequential reference bit for bit,
    leak nothing and sanitize clean; a failing program is shrunk to a
    minimal counterexample before being reported.

    Generation is seeded through {!Cgcm_support.Rng}: a reported seed
    reproduces the exact program anywhere. *)

type arr = { a_float : bool; a_size : int (** elements, multiple of 8 *) }

type loop = {
  par : bool;  (** explicit [parallel for]; plain loops rely on auto-DOALL *)
  time : int;  (** enclosing time-loop trips; 1 = none *)
}

(** One program phase. Array references are arbitrary ints resolved
    modulo the array count at render time, so shrinking can drop arrays
    without re-indexing phases. *)
type phase =
  | Fill of { g : int; mul : int; add : int }
  | Map1 of { l : loop; tgt : int; src : int; mul : int; add : int }
  | Stencil of { l : loop; tgt : int; src : int }
  | Grid of { tgt : int; src : int }
  | Update of { l : loop; tgt : int; mul : int; add : int }
  | Heap_update of { l : loop; mul : int }
  | Jagged_update of { l : loop }
  | Helper_call of { tgt : int }
  | Alloca_mix of { l : loop; tgt : int }
  | Poke of { tgt : int; idx : int; v : int }
  | Peek of { tgt : int; idx : int }
  | Sum of { tgt : int }

type prog = {
  seed : int;
  arrays : arr list;  (** never empty *)
  heap : int option;
  jagged : int option;
  phases : phase list;
}

val generate : seed:int -> prog
val render : prog -> string
(** Render to CGC source; the result always parses and runs cleanly
    under the sequential reference (modulo fuzzer-found bugs). A digest
    of every unit is printed at the end so any wrong byte anywhere
    changes the output. *)

type failure = {
  f_config : string;  (** which execution configuration disagreed/failed *)
  f_kind : string;  (** ["output mismatch"], ["leak"] or ["error (exit N)"] *)
  f_detail : string;
}

val check_source : ?jobs:int -> string -> failure option
(** The fixed-configuration part of the check on raw CGC source (used
    by the regression tests; no pass-plan fuzzing, which needs a seed). *)

val check_plans : rounds:int -> seed:int -> string -> failure option
(** Just the pass-plan part of the check on raw CGC source. *)

val shrink :
  ?budget:int ->
  ?budget_ms:float ->
  check:(prog -> failure option) ->
  prog ->
  failure ->
  prog * failure
(** Greedy first-improvement shrinking to a fixpoint, bounded by
    [budget] (default 200) check evaluations and [budget_ms] (default
    60000) wall-clock milliseconds — whichever lapses first ends the
    search with the best (smallest still-failing) program found so far.
    A candidate is kept when it still fails in {e any} way — hopping
    between failure kinds is fine, smaller is what matters. *)

type report = {
  r_seed : int;
  r_index : int;  (** which program of the campaign failed *)
  r_failure : failure;
  r_minimal : prog;
}

val render_report : report -> string
(** Seed, configuration, failure kind/detail and the minimal
    counterexample source, verbatim. *)

val campaign :
  ?progress:(int -> unit) ->
  ?jobs:int ->
  ?plan_rounds:int ->
  ?shrink_budget_ms:float ->
  count:int ->
  seed:int ->
  unit ->
  report list
(** Generate and check [count] programs derived from [seed], shrinking
    every failure. [jobs] and [plan_rounds] are forwarded to {!check};
    [shrink_budget_ms] bounds each failure's shrink by wall clock.
    An empty list is a clean campaign. *)
