(** Deterministic fault injection for the simulated driver.

    A fault plan is a seed plus clauses targeting the driver entry
    points; each clause fires on the n-th call of its operation or with
    probability p per call under a seeded splitmix64 stream (one
    independent stream per operation). Plans are replayable: the same
    plan against the same program fails exactly the same calls. *)

type op = Alloc | Htod | Dtoh | Launch

type mode =
  | Nth of int  (** fire on the n-th call of the operation (1-based) *)
  | Prob of float  (** fire with probability p per call *)

type clause = { c_op : op; c_mode : mode }

type spec = { seed : int; clauses : clause list }
(** Immutable, shareable plan description. *)

val parse : string -> spec
(** Parse ["SEED[:SPEC]"] where SPEC is comma-separated clauses
    [op@N] (fail the n-th call) or [op%P] (fail with probability P),
    with op one of [alloc|htod|dtoh|launch]. Without SPEC,
    {!default_clauses} applies. Raises [Failure] on malformed input. *)

val to_string : spec -> string

type t
(** A live, stateful instance of a plan (per-clause call counters and
    PRNG streams). *)

val make : spec -> t

val fires : t -> op -> bool
(** Should the next call of [op] fail? Advances the matching clauses'
    counters and streams; consult exactly once per driver call. *)
