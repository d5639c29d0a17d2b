(** The process-wide domain pool for data-parallel batches, used by the
    interpreter's sharded kernel launches ([jobs > 1]).

    There is one pool and no instances. Its worker domains are spawned
    lazily (on the first batch that needs them, up to [max_jobs - 1])
    and reused for every later batch, so repeated small batches pay a
    mutex round-trip rather than a domain spawn. One batch runs at a
    time; the caller participates in its own batch. *)

val max_jobs : int
(** Upper bound on [jobs]; keeps well inside the OCaml runtime's
    fixed-size domain table. *)

val default_jobs : unit -> int
(** The [CGCM_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]; clamped to
    [max_jobs]. *)

val parse_jobs : string -> int option
(** Parse a positive job count (clamped to [max_jobs]); [None] on
    anything else. *)

val run : jobs:int -> int -> (int -> unit) -> unit
(** [run ~jobs n task] executes [task 0 .. task (n-1)] across up to
    [min jobs n] domains (the caller plus at most [jobs - 1] workers)
    and returns once every task has finished. With [jobs <= 1] or
    [n = 1] the tasks run sequentially in the caller, touching no pool
    state.

    The mutex hand-shake that ends the batch orders all task writes
    before the return, so the caller may read anything tasks wrote
    without further synchronization. If tasks raise, the remaining tasks
    still run and the first exception (in claim order) is re-raised. *)

val size : unit -> int
(** Number of domains the pool can bring to bear right now: spawned
    workers plus the caller. *)
