(** Deterministic splitmix64 generator. Benchmark workloads, fault plans
    and the program fuzzer must be reproducible across runs and execution
    modes, so the global [Random] state is never used. Every seeded
    stream in the code base (fault injection, fuzzing, oracle tests)
    derives from this module. *)

type t

val create : int -> t

val int : t -> int -> int
(** Uniform in [\[0, bound)]; raises on non-positive bounds. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val stream : seed:int -> int -> t
(** [stream ~seed i] is the [i]-th independent substream of [seed]:
    consuming one substream never perturbs a sibling. *)

val bool : t -> bool

val range : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive; raises when [hi < lo]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)
