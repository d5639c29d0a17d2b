(** Numeric helpers for the report generators, plus domain-safe
    counters for state shared across parallel kernel shards. *)

(** A counter safe to bump from many domains at once. Increments are
    atomic, so no update is ever lost; [get] from a racing domain sees
    some prefix of the increments, and a [get] after a synchronization
    point (e.g. the kernel-join barrier in {!Pool.run}) sees them
    all. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val set : t -> int -> unit
end

val mean : float list -> float

val geomean : float list -> float
(** Geometric mean; raises [Invalid_argument] on non-positive inputs. *)

val percent : float -> float -> float
(** [percent part total] is [100 * part / total], or 0 when [total <= 0]. *)
