(** Bounded LRU cache with hit/miss counters — the serve daemon's
    cross-request compilation cache. Compiled modules are immutable once
    the pass pipeline finishes, so entries keyed by a digest of
    (source, mode) are shared by every tenant. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss and refreshes recency on hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or refresh) an entry, evicting the least-recently-used one
    when at capacity. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * [ `Hit | `Miss ]

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : ('k, 'v) t -> stats
val hit_rate : ('k, 'v) t -> float
(** Hits over lookups; 0 when nothing was looked up yet. *)
