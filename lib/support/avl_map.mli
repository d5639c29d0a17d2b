(** Self-balancing binary tree map with an efficient
    greatest-key-less-or-equal query.

    The CGCM paper stores allocation-unit metadata in exactly such a
    structure, indexed by the base address of each unit (Section 3.1):
    {!greatest_leq} implements the paper's [greatestLTE], which
    resolves an interior pointer to its allocation unit. Keys are ints
    (addresses), compared directly. *)

type key = int

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : key -> 'a -> 'a t -> 'a t
(** Insert or replace. *)

val remove : key -> 'a t -> 'a t
(** Removing an absent key is a no-op. *)

val find_opt : key -> 'a t -> 'a option
val mem : key -> 'a t -> bool

val greatest_leq : key -> 'a t -> (key * 'a) option
(** Greatest binding whose key is <= the query — the paper's
    [greatestLTE]. O(log n). *)

val least_geq : key -> 'a t -> (key * 'a) option

val min_binding : 'a t -> (key * 'a) option
val max_binding : 'a t -> (key * 'a) option

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val iter : (key -> 'a -> unit) -> 'a t -> unit
val bindings : 'a t -> (key * 'a) list
val cardinal : 'a t -> int
val of_list : (key * 'a) list -> 'a t

val invariant : 'a t -> bool
(** AVL height balance + strict key ordering; for the property tests. *)
