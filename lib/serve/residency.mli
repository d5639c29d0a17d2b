(** Cross-request device residency for the serve daemon.

    One simulated device stays alive across requests; tenants park warm
    copies of their globals on it as zero-refcount device-resident
    module globals (registered under ["tenant/key/name"]), so repeated
    requests find their data resident. Because warmth is ordinary CGCM
    run-time state, PR-2's OOM machinery is the cross-tenant eviction
    policy: relieving pressure evicts the least-recently-used other
    tenant's unit, writing dirty data back byte-exactly and bumping the
    device's [globals_gen]. *)

type t
type entry

val create : device_mem:int -> unit -> t
(** A fresh daemon device with the given capacity ([max_int] =
    unbounded). *)

val device : t -> Cgcm_gpusim.Device.t
val capacity : t -> int

val warm :
  t ->
  tenant:string ->
  key:string ->
  globals:(string * int) list ->
  bool
(** Create or refresh the warm entry for [(tenant, key)] and make every
    listed global device-resident (host contents start as a
    deterministic per-name pattern).
    Previously-evicted globals are refilled from their written-back host
    copies. False — and the entry is dropped — when residency cannot be
    established even after evicting every other tenant's warmth. *)

val find : t -> tenant:string -> key:string -> entry option
val entry_runtime : entry -> Cgcm_runtime.Runtime.t

val entry_units : entry -> (string * int * int) list
(** [(prefixed-name, host-base, size)] for each warm global. *)

val entry_resident_bytes : entry -> int

val host_bytes : entry -> string -> Bytes.t
(** Host copy of a warm global, by unprefixed name — after an eviction
    this is where the written-back data lands. *)

val warm_bytes : t -> int
(** Device bytes currently held warm across all tenants. *)

val warm_entries : t -> int

val evict_lru_unit : ?except:string -> t -> bool
(** Evict one resident unit from the least-recently-used entry not owned
    by tenant [except]. False when nothing (eligible) is evictable. *)

val cross_evictions : t -> int

val check_invariants : t -> unit
(** The daemon's crash-only audit between requests: one
    {!Cgcm_runtime.Runtime.audit} over every entry's run-time. Every
    entry shares the daemon's device, so a driver-heap block is an
    orphan only when no entry owns it. One walk of the device's block
    index per audit, whatever the number of entries. *)

val shutdown : t -> int
(** Evict all warmth, verify that no entry keeps a resident unit, run
    the {!check_invariants} audit, and return the number of device
    blocks still live (0 = clean teardown). *)
