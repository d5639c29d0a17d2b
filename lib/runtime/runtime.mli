(** The CGCM run-time library (Section 3 of the paper).

    Tracks {e allocation units} — contiguous regions allocated as a single
    unit (heap blocks, globals, escaping stack variables) — in a
    self-balancing tree map indexed by base address, and translates CPU
    pointers into equivalent GPU pointers:

    - {!map} copies the unit to the device if needed, bumps its reference
      count, and returns the translated pointer (Algorithm 1);
    - {!unmap} copies the unit back to the host unless the host copy is
      already current in this epoch or the unit is read-only
      (Algorithm 2);
    - {!release} drops a reference and frees device memory at zero
      (Algorithm 3).

    The [_array] variants operate on doubly indirect pointers: each CPU
    pointer stored in the unit is translated into a new device-side
    array, which is what the kernel receives.

    An epoch counter increments at every kernel launch ({!bump_epoch});
    unmap copies a unit at most once per epoch, because only kernels
    mutate device memory.

    The run-time is also the recovery layer for a fallible driver: on
    device OOM it evicts zero-refcount resident units (writing dirty
    ones back first) and retries the allocation; on transfer failure it
    retries with backoff accounted on the device timeline. Failures
    that survive recovery raise {!Runtime_error} with the structured
    taxonomy of {!Cgcm_support.Errors}. *)

exception Runtime_error of Cgcm_support.Errors.runtime_error

type alloc_info = {
  base : int;
  size : int;
  is_global : bool;
  global_name : string option;
  read_only : bool;
  from_alloca : bool;
  mutable devptr : int option;  (** device copy, when resident *)
  mutable refcount : int;
  mutable epoch : int;  (** last epoch in which the host copy was updated *)
  mutable arr_shadow : int option;
      (** device array of translated pointers (mapArray) *)
  mutable arr_refcount : int;
  mutable arr_elems : int list;
      (** host pointers translated by the last mapArray *)
  mutable evicted : bool;
      (** the unit lost its device copy to memory pressure at least once *)
}

type stats = {
  mutable map_calls : int;
  mutable unmap_calls : int;
  mutable release_calls : int;
  mutable map_array_calls : int;
  mutable skipped_unmaps : int;  (** epoch-optimisation hits *)
  mutable skipped_copies : int;  (** map found the unit already resident *)
  mutable partial_copies : int;  (** transfers narrowed to dirty spans *)
  mutable bytes_saved : int;
      (** unit bytes not moved thanks to dirty-span tracking *)
  mutable evictions : int;
      (** units whose device copy was revoked under memory pressure *)
  mutable retries : int;  (** device calls re-attempted after a fault *)
  mutable cpu_fallbacks : int;
      (** kernel launches degraded to CPU execution *)
}

type t = {
  host : Cgcm_memory.Memspace.t;
  dev : Cgcm_gpusim.Device.t;
  mutable info : alloc_info Cgcm_support.Avl_map.t;
  mutable global_epoch : int;
  stats : stats;
  dirty_spans : bool;
      (** transfer only dirty spans instead of whole allocation units;
          off reproduces the paper's whole-unit protocol exactly *)
  paranoid : bool;
      (** run {!check_invariants} after every run-time call *)
  globals_by_name : (string, int) Hashtbl.t;
  mutable now : float;
      (** wall-clock hook: the interpreter threads its clock through the
          run-time so transfers and driver calls are costed *)
}

val create :
  ?dirty_spans:bool ->
  ?paranoid:bool ->
  host:Cgcm_memory.Memspace.t ->
  dev:Cgcm_gpusim.Device.t ->
  unit ->
  t
(** [dirty_spans] defaults to [true]; [paranoid] to [false]. *)

(** {2 Registration} *)

val register_heap : t -> base:int -> size:int -> unit
(** The wrapper around [malloc]/[calloc]/[realloc]: every heap allocation
    enters the allocation map. *)

val unregister_heap : t -> base:int -> unit
(** The wrapper around [free]. Raises if the unit is still mapped. *)

val declare_global :
  t -> name:string -> base:int -> size:int -> read_only:bool -> unit
(** [declareGlobal]: called once per global before [main]. Also declares
    the matching named region to the device module. *)

val declare_alloca : t -> base:int -> size:int -> unit
(** [declareAlloca]: registration of an escaping stack variable. *)

val expire_alloca : t -> base:int -> unit
(** Registration expiry at scope exit. Raises if the unit is still
    mapped (its device copy would dangle). *)

(** {2 The mapping interface (Table 2 of the paper)} *)

val map : t -> int -> int
(** [map t ptr] returns the equivalent device pointer, copying the
    allocation unit host-to-device when its reference count was zero.
    Interior offsets are preserved: [map (p + k) = map p + k] within a
    unit. On device OOM, zero-refcount resident units are evicted (dirty
    ones written back first) and the allocation retried. *)

val unmap : t -> int -> unit
(** [unmap t ptr] updates the host copy from the device, at most once per
    epoch, never for read-only units. *)

val release : t -> int -> unit
(** [release t ptr] drops a reference; at zero the device copy of a
    non-global unit is freed. Raises on underflow. *)

val map_array : t -> int -> int
(** [mapArray]: translate every pointer stored in the unit (mapping each
    pointee), publish the translated array on the device, return its
    address. For a global, the translated array lands in the device copy
    of the global itself (kernels reach it via [cuModuleGetGlobal]). *)

val unmap_array : t -> int -> unit
(** [unmapArray]: unmap every pointee translated by the matching
    {!map_array}. The host pointer array itself is untouched (kernels
    cannot store pointers). *)

val release_array : t -> int -> unit
(** [releaseArray]: release every pointee and drop the shadow array's
    reference; at zero the shadow is freed. *)

val bump_epoch : t -> unit
(** Called at every kernel launch. *)

(** {2 Recovery hooks (fault injection, memory pressure)} *)

val evict_one : t -> bool
(** Evict one zero-refcount resident unit: write back its dirty data,
    revoke its device residence (for a module global, via
    [Device.forget_global], invalidating cached addresses). False when
    nothing is evictable. *)

val device_global_addr : t -> string -> int
(** Kernel-side resolution of a module global with the same OOM recovery
    as {!map}; a global re-allocated after an eviction is refilled from
    the written-back host copy, making eviction invisible to kernels. *)

val note_cpu_fallback : t -> unit
(** The interpreter reports a kernel launch degraded to CPU execution. *)

(** {2 Invariants and diagnostics} *)

val audit : Cgcm_gpusim.Device.t -> t list -> unit
(** Whole-state consistency check of run-times that share one device.
    Forward, over each run-time's units in list order: refcounts
    non-negative, epochs within [\[0, global_epoch\]], every devptr/shadow
    backed by a live device block of sufficient size, and shadow-array
    elements registered while their parent shadow is live. Reverse: every
    live driver-heap (["dev"]) block on the device must be the devptr or
    shadow array of some unit of some listed run-time. An "orphan" is a
    block no listed run-time owns, so run-times sharing one device must
    be audited together: a block owned by a sibling is not an orphan.
    The reverse check walks the device's block index once in address
    order, whatever the list's length. Raises {!Runtime_error} on the
    first violation. *)

val check_invariants : t -> unit
(** [audit t.dev \[t\]], for a run-time that has its device to itself.
    Runs automatically after every run-time call when [paranoid] is set. *)

type leak_report = {
  resident_nonglobal : int;
      (** non-global units still device-resident (a leak at exit) *)
  resident_global : int;
      (** module globals still device-resident (legitimate) *)
  refcount_sum : int;
  leaked_dev_blocks : int;
      (** live driver-heap blocks on the device (a leak at exit) *)
  leaked_dev_bytes : int;
}

val leak_report : t -> leak_report

(** {2 Introspection (tests, reports)} *)

val lookup_unit : t -> int -> alloc_info
val resident_units : t -> int
val total_refcount : t -> int
val unit_count : t -> int
