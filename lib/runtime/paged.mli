(** The paged-memory backend: a single shared address space where the
    simulator charges touch-driven page-granular migration — the managed
    -memory model (CUDA unified memory / a coherent CPU-GPU link), in
    contrast to the explicit-copy model the CGCM run-time manages.

    Under this backend CGCM's map/unmap/release intrinsics are no-ops
    and all communication cost comes from page faults. Each page
    ({!Cgcm_gpusim.Cost_model.page_bytes}) is resident on one side at a
    time: first touch places it free (populate-on-first-touch), a
    same-side re-touch is free (no double charge), and a cross-side
    touch migrates the page for [page_fault_cycles + page_bytes /
    transfer_bytes_per_cycle].

    Device-side faults accumulate and extend the device's busy window
    when the launch ends ({!flush_launch}); host-side faults are
    synchronous — the caller syncs the device, then pays the returned
    cycles. Not a coherence protocol: the interpreter reads and writes
    one shared memspace, so this module is pure accounting.

    {!touch} is the reference walk over the page table and the only
    operation that migrates pages. {!touch_site} puts a per-site inline
    cache in front of it for the interpreter's load/store sites; it
    returns the same cycles and leaves the same accounting as {!touch}
    on every call. *)

type t

type stats = {
  mutable touches : int;  (** touch events, both sides *)
  mutable touched_pages : int;  (** distinct pages ever touched *)
  mutable faults_to_dev : int;  (** pages migrated host -> device *)
  mutable faults_to_host : int;  (** pages migrated device -> host *)
  mutable bytes_to_dev : int;
  mutable bytes_to_host : int;
}

val create : dev:Cgcm_gpusim.Device.t -> Cgcm_gpusim.Cost_model.t -> t
val stats : t -> stats

val touch : t -> kernel:bool -> addr:int -> len:int -> float
(** Note an access to [addr, addr+len). Returns the cycles the host must
    pay immediately — always [0.0] for kernel-side touches, whose cost
    lands in the pending pool until {!flush_launch}. A positive return
    means pages migrated device-to-host: the caller must sync the device
    (the pages may hold kernel output), advance its clock by the return
    value, and report the stall via {!note_host_migration}. *)

type site
(** The inline cache of one access site: the page it last touched, the
    side it touched it from, and the migration generation at that time.
    A site must only ever be used with one {!t}. *)

val site : unit -> site
(** A fresh, empty site: its first touch misses. *)

val touch_site : t -> site -> kernel:bool -> addr:int -> len:int -> float
(** [touch] through [site]'s cache. Every migration bumps the
    generation of [t], so a cached page is resident on the cached side
    while the generation is unchanged. If it is, the touch comes from
    the same side and [[addr, addr+len)] lies inside the cached page,
    the call is a hit: it counts the touch and returns [0.0] without a
    division or a table lookup. Otherwise it runs {!touch} and caches
    the access's first page, which is now resident on the toucher's
    side. First-touch populates
    and {!place_host} only add pages not yet in the table, which no
    site can have cached, so they leave the generation alone. *)

val last_host_fault_pages : t -> int
(** Pages migrated by the most recent host-side faulting touch. *)

val pending : t -> float * int
(** Device-side fault cycles and pages pooled since the last
    {!flush_launch}. *)

val note_host_migration : t -> start:float -> cycles:float -> pages:int -> unit
(** Record a host-side migration in the device's transfer accounting and
    trace, once the caller knows when it started. *)

val place_host : t -> addr:int -> len:int -> unit
(** Pre-place pages host-resident for free: module globals carry initial
    values written at load time, so their pages are host-populated
    before main runs. *)

val flush_launch : t -> unit
(** Flush device-side fault time accumulated during a kernel into the
    device timeline (busy window, transfer stats, trace). Call when the
    launch's driver work completes. *)

val check_invariants : t -> (unit, string) result
(** The accounting invariants: migrated bytes are faults times
    [page_bytes] in each direction, [touched_pages] equals the number of
    pages in the table, and no device fault time awaits a flush. The
    last one holds only between launches. *)

val fault_cost : t -> float
(** Full migration cost of one page, either direction. *)

val page_bytes : t -> int
