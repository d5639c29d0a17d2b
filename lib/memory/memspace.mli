(** A simulated byte-addressable memory space.

    The host (CPU) memory and the GPU device memory are separate instances
    with disjoint address ranges — the divided memories that motivate
    CGCM. Every allocation is an {e allocation unit} in the paper's sense:
    a contiguous region created as a single unit, resolvable from any
    interior pointer. Accesses are bounds-checked against the containing
    unit, so valid pointer arithmetic (within a unit, per C99) works and
    anything else raises {!Fault}. *)

(** Raised on wild pointers, out-of-bounds accesses, use-after-free,
    double free, interior-pointer free, and exhaustion. *)
exception Fault of string

(** Raise a {!Fault} with a formatted message. *)
val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t
(** A memory space: its allocation units, indexed by base address. *)

val create : name:string -> range_lo:int -> range_hi:int -> t
(** [create ~name ~range_lo ~range_hi] is an empty space whose unit
    addresses fall in [\[range_lo, range_hi)]. *)

val alloc : ?tag:string -> t -> int -> int
(** [alloc t size] creates a zero-initialised allocation unit and returns
    its base address. A 16-byte guard gap separates consecutive units so
    off-by-one arithmetic faults rather than corrupting a neighbour.
    Size 0 is clamped to 1. *)

val free : t -> int -> unit
(** [free t base] retires the unit whose base address is [base]. Faults on
    interior pointers and double frees. *)

val free_local : t -> int -> unit
(** Like {!free}, but for frame-local slots (interpreter allocas): the
    block is kept, marked freed, in a recycling pool so the next same-size
    {!alloc} reuses it without index traffic. Dangling pointers to a
    pooled block fault as use-after-free. *)

val pool_flush : t -> unit
(** Retire every block in the recycling pool for real. Called at
    inspector-executor launch boundaries so kernel frames never recycle a
    block allocated before the launch (the access tracker would count it
    as a communicated unit). *)

val unit_bounds : t -> int -> int * int
(** [unit_bounds t addr] is [(base, size)] of the containing unit. *)

(** {2 Typed access} — all bounds-checked against the containing unit. *)

val load_u8 : t -> int -> int
val store_u8 : t -> int -> int -> unit
val load_i64 : t -> int -> int64
val store_i64 : t -> int -> int64 -> unit
val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit

val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit

val blit : src:t -> src_addr:int -> dst:t -> dst_addr:int -> len:int -> unit
(** Copy bytes across (or within) spaces — the transfer engine's core. *)

(** {2 NUL-terminated strings} *)

val store_string : t -> int -> string -> unit
val load_string : t -> int -> string

(** {2 Block handles}

    The fast path for code that repeatedly touches the same allocation
    unit (the closure-compiled interpreter, which keeps a handle per
    access site). A handle is the resolved unit. The caller revalidates
    it with {!h_valid}, one range-and-liveness test, instead of the tree
    lookup plus span check, then reads and writes through the [ld_*] and
    [st_*] accessors, which record each write's dirty span as the
    checked stores do. The accessors are [[@inline]] and the build
    compiles libraries without [-opaque], so they inline into the caller
    and an [int64] or [float] crosses no boxed call boundary. Handles
    carry their owning space's id, so a handle cached across a CPU/GPU
    context switch never aliases the other space. *)

type handle

val null_handle : handle
(** A handle that never validates — the initial value of handle caches. *)

val acquire_handle : t -> int -> int -> string -> handle
(** [acquire_handle t addr len what] resolves and span-checks once;
    faults exactly as the checked accessors would. *)

val h_valid : handle -> t -> int -> int -> bool
(** [h_valid h t addr len]: [h] is live, belongs to [t], and
    [\[addr, addr+len)] lies inside it. The accessors below assume it. *)

val handle_base : handle -> int
(** The base address of the handle's unit. *)

val ld_u8 : handle -> int -> int
val ld_i64 : handle -> int -> int64
val ld_f64 : handle -> int -> float
val st_u8 : handle -> int -> int -> unit
val st_i64 : handle -> int -> int64 -> unit
val st_f64 : handle -> int -> float -> unit

(** {2 Deferred dirty logging}

    The dirty-span accumulator is order-dependent mutable state, so
    shards of a parallel kernel must not update it concurrently. A
    shard stores through the [st_*_log] accessors: they write the data
    immediately but append the span bookkeeping to a private per-shard
    log; {!log_replay} at the join barrier feeds the entries through the
    ordinary accumulator. Replaying shard logs in shard (= iteration)
    order reproduces the sequential engine's span state exactly. *)

type dirty_log

val log_create : unit -> dirty_log
val log_clear : dirty_log -> unit
val st_u8_log : dirty_log -> handle -> int -> int -> unit
val st_i64_log : dirty_log -> handle -> int -> int64 -> unit
val st_f64_log : dirty_log -> handle -> int -> float -> unit

val log_replay : dirty_log -> unit
(** Feed every logged store through the dirty-span accumulator, in log
    order, then clear the log. *)

(** {2 Dirty spans}

    Every store records the written interval in a coarse merged interval
    list on the block (nearby writes are coalesced, so spans
    over-approximate but never lose a written byte). The CGCM run-time
    reads and clears these to transfer only bytes written since the last
    copy. *)

val dirty_spans : t -> int -> (int * int) list
(** [dirty_spans t base] is the dirty [(offset, length)] pairs of the
    unit based at [base], sorted, disjoint, clipped to the unit. *)

val clear_dirty : t -> int -> unit
val dirty_bytes : t -> int -> int

(** {2 Accounting} *)

val live_bytes : t -> int
val peak_bytes : t -> int
val live_units : t -> int

val frontier : t -> int
(** The bump-allocation frontier: every unit allocated so far lies
    below it. *)

val fold_live :
  (base:int -> size:int -> tag:string -> mark:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the live units in ascending base order; [mark] is the
    last {!mark_live} stamp the unit received. *)

val mark_live : t -> int -> mark:int -> int option
(** [mark_live t base ~mark] stamps the live unit based exactly at
    [base] with [mark] and returns its size; [None] when no live unit
    starts there. The run-time's owner audit marks every unit it finds
    owned, then looks for live units left unmarked. *)
