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

type block = {
  base : int;
  size : int;
  data : Bytes.t;
  mutable tag : string;  (** provenance label, for diagnostics *)
  space_id : int;  (** id of the owning space, for handle validation *)
  mutable freed : bool;
  mutable d_lo : int;  (** head dirty interval, [d_lo, d_hi) in offsets *)
  mutable d_hi : int;
  mutable d_rest : (int * int) list;
      (** retired dirty spans, sorted, pairwise non-adjacent *)
  mutable audit_mark : int;
      (** the mark of the last run-time owner audit that found the block
          owned *)
}

type t = {
  name : string;
  id : int;
  range_lo : int;
  range_hi : int;
  mutable next : int;  (** bump-allocation frontier *)
  mutable blocks : block Cgcm_support.Avl_map.t;
  mutable live_bytes : int;
  mutable peak_bytes : int;
  mutable last : block option;  (** one-entry resolution cache *)
  pool : (int, block list) Hashtbl.t;  (** recycling pool, by size *)
  mutable pooled : int;
}

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
    access site). A handle is the resolved block: the caller revalidates
    it with one range-and-liveness test on its fields ([space_id],
    [freed], [base], [size]) instead of the tree lookup plus span check,
    reads and writes [data] directly, and reports each write through
    {!note_dirty}. Handles carry their owning space's id, so a handle
    cached across a CPU/GPU context switch never aliases the other
    space. *)

type handle = block

val null_handle : handle
(** A handle that never validates — the initial value of handle caches. *)

val acquire_handle : t -> int -> int -> string -> handle
(** [acquire_handle t addr len what] resolves and span-checks once;
    faults exactly as the checked accessors would. *)

val note_dirty : handle -> int -> int -> unit
(** [note_dirty h off len] records a direct write of [len] bytes at
    offset [off] of [h] in its dirty spans, as the checked stores do. *)

(** {2 Deferred dirty logging}

    The dirty-span accumulator is order-dependent mutable state, so
    shards of a parallel kernel must not update it concurrently. A
    shard writes [data] immediately but appends the span bookkeeping to
    a private per-shard log with {!log_push}; {!log_replay} at the join
    barrier feeds the entries through the ordinary accumulator.
    Replaying shard logs in shard (= iteration) order reproduces the
    sequential engine's span state exactly. *)

type dirty_log

val log_create : unit -> dirty_log
val log_clear : dirty_log -> unit

val log_push : dirty_log -> handle -> int -> int -> unit
(** [log_push l h off len]: the deferred {!note_dirty}. *)

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

val live_block_at : t -> int -> block option
(** The live (not freed) block whose base address is exactly the
    argument. *)

val blocks_snapshot : t -> (int * int * string) list
(** Live blocks as [(base, size, tag)] in ascending base order, pooled
    blocks excluded — the raw material for leak checks and the
    allocation-map dump of error diagnostics. *)
