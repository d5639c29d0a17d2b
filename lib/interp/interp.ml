(* IR interpreter with a split CPU/GPU memory model and the analytic cost
   model attached.

   Two execution modes:
   - [Split]   the real model: kernels execute against device memory, all
               data movement must go through the CGCM run-time (or explicit
               driver calls), and the clock advances per the cost model.
   - [Unified] a debugging oracle: one flat memory, kernels read host
               memory directly, cgcm.* intrinsics are identity/no-ops.
               Every transformed program must produce the same observable
               output under [Unified] as the untransformed program — the
               differential tests lean on this.

   Three execution engines:
   - [Closures]  the default: each function is pre-decoded once per
                 prepared program ([prepare]; [run] prepares afresh) into
                 an array of closures (threaded-code style) with the
                 operand shapes, the binop/unop dispatch, and the callee
                 lookups resolved at decode time. A register whose def
                 fixes its type lives unboxed in an int64 or float slot
                 file (see [slot]), and reading or writing it allocates
                 nothing. Loads and stores hold a per-site block handle so
                 repeated accesses to the same allocation unit skip the
                 greatest-leq lookup and the span check entirely
                 ([handle]). Decoded code never captures a machine: each
                 run's machine, and its per-site caches indexed by the
                 site ids decode assigns, arrive through the frame
                 ([ctx]), so one program serves many runs. A kernel launch
                 runs every thread in one reused frame (run_threads).
   - [Tree_walk] the original AST interpreter, kept for differential
                 testing: both engines must produce bit-identical outputs,
                 stats, and traces on every program.
   - [Parallel]  the closure engine plus a host-side domain pool for
                 kernel launches: DOALL iterations are independent by
                 construction (that is what makes them GPU-legal), so a
                 launch's trip count is statically chunked across
                 [config.jobs] domains, each executing its contiguous
                 slice on a private shard machine (own site caches, the
                 program's shared code); the join barrier merges shard
                 state back in shard (= iteration) order, keeping results
                 bit-identical to [Closures]. See exec_launch_parallel
                 below. *)

module Ir = Cgcm_ir.Ir
module Memspace = Cgcm_memory.Memspace
module Device = Cgcm_gpusim.Device
module Trace = Cgcm_gpusim.Trace
module Cost_model = Cgcm_gpusim.Cost_model
module Faults = Cgcm_gpusim.Faults
module Runtime = Cgcm_runtime.Runtime
module Errors = Cgcm_support.Errors
module Sanitizer = Cgcm_sanitizer.Sanitizer
module Modref = Cgcm_analysis.Modref
module Pool = Cgcm_support.Pool
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged

exception Exec_error of string

let error fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

(* Fuel exhaustion is spelled once: [out_of_fuel] raises it, and
   [is_out_of_fuel] is how a caller (the serve engine's deadlines) tells
   it from other execution errors. *)
let fuel_message = "instruction budget exhausted (infinite loop?)"

let out_of_fuel () = raise (Exec_error fuel_message)

let is_out_of_fuel = function Exec_error m -> m = fuel_message | _ -> false

(* - [Inspector_executor] models the idealized baseline of Section 6.3:
     an oracle scheduler, exactly one byte transferred per accessed
     allocation unit, a sequential inspection pass before every launch,
     and fully cyclic (synchronous) communication. It runs on the plain
     DOALL-parallelized module, with no CGCM management. *)
type mode = Split | Unified | Inspector_executor

type engine = Closures | Tree_walk | Parallel

type config = {
  mode : mode;
  cost : Cost_model.t;
  trace : bool;
  (* dynamic instruction budget: guards against infinite loops *)
  fuel : int;
  (* per-function dynamic instruction counts in the result *)
  profile : bool;
  engine : engine;
  (* run-time transfers only dirty spans instead of whole units *)
  dirty_spans : bool;
  (* deterministic driver fault plan (None = infallible driver) *)
  faults : Faults.spec option;
  (* re-check all run-time invariants after every run-time call *)
  paranoid : bool;
  (* shadow-memory coherence sanitizer: mirror every allocation unit
     with a byte-version map and fail fast on stale reads, lost updates,
     premature releases and double frees (Split mode only) *)
  sanitize : bool;
  (* Parallel engine only: how many domains execute kernel launches
     (0 = CGCM_JOBS / Domain.recommended_domain_count). With jobs = 1
     the Parallel engine is exactly the sequential closure engine. *)
  jobs : int;
  (* memory backend (Split mode only): [Explicit] is the CGCM-managed
     split-memory model; [Paged] is a single shared address space with
     touch-driven page-granular migration, under which the cgcm.*
     intrinsics are no-ops and all cost comes from page faults. *)
  backend : Mem_backend.kind;
}

let default_config =
  {
    mode = Split;
    cost = Cost_model.default;
    trace = false;
    fuel = 4_000_000_000;
    profile = false;
    engine = Closures;
    dirty_spans = true;
    faults = None;
    paranoid = false;
    sanitize = false;
    jobs = 0;
    backend = Mem_backend.Explicit;
  }

(* Inspector-executor: the fraction of a kernel's dynamic instructions
   the sequential inspector replays, its address slice (EXPERIMENTS.md). *)
let inspector_fraction = 0.25

type rtval = VI of int64 | VF of float

(* Shared boxes for the two boolean results: comparisons are a large
   fraction of executed instructions (every loop back-edge), and the
   shared values save an allocation each. *)
let vtrue = VI 1L
let vfalse = VI 0L

let as_int = function
  | VI i -> i
  | VF _ -> error "type confusion: float used as integer/pointer"

let as_float = function
  | VF f -> f
  | VI _ -> error "type confusion: integer used as float"

type result = {
  exit_code : int64;
  output : string;
  wall : float;  (* total simulated cycles, including the final sync *)
  cpu_compute : float;  (* cycles spent in interpreted CPU instructions *)
  gpu : float;  (* device busy cycles in kernels *)
  comm : float;  (* cycles spent in CPU-GPU transfers *)
  sync : float;  (* CPU cycles stalled on the device *)
  cpu_insts : int;
  kernel_insts : int;
  dev_stats : Device.stats;
  rt_stats : Runtime.stats;
  leaks : Runtime.leak_report;  (* device residency at program exit *)
  dev_peak_bytes : int;  (* high-water mark of device memory *)
  trace : Trace.t;
  profile : (string * int) list;
      (* per-function dynamic instruction counts, descending; empty unless
         config.profile *)
  san_report : Cgcm_sanitizer.Sanitizer.report option;
      (* coherence-sanitizer statistics; present iff config.sanitize ran *)
  page_stats : Paged.stats option;
      (* page-migration accounting; present iff the paged backend ran *)
}

(* Where the closure engine keeps a register. Every register whose
   defining instruction fixes its type lives unboxed: integer and
   comparison results, i8/i64 loads and non-promoted alloca addresses in
   the int64 file, float results, f64 loads and math-builtin results in
   the float file. Only what has no static type stays boxed: parameters
   (a kernel's thread id aside) and the results of calls that may return
   either kind. *)
type slot =
  | Box of int  (* index into [ctx.fr] *)
  | Int of int  (* byte offset into [ctx.iv] *)
  | Flt of int  (* index into [ctx.fv] *)

(* A function's frame shape, fixed at decode. *)
type layout = {
  reg : slot array;  (* per register *)
  promo : (int, slot) Hashtbl.t;
  (* promoted alloca register -> its slot: [Int] when every access is
     i64, else [Flt] (an i64 access then reinterprets the IEEE bits via
     Int64.bits_of_float, which is exact) *)
  nbox : int;
  nint : int;
  nflt : int;
}

(* The config fields decoded code depends on: a program prepared for one
   variant runs only under configs of the same variant. *)
type variant = {
  v_mode : mode;
  v_backend : Mem_backend.kind;
  v_sanitize : bool;
  v_engine : engine;
}

let variant_of (c : config) =
  {
    v_mode = c.mode;
    v_backend = c.backend;
    v_sanitize = c.sanitize;
    v_engine = c.engine;
  }

(* Frame state threaded through compiled closures: one per call of a CPU
   function, and one per kernel launch (per shard under [Parallel]) that
   every thread of the launch reuses. Decoded code is shared by every run
   of its program, so what belongs to one run reaches it through here:
   the machine, and the machine's per-site cache arrays. *)
type ctx = {
  fr : rtval array;  (* boxed registers *)
  fv : float array;  (* float registers and f64-accessed promoted allocas *)
  iv : Bytes.t;  (* int64 registers and i64-only promoted allocas *)
  sp : Memspace.t;  (* memory space of the executing context *)
  mc : machine;  (* the executing machine (a shard's, on a shard) *)
  hs : Memspace.handle array;  (* [mc.handles] *)
  gs : int array;  (* [mc.gcells] *)
  mutable ret : rtval option;
  mutable allocas : int list;  (* frame allocation units, freed on exit *)
  mutable registered : int list;  (* declareAlloca registrations to expire *)
}

and cinstr = ctx -> unit

(* A run of instructions whose ticks are batched into one accounting call:
   pure instructions (arithmetic, loads, stores) cannot observe the
   machine's counters, so only call-like instructions — which can flush
   the clock, print, or recurse — bound a run. Each run holds the pure
   prefix plus at most one trailing call-like instruction; [ticks] is the
   instruction count (the last run also carries the terminator's tick).
   Every observation point (flush_time, output, traces) sees counter
   values identical to the per-instruction schedule. *)
and crun = { ticks : int; ops : cinstr array }

and cblock = {
  runs : crun array;
  (* returns the next block index, or -1 after storing into ctx.ret *)
  ct : ctx -> int;
}

(* A decoded function. [prepare] fills [cblocks] and never writes it
   after. [cerr] is what decoding the function raised (it is not in SSA
   form): running the function raises it, where the first run would have
   decoded it. *)
and cfunc = {
  cfn : Ir.func;
  cblocks : cblock array;
  lay : layout;
  cerr : exn option;
}

(* What a launch needs of its kernel, resolved by [prepare]. *)
and kernel = {
  kf : Ir.func;
  kcode : cfunc option;  (* closure engines *)
  kshard : (string list * cfunc) option;
      (* Parallel, when every launch of the kernel may shard across
         domains (see kernel_shardable): the globals it can reference and
         its logged-store variant *)
  krw : Modref.rw option;  (* sanitizer: the kernel's static read/write sets *)
}

(* A module decoded for one variant. Nothing here changes after
   [prepare] returns, so runs on any number of domains share it. *)
and program = {
  pm : Ir.modul;
  pv : variant;
  pfuncs : (string, Ir.func) Hashtbl.t;
  pcode : (string, cfunc) Hashtbl.t;  (* closure engines: every function *)
  plog : (string, cfunc) Hashtbl.t;
      (* Parallel: the logged-store variant of every function a shardable
         kernel can reach, shard machines' code *)
  pkernels : (string, kernel) Hashtbl.t;
  nhandle : int;  (* load/store sites *)
  ngaddr : int;  (* global-address sites *)
  npaged : int;  (* paged-touch sites *)
}

and machine = {
  prog : program;
  host : Memspace.t;
  dev : Device.t;
  rt : Runtime.t;
  mode : mode;
  engine : engine;
  cost : Cost_model.t;
  globals_host : (string, int) Hashtbl.t;
  out : Buffer.t;
  mutable now : float;
  mutable pending_insts : int;  (* CPU instructions not yet folded into now *)
  mutable cpu_insts : int;
  mutable kernel_insts : int;
  mutable in_kernel : bool;
  mutable fuel : int;  (* dynamic instruction budget; guards infinite loops *)
  (* Inspector-executor: allocation units touched by the current kernel,
     base address -> was written. Units allocated after [threshold]
     (thread-local stack slots) are not program data and are excluded. *)
  mutable track_units : (int, bool) Hashtbl.t option;
  mutable track_threshold : int;
  (* profiling *)
  profile_on : bool;
  profile_counts : (string, int ref) Hashtbl.t;
  mutable cur_fn : string;
  (* Some iff Split mode runs under the paged backend. Every site that
     calls the CGCM run-time or the device's separate memory asks
     [explicit] first; the paged access hooks match on this directly. *)
  paged : Paged.t option;
  (* coherence sanitizer (Split + explicit backend + config.sanitize);
     the same instance the device and run-time hooks drive *)
  san : Sanitizer.t option;
  (* ---- per-site caches of the decoded code, indexed by site id; each
     machine owns its own, so no cache outlives a run or crosses a
     domain ---- *)
  (* per load/store site: the block handle it last validated *)
  handles : Memspace.handle array;
  (* per global-address site, three cells: the host address, the device
     address and the globals generation it was resolved under; -1 until
     resolved *)
  gcells : int array;
  (* per paged-touch site: its residency cache *)
  psites : Paged.site array;
  (* ---- parallel engine ---- *)
  (* resolved job count: > 1 only for the Parallel engine *)
  jobs : int;
  (* persistent per-domain shard machines, grown on demand; each holds
     its own site caches, output buffer and dirty log *)
  mutable shards : machine array;
  (* Some on shard machines only: the per-shard deferred dirty-span log,
     replayed at the join. Doubles as the "am I a shard?" flag. *)
  shard_log : Memspace.dirty_log option;
  (* shard machines: (output length before, fuel left) at each print of
     the current launch, newest first, so the join can cut the output
     where the sequential engine would have run out of fuel *)
  mutable shard_prints : (int * int) list;
}

let flush_time mc =
  if mc.pending_insts > 0 then begin
    mc.now <- mc.now +. (float_of_int mc.pending_insts *. mc.cost.Cost_model.cpu_cycle);
    mc.pending_insts <- 0
  end

(* The explicit-copy model: Split mode with a separate device memory the
   CGCM run-time manages. Under the paged backend the hardware manages
   communication, so the run-time's allocation tracking, the cgcm.*
   intrinsics and the epoch have nothing to do. *)
let[@inline] explicit mc = mc.mode = Split && mc.paged == None

(* A run-time call that can advance the clock (transfers, device
   allocation and frees), threaded through [Runtime.now]. *)
let timed mc f =
  mc.rt.Runtime.now <- mc.now;
  let r = f mc.rt in
  mc.now <- mc.rt.Runtime.now;
  r

let tick mc =
  mc.fuel <- mc.fuel - 1;
  if mc.fuel <= 0 then out_of_fuel ();
  if mc.profile_on then begin
    match Hashtbl.find_opt mc.profile_counts mc.cur_fn with
    | Some r -> incr r
    | None -> Hashtbl.replace mc.profile_counts mc.cur_fn (ref 1)
  end;
  (* In unified mode there is no device: kernel work is CPU work (this is
     what makes it the sequential baseline for explicitly-written
     kernels). *)
  if mc.in_kernel && mc.mode <> Unified then
    mc.kernel_insts <- mc.kernel_insts + 1
  else begin
    mc.cpu_insts <- mc.cpu_insts + 1;
    mc.pending_insts <- mc.pending_insts + 1
  end

(* Batched tick for a run of [n] instructions (closure engine). The
   context (kernel vs CPU) cannot change inside a run, so one test
   covers all [n]. *)
let seg_tick mc n =
  mc.fuel <- mc.fuel - n;
  if mc.fuel <= 0 then out_of_fuel ();
  if mc.profile_on then begin
    match Hashtbl.find_opt mc.profile_counts mc.cur_fn with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace mc.profile_counts mc.cur_fn (ref n)
  end;
  if mc.in_kernel && mc.mode <> Unified then
    mc.kernel_insts <- mc.kernel_insts + n
  else begin
    mc.cpu_insts <- mc.cpu_insts + n;
    mc.pending_insts <- mc.pending_insts + n
  end

(* Memory space for the executing context. Under the paged backend there
   is one shared address space: kernels read and write host memory, and
   the cost of getting the bytes across shows up as page faults. *)
let space mc =
  if mc.in_kernel && explicit mc then
    mc.dev.Device.mem
  else mc.host

let global_addr mc g =
  if mc.in_kernel && explicit mc then begin
    match mc.shard_log with
    | Some _ -> (
      (* Parallel shard: the pre-launch check guarantees every global the
         kernel can reference is already device-resident, so resolution
         is a pure table lookup — the driver and run-time are not
         domain-safe and must not run here. For a resident global the
         sequential path below is equally charge-free, so the timelines
         agree. *)
      match Hashtbl.find_opt mc.dev.Device.globals g with
      | Some a -> a
      | None -> error "parallel shard: global %s not device-resident" g)
    | None ->
      (* Resolve through the run-time so a first touch (or a re-touch
         after an eviction) gets the same OOM recovery as map, and an
         evicted global is refilled from its written-back host copy. *)
      timed mc (fun rt -> Runtime.device_global_addr rt g)
  end
  else begin
    match Hashtbl.find_opt mc.globals_host g with
    | Some a -> a
    | None -> error "unknown global %s" g
  end

(* ------------------------------------------------------------------ *)
(* Program loading: allocate and initialise globals, register them with
   the run-time (the compiler's declareGlobal calls before main).        *)

let load_globals mc =
  List.iter
    (fun (g : Ir.global) ->
      let base = Memspace.alloc ~tag:("g:" ^ g.gname) mc.host g.gsize in
      Hashtbl.replace mc.globals_host g.gname base)
    mc.prog.pm.Ir.globals;
  (* Initialise after all bases are known (pointer initialisers). *)
  List.iter
    (fun (g : Ir.global) ->
      let base = Hashtbl.find mc.globals_host g.gname in
      match g.ginit with
      | Ir.Zeroed -> ()
      | Ir.I64s a ->
        Array.iteri (fun i v -> Memspace.store_i64 mc.host (base + (8 * i)) v) a
      | Ir.F64s a ->
        Array.iteri (fun i v -> Memspace.store_f64 mc.host (base + (8 * i)) v) a
      | Ir.Str s -> Memspace.store_string mc.host base s
      | Ir.Ptrs names ->
        Array.iteri
          (fun i n ->
            let v =
              if n = "" then 0L
              else Int64.of_int (Hashtbl.find mc.globals_host n)
            in
            Memspace.store_i64 mc.host (base + (8 * i)) v)
          names)
    mc.prog.pm.Ir.globals;
  (* Only the explicit-copy model resolves device globals, so only it
     fills the run-time's allocation map and the device's global table. *)
  if explicit mc then
    List.iter
      (fun (g : Ir.global) ->
        let base = Hashtbl.find mc.globals_host g.gname in
        Runtime.declare_global mc.rt ~name:g.gname ~base ~size:g.gsize
          ~read_only:g.gread_only)
      mc.prog.pm.Ir.globals;
  (* Paged backend: globals carry load-time initial values, so their
     backing pages start host-resident (free, like the host arrays
     cudaMallocManaged zero-fills). *)
  match mc.paged with
  | Some pg ->
    List.iter
      (fun (g : Ir.global) ->
        let base = Hashtbl.find mc.globals_host g.gname in
        Paged.place_host pg ~addr:base ~len:g.gsize)
      mc.prog.pm.Ir.globals
  | None -> ()

(* Paged backend: a host-side touch that migrated pages. The pages may
   hold kernel output: stall for the device, then pay the migration
   before the access completes. *)
let paged_host_fault mc pg cyc =
  flush_time mc;
  mc.now <- Device.sync mc.dev ~now:mc.now;
  Paged.note_host_migration pg ~start:mc.now ~cycles:cyc
    ~pages:(Paged.last_host_fault_pages pg);
  mc.now <- mc.now +. cyc

(* Paged backend: note an access to [addr, addr+len) and charge any
   host-side migration synchronously. Kernel-side fault time pools
   inside [pg] until the launch ends (Paged.flush_launch). *)
let paged_touch mc pg ~addr ~len =
  if mc.in_kernel then ignore (Paged.touch pg ~kernel:true ~addr ~len)
  else begin
    let cyc = Paged.touch pg ~kernel:false ~addr ~len in
    if cyc > 0.0 then paged_host_fault mc pg cyc
  end

(* [paged_touch] through the residency cache of a decoded load/store
   site, [mc.psites.(i)]. *)
let paged_touch_site mc i ~addr ~len =
  match mc.paged with
  | Some pg ->
    let site = Array.unsafe_get mc.psites i in
    if mc.in_kernel then
      ignore (Paged.touch_site pg site ~kernel:true ~addr ~len)
    else begin
      let cyc = Paged.touch_site pg site ~kernel:false ~addr ~len in
      if cyc > 0.0 then paged_host_fault mc pg cyc
    end
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Instruction evaluation (tree-walking engine)                         *)

let eval_binop op a b =
  let open Ir in
  let i op2 = VI (op2 (as_int a) (as_int b)) in
  let f op2 = VF (op2 (as_float a) (as_float b)) in
  let icmp op2 = VI (if op2 (compare (as_int a) (as_int b)) 0 then 1L else 0L) in
  (* direct float operators: IEEE semantics (NaN <> NaN), unlike the
     polymorphic compare *)
  let fcmp op2 = VI (if op2 (as_float a) (as_float b) then 1L else 0L) in
  match op with
  | Add -> i Int64.add
  | Sub -> i Int64.sub
  | Mul -> i Int64.mul
  | Div ->
    if as_int b = 0L then error "integer division by zero";
    i Int64.div
  | Rem ->
    if as_int b = 0L then error "integer remainder by zero";
    i Int64.rem
  | And -> i Int64.logand
  | Or -> i Int64.logor
  | Xor -> i Int64.logxor
  | Shl -> VI (Int64.shift_left (as_int a) (Int64.to_int (as_int b) land 63))
  | Shr ->
    VI (Int64.shift_right_logical (as_int a) (Int64.to_int (as_int b) land 63))
  | Fadd -> f ( +. )
  | Fsub -> f ( -. )
  | Fmul -> f ( *. )
  | Fdiv -> f ( /. )
  | Eq -> icmp ( = )
  | Ne -> icmp ( <> )
  | Lt -> icmp ( < )
  | Le -> icmp ( <= )
  | Gt -> icmp ( > )
  | Ge -> icmp ( >= )
  | Feq -> fcmp (fun (x : float) y -> x = y)
  | Fne -> fcmp (fun (x : float) y -> x <> y)
  | Flt -> fcmp (fun (x : float) y -> x < y)
  | Fle -> fcmp (fun (x : float) y -> x <= y)
  | Fgt -> fcmp (fun (x : float) y -> x > y)
  | Fge -> fcmp (fun (x : float) y -> x >= y)

let eval_unop op a =
  let open Ir in
  match op with
  | Neg -> VI (Int64.neg (as_int a))
  | Not -> VI (Int64.lognot (as_int a))
  | Fneg -> VF (-.as_float a)
  | Int_to_float -> VF (Int64.to_float (as_int a))
  | Float_to_int -> VI (Int64.of_float (as_float a))

(* The pure math builtins, one float in and one out (the builtins resolve
   before user functions, so the name decides). *)
type math = Sqrt | Exp | Log | Fabs | Floor | Ceil | Sin | Cos | Tan

let math_of = function
  | "sqrt" -> Some Sqrt
  | "exp" -> Some Exp
  | "log" -> Some Log
  | "fabs" -> Some Fabs
  | "floor" -> Some Floor
  | "ceil" -> Some Ceil
  | "sin" -> Some Sin
  | "cos" -> Some Cos
  | "tan" -> Some Tan
  | _ -> None

let[@inline] math_apply m x =
  match m with
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Log -> log x
  | Fabs -> abs_float x
  | Floor -> floor x
  | Ceil -> ceil x
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x


(* ------------------------------------------------------------------ *)
(* Decode-time operator specialisation (closure engine). Each function
   matches its constructor exactly once, at decode; the returned closure
   performs only the arithmetic. Operand evaluation order mirrors the
   tree engine (right-to-left, as in OCaml application), so type-
   confusion faults surface identically in both engines. *)

let bin_fn (op : Ir.binop) : rtval -> rtval -> rtval =
  let open Ir in
  match op with
  | Add -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.add x y)
  | Sub -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.sub x y)
  | Mul -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.mul x y)
  | Div ->
    fun a b ->
      if as_int b = 0L then error "integer division by zero";
      let y = as_int b in let x = as_int a in VI (Int64.div x y)
  | Rem ->
    fun a b ->
      if as_int b = 0L then error "integer remainder by zero";
      let y = as_int b in let x = as_int a in VI (Int64.rem x y)
  | And -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logand x y)
  | Or -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logor x y)
  | Xor -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logxor x y)
  | Shl ->
    fun a b ->
      let s = Int64.to_int (as_int b) land 63 in
      VI (Int64.shift_left (as_int a) s)
  | Shr ->
    fun a b ->
      let s = Int64.to_int (as_int b) land 63 in
      VI (Int64.shift_right_logical (as_int a) s)
  | Fadd -> fun a b -> let y = as_float b in let x = as_float a in VF (x +. y)
  | Fsub -> fun a b -> let y = as_float b in let x = as_float a in VF (x -. y)
  | Fmul -> fun a b -> let y = as_float b in let x = as_float a in VF (x *. y)
  | Fdiv -> fun a b -> let y = as_float b in let x = as_float a in VF (x /. y)
  | Eq -> fun a b -> let y = as_int b in let x = as_int a in if Int64.equal x y then vtrue else vfalse
  | Ne -> fun a b -> let y = as_int b in let x = as_int a in if Int64.equal x y then vfalse else vtrue
  | Lt -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y < 0 then vtrue else vfalse
  | Le -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y <= 0 then vtrue else vfalse
  | Gt -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y > 0 then vtrue else vfalse
  | Ge -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y >= 0 then vtrue else vfalse
  | Feq -> fun a b -> let y = as_float b in let x = as_float a in if x = y then vtrue else vfalse
  | Fne -> fun a b -> let y = as_float b in let x = as_float a in if x <> y then vtrue else vfalse
  | Flt -> fun a b -> let y = as_float b in let x = as_float a in if x < y then vtrue else vfalse
  | Fle -> fun a b -> let y = as_float b in let x = as_float a in if x <= y then vtrue else vfalse
  | Fgt -> fun a b -> let y = as_float b in let x = as_float a in if x > y then vtrue else vfalse
  | Fge -> fun a b -> let y = as_float b in let x = as_float a in if x >= y then vtrue else vfalse

(* Names the run-time resolves before user functions (dispatch_call's
   match order): a call to one of these never binds to a user function
   of the same name. *)
let builtin_names =
  [
    "malloc"; "calloc"; "realloc"; "free";
    "gpu_malloc"; "gpu_free"; "gpu_memcpy_h2d"; "gpu_memcpy_d2h";
    "strlen"; "print_i64"; "print_f64"; "prints"; "pow";
  ]

let is_builtin name =
  List.mem name builtin_names || Option.is_some (math_of name)
  || Ir.Intrinsic.is_cgcm name

(* ------------------------------------------------------------------ *)
(* Static per-function analysis, shared by the closure decoder and the
   parallel engine's shardability check.

   The closure engine runs a function only when its registers are
   single-assignment and every use in a reachable block is dominated by
   its def ([fa_ssa]); the verifier enforces both, and [prepare] refuses
   a function that breaks them. Unboxed register slots, a frame reused
   across kernel threads, folding and alloca promotion each rely on
   every read seeing a value the current call (or thread) wrote.
   Unreachable blocks never run: their uses are neither counted nor
   checked (as in the verifier), and the decoder emits no code for them.

   Per-register use counts drive the folder: a single-use def can
   evaluate at its use site instead of through a slot.

   Scalar alloca promotion: an 8-byte-or-larger unregistered alloca
   whose address register is used only as the address of whole-word
   (I64/F64) loads and stores never escapes, never faults, and is
   indistinguishable from a frame slot — so it gets one, skipping the
   memory space entirely. Def-dominates-use means the alloca always
   executes (and zeroes the slot) before any access; ticks still count
   every source instruction, so timing and instruction counts are
   unchanged. *)

type fanalysis = {
  fa_uses : int array;  (* per-register use counts, reachable blocks only *)
  fa_ssa : bool;
  fa_reach : bool array;  (* per block *)
  fa_promo : (int, bool) Hashtbl.t;
  (* promoted alloca reg -> some access is f64 *)
}

let analyze_func (f : Ir.func) : fanalysis =
  let nregs = max f.Ir.nregs 1 in
  let uses = Array.make nregs 0 in
  let defs = Array.make nregs 0 in
  let dblock = Array.make nregs (-1) and dpos = Array.make nregs 0 in
  let reach = Cgcm_ir.Cfg.reachable f in
  let ssa = ref (f.Ir.nargs <= nregs) in
  for i = 0 to min f.Ir.nargs nregs - 1 do
    defs.(i) <- 1
  done;
  Array.iteri
    (fun bi (b : Ir.block) ->
      let see = function
        | Ir.Reg _ when not reach.(bi) -> ()
        | Ir.Reg r when r >= 0 && r < nregs -> uses.(r) <- uses.(r) + 1
        | Ir.Reg _ -> ssa := false
        | _ -> ()
      in
      List.iteri
        (fun k i ->
          (match Ir.def_of_instr i with
          | Some d when d >= 0 && d < nregs ->
            defs.(d) <- defs.(d) + 1;
            if defs.(d) > 1 then ssa := false;
            dblock.(d) <- bi;
            dpos.(d) <- k
          | Some _ -> ssa := false
          | None -> ());
          Ir.iter_uses_instr see i)
        b.Ir.instrs;
      List.iter see (Ir.uses_of_term b.Ir.term))
    f.Ir.blocks;
  if !ssa then begin
    (* A use after its def in the same block needs nothing more; only a
       use in another block (or before the def) asks the dominator tree,
       which most functions never build. *)
    let dom = lazy (Cgcm_ir.Dominance.compute f) in
    Array.iteri
      (fun bi (b : Ir.block) ->
        (* a register with no def at all reads the zero box in every
           engine, so only defined registers are checked *)
        let k = ref 0 in
        let check = function
          | Ir.Reg r when r >= f.Ir.nargs && dblock.(r) >= 0 ->
            let db = dblock.(r) in
            if
              (not (db = bi && dpos.(r) < !k))
              && (db = bi
                 || not (Cgcm_ir.Dominance.dominates (Lazy.force dom) db bi))
            then ssa := false
          | _ -> ()
        in
        if reach.(bi) then begin
          List.iteri
            (fun j i ->
              k := j;
              Ir.iter_uses_instr check i)
            b.Ir.instrs;
          k := max_int;
          List.iter check (Ir.uses_of_term b.Ir.term)
        end)
      f.Ir.blocks
  end;
  let promo : (int, bool) Hashtbl.t = Hashtbl.create 8 in
  if !ssa then begin
    let each fn =
      Array.iter (fun (b : Ir.block) -> List.iter fn b.Ir.instrs) f.Ir.blocks
    in
    each (function
      | Ir.Alloca (d, Ir.Imm_int s, info)
        when (not info.Ir.aregistered) && s >= 8L ->
        Hashtbl.replace promo d false
      | _ -> ());
    let disq = function Ir.Reg r -> Hashtbl.remove promo r | _ -> () in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.Load (_, (Ir.I64 | Ir.F64), Ir.Reg _) -> ()
            | Ir.Store ((Ir.I64 | Ir.F64), Ir.Reg _, v) -> disq v
            | _ -> Ir.iter_uses_instr disq i)
          b.Ir.instrs;
        List.iter disq (Ir.uses_of_term b.Ir.term))
      f.Ir.blocks;
    each (function
      | Ir.Load (_, Ir.F64, Ir.Reg p) | Ir.Store (Ir.F64, Ir.Reg p, _)
        when Hashtbl.mem promo p ->
        Hashtbl.replace promo p true
      | _ -> ())
  end;
  { fa_uses = uses; fa_ssa = !ssa; fa_reach = reach; fa_promo = promo }

(* A call whose result is always a float: a math builtin at its arity. *)
let float_call name args =
  match args with
  | [ _ ] -> math_of name <> None
  | [ _; _ ] -> name = "pow"
  | _ -> false

(* Assign every register of a function its slot. Parameters come first
   in the boxed frame, so a call blits its arguments to index 0; a
   kernel's thread id (parameter 0) is an int slot instead, and its
   other parameters start at index 0. *)
let layout_func (f : Ir.func) (a : fanalysis) : layout =
  let nregs = max f.Ir.nregs 1 in
  let nbox = ref 0 and nint = ref 0 and nflt = ref 0 in
  let box () = incr nbox; Box (!nbox - 1)
  and int () = incr nint; Int (8 * (!nint - 1))
  and flt () = incr nflt; Flt (!nflt - 1) in
  let reg = Array.make nregs (Box (-1)) in
  for r = 0 to f.Ir.nargs - 1 do
    reg.(r) <- (if r = 0 && f.Ir.fkind = Ir.Kernel then int () else box ())
  done;
  let promo = Hashtbl.create 8 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match i with
          | Ir.Alloca (p, _, _) when Hashtbl.mem a.fa_promo p ->
            Hashtbl.replace promo p
              (if Hashtbl.find a.fa_promo p then flt () else int ())
          | Ir.Binop (d, (Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv), _, _)
          | Ir.Unop (d, (Ir.Fneg | Ir.Int_to_float), _)
          | Ir.Load (d, Ir.F64, _) ->
            reg.(d) <- flt ()
          | Ir.Binop (d, _, _, _) | Ir.Unop (d, _, _) | Ir.Load (d, _, _)
          | Ir.Alloca (d, _, _) ->
            reg.(d) <- int ()
          | Ir.Call (Some d, name, args) when float_call name args ->
            reg.(d) <- flt ()
          | Ir.Call (Some d, _, _) -> reg.(d) <- box ()
          | Ir.Call (None, _, _) | Ir.Store _ | Ir.Launch _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  (* registers with no def: only ever read, as the zero box *)
  Array.iteri (fun r -> function Box (-1) -> reg.(r) <- box () | _ -> ()) reg;
  { reg; promo; nbox = !nbox; nint = !nint; nflt = !nflt }

(* ------------------------------------------------------------------ *)
(* Parallel-engine shardability.

   A kernel may execute across domains only when every iteration's work
   is confined to shard-private state plus race-free shared state:
   frame registers, promoted alloca slots, `Bytes` writes to disjoint
   allocation-unit bytes (the DOALL guarantee), the shard's own output
   buffer, and pure resolution of already-resident module globals.
   Anything that would call into the run-time, the driver, or the host
   allocator mid-kernel — none of which are domain-safe — disqualifies
   the kernel, and its launches take the sequential closure path
   instead. *)

(* Builtins whose kernel-side execution touches only shard-private or
   read-only state: pure math, proportional-work string length, and
   printing into the shard's buffer. *)
let par_safe_builtin name =
  Option.is_some (math_of name)
  || List.mem name [ "pow"; "strlen"; "print_i64"; "print_f64"; "prints" ]

(* Decide, once per kernel, whether its launches may shard, and collect
   the transitive set of module globals it can reference (each launch
   additionally checks that all of them are device-resident, so shard-
   side resolution never has to allocate). Disqualifiers: any alloca the
   decoder cannot promote to a frame slot (a real alloca mutates the
   shared device memspace), nested launches, and calls to anything but
   par-safe builtins or transitively-shardable user CPU functions. *)
let kernel_shardable ~funcs (f : Ir.func) : string list option =
  let exception Not_par in
  let visited = Hashtbl.create 8 in
  let globals = Hashtbl.create 8 in
  let rec scan (fn : Ir.func) =
    if not (Hashtbl.mem visited fn.Ir.fname) then begin
      Hashtbl.replace visited fn.Ir.fname ();
      let a = analyze_func fn in
      let value = function
        | Ir.Global g -> Hashtbl.replace globals g ()
        | _ -> ()
      in
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              (match i with
              | Ir.Alloca (d, _, _) ->
                if not (Hashtbl.mem a.fa_promo d) then raise Not_par
              | Ir.Launch _ -> raise Not_par
              | Ir.Call (_, name, _) ->
                if par_safe_builtin name then ()
                else if is_builtin name then raise Not_par
                else (
                  match Hashtbl.find_opt funcs name with
                  | Some g when g.Ir.fkind = Ir.Cpu -> scan g
                  | _ -> raise Not_par)
              | _ -> ());
              List.iter value (Ir.uses_of_instr i))
            b.Ir.instrs;
          List.iter value (Ir.uses_of_term b.Ir.term))
        fn.Ir.blocks
    end
  in
  match scan f with
  | () -> Some (Hashtbl.fold (fun g () acc -> g :: acc) globals [])
  | exception Not_par -> None

(* Inspector-executor access tracking, shared by both engines. *)
let track_load mc sp tbl addr =
  let base, _ = Memspace.unit_bounds sp addr in
  if base < mc.track_threshold && not (Hashtbl.mem tbl base) then
    Hashtbl.replace tbl base false

let track_store mc sp tbl addr =
  let base, _ = Memspace.unit_bounds sp addr in
  if base < mc.track_threshold then Hashtbl.replace tbl base true

(* Handle-based variants (closure engine): the access already resolved
   its unit, so tracking reuses the handle's base instead of a second
   index lookup. *)
let track_load_h mc tbl base =
  if base < mc.track_threshold && not (Hashtbl.mem tbl base) then
    Hashtbl.replace tbl base false

let track_store_h mc tbl base =
  if base < mc.track_threshold then Hashtbl.replace tbl base true

(* ------------------------------------------------------------------ *)
(* Closure-engine decoding helpers: operand sources and the folder      *)

external get_i : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_i : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A load/store site's handle cache ([c.hs], slot [site]): the cached
   handle when it still covers the access, else a freshly acquired one,
   which replaces it. *)
let[@inline] handle c site addr len what =
  let sp = c.sp in
  let h = Array.unsafe_get c.hs site in
  if Memspace.h_valid h sp addr len then h
  else begin
    let h = Memspace.acquire_handle sp addr len what in
    Array.unsafe_set c.hs site h;
    h
  end

(* Prepare-time state: the variant's decode-time facts, the tables
   callees and kernels resolve against, and the site counters. Decoded
   code never sees it. *)
type denv = {
  d_mode : mode;
  d_explicit : bool;  (* Split under the explicit backend *)
  d_san : bool;  (* the coherence sanitizer runs *)
  d_paged : bool;  (* Split under the paged backend *)
  d_funcs : (string, Ir.func) Hashtbl.t;
  d_kernels : (string, kernel) Hashtbl.t;
  mutable d_nhandle : int;
  mutable d_ngaddr : int;
  mutable d_npaged : int;
}

let handle_site e =
  e.d_nhandle <- e.d_nhandle + 1;
  e.d_nhandle - 1

let paged_site e =
  e.d_npaged <- e.d_npaged + 1;
  e.d_npaged - 1

(* Cached global-address resolution, one site of three [ctx.gs] cells.
   Host addresses are fixed after load_globals. Device addresses are
   allocated by the driver on first touch (which charges alloc_overhead,
   exactly once — the first call here is the first touch, as in the tree
   engine) and stay put while no global is evicted, so the device side
   caches the address together with the globals generation it was
   resolved under: an eviction bumps [Device.globals_gen] and invalidates
   every cached address at the cost of one integer compare per access.
   Only the explicit-copy model has device addresses. *)
let gaddr e g : ctx -> int =
  let k = 3 * e.d_ngaddr in
  e.d_ngaddr <- e.d_ngaddr + 1;
  let explicit = e.d_explicit in
  fun c ->
    let gs = c.gs in
    if explicit && c.mc.in_kernel then begin
      let mc = c.mc in
      let a = Array.unsafe_get gs (k + 1) in
      if a >= 0 && Array.unsafe_get gs (k + 2) = mc.dev.Device.globals_gen
      then a
      else begin
        let a = global_addr mc g in
        Array.unsafe_set gs (k + 1) a;
        Array.unsafe_set gs (k + 2) mc.dev.Device.globals_gen;
        a
      end
    end
    else begin
      let a = Array.unsafe_get gs k in
      if a >= 0 then a
      else begin
        let a = global_addr c.mc g in
        Array.unsafe_set gs k a;
        a
      end
    end

(* A def the decoder does not emit: its single consumer, later in the
   same run, reads it in place.
   - [Alias s]: a promoted-alloca load whose slot no store or alloca
     rewrites before the value is used; the consumer reads slot [s].
   - [Addr i]: an add/sub/mul feeding a load or store address (directly
     or through another [Addr]); it computes in native ints, which is
     exact because the address is truncated with Int64.to_int anyway and
     truncation to 63 bits commutes with +, - and *.
   - [Cond i]: a comparison feeding the block's branch. *)
type fold = Alias of slot | Addr of Ir.instr | Cond of Ir.instr

(* The folder's per-function tables, indexed by register (registers are
   single-assignment, so a fold is per function); [seen] stamps
   [first_use] with the block it was found in. *)
type fold_state = {
  folded : fold option array;
  eval_at : int array;
  first_use : int array;
  seen : int array;
}

let fold_state (lay : layout) =
  let n = Array.length lay.reg in
  {
    folded = Array.make n None;
    eval_at = Array.make n 0;
    first_use = Array.make n 0;
    seen = Array.make n (-1);
  }

(* Decode-time state for one function: passed down, never stored. *)
type dec = {
  env : denv;
  code : (string, cfunc) Hashtbl.t;  (* the variant decoded: callees resolve here *)
  log : bool;  (* shard code: stores append to the shard's dirty log *)
  lay : layout;
  folded : fold option array;
}

let folded_def dc r = dc.folded.(r)

(* Operand sources: how a consumer reads an operand in the representation
   it wants. Each reader is matched inline in the consumer's closure, so
   a slot read is a plain load and nothing is boxed; [Ifn]/[Ffn]/[Afn]
   cover the rest (globals, folded addresses, static type confusion). *)
type isrc = Ireg of int | Ibox of int | Iimm of int64 | Inat of (ctx -> int) | Ifn of (ctx -> int64)
type fsrc = Freg of int | Fbox of int | Fimm of float | Ffn of (ctx -> float)
type asrc = Areg of int | Abox of int | Aimm of int | Afn of (ctx -> int)

let[@inline] rd_i c = function
  | Ireg o -> get_i c.iv o
  | Ibox i -> as_int (Array.unsafe_get c.fr i)
  | Iimm k -> k
  | Inat f -> Int64.of_int (f c)
  | Ifn f -> f c

let[@inline] rd_f c = function
  | Freg i -> Array.unsafe_get c.fv i
  | Fbox i -> as_float (Array.unsafe_get c.fr i)
  | Fimm x -> x
  | Ffn f -> f c

let[@inline] rd_a c = function
  | Areg o -> Int64.to_int (get_i c.iv o)
  | Abox i -> Int64.to_int (as_int (Array.unsafe_get c.fr i))
  | Aimm a -> a
  | Afn f -> f c

(* Operators the decoder dispatches inside one closure: rarer than the
   ones with a closure of their own. *)
let[@inline] int_op (op : Ir.binop) x y =
  match op with
  | Ir.And -> Int64.logand x y
  | Ir.Or -> Int64.logor x y
  | Ir.Xor -> Int64.logxor x y
  | Ir.Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | Ir.Shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | _ -> assert false

let[@inline] int_cmp (op : Ir.binop) (x : int64) y =
  match op with
  | Ir.Eq -> x = y
  | Ir.Ne -> x <> y
  | Ir.Lt -> x < y
  | Ir.Le -> x <= y
  | Ir.Gt -> x > y
  | Ir.Ge -> x >= y
  | _ -> assert false

(* IEEE semantics (NaN <> NaN), as in the tree engine *)
let[@inline] flt_cmp (op : Ir.binop) (x : float) y =
  match op with
  | Ir.Feq -> x = y
  | Ir.Fne -> x <> y
  | Ir.Flt -> x < y
  | Ir.Fle -> x <= y
  | Ir.Fgt -> x > y
  | Ir.Fge -> x >= y
  | _ -> assert false

let float_as_int () = error "type confusion: float used as integer/pointer"
let int_as_float () = error "type confusion: integer used as float"

let slot_of dc r = dc.lay.reg.(r)

(* The register [r] as its consumer sees it: through its fold or slot. *)
let operand_slot dc r =
  match folded_def dc r with
  | Some (Alias s) -> `Slot s
  | Some (Addr i) -> `Addr i
  | Some (Cond _) -> assert false (* consumed by the branch only *)
  | None -> `Slot (slot_of dc r)

let rec asrc dc (v : Ir.value) : asrc =
  match v with
  | Ir.Reg r -> (
    match operand_slot dc r with
    | `Addr i -> Afn (expr_addr dc i)
    | `Slot (Int o) -> Areg o
    | `Slot (Flt _) -> Afn (fun _ -> float_as_int ())
    | `Slot (Box i) -> Abox i)
  | Ir.Imm_int k -> Aimm (Int64.to_int k)
  | Ir.Imm_float _ -> Afn (fun _ -> float_as_int ())
  | Ir.Global g -> Afn (gaddr dc.env g)

(* An [Addr] fold, right operand first as in the tree engine. *)
and expr_addr dc (i : Ir.instr) : ctx -> int =
  match i with
  | Ir.Binop (_, op, a, b) -> (
    let sb = asrc dc b in
    let sa = asrc dc a in
    match op with
    | Ir.Add -> fun c -> let y = rd_a c sb in let x = rd_a c sa in x + y
    | Ir.Sub -> fun c -> let y = rd_a c sb in let x = rd_a c sa in x - y
    | Ir.Mul -> fun c -> let y = rd_a c sb in let x = rd_a c sa in x * y
    | _ -> assert false)
  | _ -> assert false

let isrc dc (v : Ir.value) : isrc =
  match v with
  | Ir.Reg r -> (
    match operand_slot dc r with
    | `Addr _ -> assert false (* consumed as an address only *)
    | `Slot (Int o) -> Ireg o
    | `Slot (Flt _) -> Ifn (fun _ -> float_as_int ())
    | `Slot (Box i) -> Ibox i)
  | Ir.Imm_int k -> Iimm k
  | Ir.Imm_float _ -> Ifn (fun _ -> float_as_int ())
  | Ir.Global g -> Inat (gaddr dc.env g)

let fsrc dc (v : Ir.value) : fsrc =
  match v with
  | Ir.Reg r -> (
    match operand_slot dc r with
    | `Addr _ -> assert false
    | `Slot (Flt i) -> Freg i
    | `Slot (Int _) -> Ffn (fun _ -> int_as_float ())
    | `Slot (Box i) -> Fbox i)
  | Ir.Imm_float x -> Fimm x
  | Ir.Imm_int _ | Ir.Global _ -> Ffn (fun _ -> int_as_float ())

(* May the operand be read in the wanted kind without a static type
   fault? If not, its instruction takes the generic path, which keeps
   the tree engine's evaluate-all-then-unbox order exactly. *)
let int_ok dc (v : Ir.value) =
  match v with
  | Ir.Reg r -> ( match operand_slot dc r with `Slot (Flt _) -> false | _ -> true)
  | Ir.Imm_int _ | Ir.Global _ -> true
  | Ir.Imm_float _ -> false

let flt_ok dc (v : Ir.value) =
  match v with
  | Ir.Reg r -> ( match operand_slot dc r with `Slot (Int _) -> false | _ -> true)
  | Ir.Imm_float _ -> true
  | Ir.Imm_int _ | Ir.Global _ -> false

(* Boxed view, for call and launch arguments, returns and the generic
   (tree-semantics) path. *)
let bsrc dc (v : Ir.value) : ctx -> rtval =
  match v with
  | Ir.Reg r -> (
    match operand_slot dc r with
    | `Addr _ -> assert false
    | `Slot (Int o) -> fun c -> VI (get_i c.iv o)
    | `Slot (Flt i) -> fun c -> VF (Array.unsafe_get c.fv i)
    | `Slot (Box i) -> fun c -> Array.unsafe_get c.fr i)
  | Ir.Imm_int i ->
    let v = VI i in
    fun _ -> v
  | Ir.Imm_float x ->
    let v = VF x in
    fun _ -> v
  | Ir.Global g ->
    let ga = gaddr dc.env g in
    fun c -> VI (Int64.of_int (ga c))

(* Store a boxed value into [d]'s slot. A typed slot only ever receives
   the kind its defining instruction produces. *)
let wr dc d : ctx -> rtval -> unit =
  match slot_of dc d with
  | Int o -> fun c v -> set_i c.iv o (as_int v)
  | Flt i -> fun c v -> Array.unsafe_set c.fv i (as_float v)
  | Box i -> fun c v -> Array.unsafe_set c.fr i v

(* Call-like instructions bound a tick run: they can flush the clock,
   print, or recurse, so counters must be exact when they execute.
   Everything else is invisible to the counters. *)
let call_like = function
  | Ir.Call _ | Ir.Launch _ -> true
  | Ir.Alloca (_, _, info) -> info.Ir.aregistered
  | _ -> false

(* The folder. A fold's operands must be statically well-typed for it,
   and add/sub/mul and comparisons cannot fault themselves, so a fold
   never moves a type fault; only a boxed operand's kind, checked where
   the fold is evaluated, can fault there. Def and consumer share a run,
   so no print, clock flush or call sits between them. *)
let fold_block (lay : layout) (uses : int array) (fs : fold_state) bi
    (b : Ir.block) (instrs : Ir.instr array) =
  let n = Array.length instrs in
  let folded = fs.folded and eval_at = fs.eval_at in
  (* first use of each register in this block ([n] = terminator), and
     the first call-like instruction at or after each index *)
  let note j = function
    | Ir.Reg r when fs.seen.(r) <> bi ->
      fs.seen.(r) <- bi;
      fs.first_use.(r) <- j
    | _ -> ()
  in
  Array.iteri (fun j i -> List.iter (note j) (Ir.uses_of_instr i)) instrs;
  List.iter (note n) (Ir.uses_of_term b.Ir.term);
  let next_call = Array.make (n + 1) n in
  for k = n - 1 downto 0 do
    next_call.(k) <- (if call_like instrs.(k) then k else next_call.(k + 1))
  done;
  (* the index of [d]'s single use later in its run (a call-like
     instruction ends its run, so it may be the use); [n] = terminator *)
  let use_site idx d =
    let j = fs.first_use.(d) in
    if uses.(d) = 1 && fs.seen.(d) = bi && j > idx && next_call.(idx + 1) >= j
    then Some j
    else None
  in
  let is_int = function
    | Ir.Reg r -> ( match lay.reg.(r) with Int _ | Box _ -> true | Flt _ -> false)
    | Ir.Imm_int _ | Ir.Global _ -> true
    | Ir.Imm_float _ -> false
  and is_flt = function
    | Ir.Reg r -> ( match lay.reg.(r) with Flt _ | Box _ -> true | Int _ -> false)
    | Ir.Imm_float _ -> true
    | Ir.Imm_int _ | Ir.Global _ -> false
  in
  let is_addr_of d j =
    j < n
    &&
    match instrs.(j) with
    | Ir.Load (_, _, Ir.Reg r) -> r = d
    | Ir.Store (_, Ir.Reg r, _) -> r = d
    | Ir.Binop (d', _, _, _) -> (
      match folded.(d') with Some (Addr _) -> true | _ -> false)
    | _ -> false
  in
  let rewrites p lo hi =
    let hit = ref false in
    for k = lo to hi - 1 do
      match instrs.(k) with
      | Ir.Store (_, Ir.Reg q, _) | Ir.Alloca (q, _, _) when q = p -> hit := true
      | _ -> ()
    done;
    !hit
  in
  (* where a folded def is evaluated: at its consumer, or wherever a
     folded consumer is itself evaluated *)
  let fold d j f =
    let e =
      if j >= n then n
      else
        match Ir.def_of_instr instrs.(j) with
        | Some d' when Option.is_some folded.(d') -> eval_at.(d')
        | _ -> j
    in
    eval_at.(d) <- e;
    folded.(d) <- Some (f e)
  in
  let branches_on d =
    match b.Ir.term with Ir.Cbr (Ir.Reg r, _, _) -> r = d | _ -> false
  in
  (* consumers first: an address chain folds from its load inwards *)
  for idx = n - 1 downto 0 do
    let i = instrs.(idx) in
    match i with
    | Ir.Load (d, ty, Ir.Reg p) when Hashtbl.mem lay.promo p -> (
      match (use_site idx d, ty, Hashtbl.find lay.promo p) with
      | Some j, Ir.I64, (Int _ as s) | Some j, Ir.F64, (Flt _ as s) ->
        fold d j (fun _ -> Alias s);
        if rewrites p (idx + 1) eval_at.(d) then folded.(d) <- None
      | _ -> ())
    | Ir.Binop (d, (Ir.Add | Ir.Sub | Ir.Mul), a, b') when is_int a && is_int b' -> (
      match use_site idx d with
      | Some j when is_addr_of d j -> fold d j (fun _ -> Addr i)
      | _ -> ())
    | Ir.Binop (d, (Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge), a, b')
      when is_int a && is_int b' && branches_on d && use_site idx d = Some n ->
      fold d n (fun _ -> Cond i)
    | Ir.Binop (d, (Ir.Feq | Ir.Fne | Ir.Flt | Ir.Fle | Ir.Fgt | Ir.Fge), a, b')
      when is_flt a && is_flt b' && branches_on d && use_site idx d = Some n ->
      fold d n (fun _ -> Cond i)
    | _ -> ()
  done

(* A frame for [cf], zeroed. *)
let new_ctx mc (cf : cfunc) =
  let lay = cf.lay in
  {
    fr = Array.make lay.nbox (VI 0L);
    fv = (if lay.nflt = 0 then [||] else Array.make lay.nflt 0.0);
    iv = (if lay.nint = 0 then Bytes.empty else Bytes.make (8 * lay.nint) '\000');
    sp = space mc;
    mc;
    hs = mc.handles;
    gs = mc.gcells;
    ret = None;
    allocas = [];
    registered = [];
  }

(* Stack frame unwinding: expire declareAlloca registrations, free the
   frame's allocation units. *)
let release mc c =
  (match c.registered with
  | [] -> ()
  | l ->
    List.iter (fun base -> Runtime.expire_alloca mc.rt ~base) l;
    c.registered <- []);
  match c.allocas with
  | [] -> ()
  | l ->
    List.iter (fun base -> Memspace.free_local c.sp base) l;
    c.allocas <- []

(* The block loop: one call's (or one kernel thread's) body. *)
let run_body mc (cf : cfunc) c =
  let blocks = cf.cblocks in
  let rec loop b =
    let blk = Array.unsafe_get blocks b in
    let runs = blk.runs in
    for s = 0 to Array.length runs - 1 do
      let r = Array.unsafe_get runs s in
      seg_tick mc r.ticks;
      let ops = r.ops in
      for i = 0 to Array.length ops - 1 do
        (Array.unsafe_get ops i) c
      done
    done;
    let nxt = blk.ct c in
    if nxt >= 0 then loop nxt
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Execution: the two engines plus the shared call/launch machinery     *)

let note_print mc =
  if Option.is_some mc.shard_log then
    mc.shard_prints <- (Buffer.length mc.out, mc.fuel) :: mc.shard_prints

let rec exec_func mc (f : Ir.func) (args : rtval array) : rtval option =
  if Array.length args <> f.Ir.nargs then
    error "%s called with %d args, expected %d" f.Ir.fname (Array.length args)
      f.Ir.nargs;
  let caller_fn = mc.cur_fn in
  mc.cur_fn <- f.Ir.fname;
  let frame = Array.make (max f.Ir.nregs 1) (VI 0L) in
  Array.blit args 0 frame 0 (Array.length args);
  let frame_allocas = ref [] in
  let registered = ref [] in
  let sp = space mc in
  let eval = function
    | Ir.Reg r -> frame.(r)
    | Ir.Imm_int i -> VI i
    | Ir.Imm_float x -> VF x
    | Ir.Global g -> VI (Int64.of_int (global_addr mc g))
  in
  let finish () =
    (* Stack frame unwinding: expire declareAlloca registrations, free the
       frame's allocation units. *)
    List.iter (fun base -> Runtime.expire_alloca mc.rt ~base) !registered;
    List.iter (fun base -> Memspace.free_local sp base) !frame_allocas
  in
  let rec run_block b =
    let block = f.Ir.blocks.(b) in
    List.iter exec_instr block.Ir.instrs;
    match block.Ir.term with
    | Ir.Br b' ->
      tick mc;
      run_block b'
    | Ir.Cbr (v, b1, b2) ->
      tick mc;
      if as_int (eval v) <> 0L then run_block b1 else run_block b2
    | Ir.Ret v ->
      tick mc;
      Option.map eval v
  and exec_instr i =
    tick mc;
    match i with
    | Ir.Binop (d, op, a, b) -> frame.(d) <- eval_binop op (eval a) (eval b)
    | Ir.Unop (d, op, a) -> frame.(d) <- eval_unop op (eval a)
    | Ir.Load (d, ty, a) -> begin
      let addr = Int64.to_int (as_int (eval a)) in
      (match mc.track_units with
      | Some tbl -> track_load mc sp tbl addr
      | None -> ());
      (match mc.san with
      | Some s ->
        Sanitizer.on_load s ~addr
          ~len:(match ty with Ir.I8 -> 1 | _ -> 8)
          ~fn:mc.cur_fn ~kernel:mc.in_kernel
      | None -> ());
      (match mc.paged with
      | Some pg ->
        paged_touch mc pg ~addr ~len:(match ty with Ir.I8 -> 1 | _ -> 8)
      | None -> ());
      frame.(d) <-
        (match ty with
        | Ir.I8 -> VI (Int64.of_int (Memspace.load_u8 sp addr))
        | Ir.I64 -> VI (Memspace.load_i64 sp addr)
        | Ir.F64 -> VF (Memspace.load_f64 sp addr))
    end
    | Ir.Store (ty, a, v) -> begin
      let addr = Int64.to_int (as_int (eval a)) in
      (match mc.track_units with
      | Some tbl -> track_store mc sp tbl addr
      | None -> ());
      (match mc.san with
      | Some s ->
        Sanitizer.on_store s ~addr
          ~len:(match ty with Ir.I8 -> 1 | _ -> 8)
          ~fn:mc.cur_fn ~kernel:mc.in_kernel
      | None -> ());
      (match mc.paged with
      | Some pg ->
        paged_touch mc pg ~addr ~len:(match ty with Ir.I8 -> 1 | _ -> 8)
      | None -> ());
      match ty with
      | Ir.I8 -> Memspace.store_u8 sp addr (Int64.to_int (as_int (eval v)) land 0xff)
      | Ir.I64 -> Memspace.store_i64 sp addr (as_int (eval v))
      | Ir.F64 -> Memspace.store_f64 sp addr (as_float (eval v))
    end
    | Ir.Alloca (d, size, info) -> begin
      let size = Int64.to_int (as_int (eval size)) in
      let base = Memspace.alloc ~tag:info.Ir.aname sp size in
      frame_allocas := base :: !frame_allocas;
      frame.(d) <- VI (Int64.of_int base);
      if info.Ir.aregistered && (not mc.in_kernel) && mc.mode = Split then begin
        flush_time mc;
        if explicit mc then begin
          timed mc (fun rt -> Runtime.declare_alloca rt ~base ~size);
          registered := base :: !registered
        end
      end
    end
    | Ir.Call (d, name, args) -> begin
      let argv = List.map eval args in
      let res = dispatch_call mc name argv in
      match d with
      | Some d -> frame.(d) <- (match res with Some v -> v | None -> VI 0L)
      | None -> ()
    end
    | Ir.Launch { kernel; trip; args } ->
      exec_launch mc ~kernel ~trip:(Int64.to_int (as_int (eval trip)))
        ~args:(List.map eval args)
  in
  let res =
    try run_block 0
    with e ->
      finish ();
      mc.cur_fn <- caller_fn;
      raise e
  in
  finish ();
  mc.cur_fn <- caller_fn;
  res

and dispatch_call mc name argv : rtval option =
  match (name, argv) with
  | ("malloc" | "calloc"), [ size ] ->
    (* our memory model zero-initialises, so calloc = malloc *)
    let size = Int64.to_int (as_int size) in
    if mc.in_kernel then error "malloc on the device";
    let base = Memspace.alloc ~tag:"heap" mc.host size in
    flush_time mc;
    mc.now <- mc.now +. 100.0;
    if explicit mc then Runtime.register_heap mc.rt ~base ~size;
    Some (VI (Int64.of_int base))
  | "realloc", [ p; size ] ->
    (* the run-time wrapper: the old unit leaves the allocation map, the
       new one enters it (Section 3.1) *)
    if mc.in_kernel then error "realloc on the device";
    let old_base = Int64.to_int (as_int p) in
    let size = Int64.to_int (as_int size) in
    let base = Memspace.alloc ~tag:"heap" mc.host size in
    flush_time mc;
    mc.now <- mc.now +. 150.0;
    if old_base <> 0 then begin
      let _, old_size = Memspace.unit_bounds mc.host old_base in
      Memspace.blit ~src:mc.host ~src_addr:old_base ~dst:mc.host
        ~dst_addr:base ~len:(min old_size size);
      if explicit mc then
        timed mc (fun rt -> Runtime.unregister_heap rt ~base:old_base);
      Memspace.free mc.host old_base
    end;
    if explicit mc then Runtime.register_heap mc.rt ~base ~size;
    Some (VI (Int64.of_int base))
  | "free", [ p ] ->
    let base = Int64.to_int (as_int p) in
    if mc.mode = Split then begin
      flush_time mc;
      if explicit mc then timed mc (fun rt -> Runtime.unregister_heap rt ~base)
    end;
    Memspace.free mc.host base;
    None
  (* ---- explicit driver API (manual management, Listing 1 style) ----
     Under the paged backend (like Unified mode) there is no separate
     device memory: gpu_malloc hands out host storage, the copies are
     host-side blits, and the data pays page faults when kernels touch
     it — manual staging buys nothing, which is the point of managed
     memory. *)
  | "gpu_malloc", [ size ] ->
    let size = Int64.to_int (as_int size) in
    if mc.in_kernel then error "gpu_malloc on the device";
    flush_time mc;
    if explicit mc then begin
      let d, now = Device.mem_alloc mc.dev ~now:mc.now size in
      mc.now <- now;
      Some (VI (Int64.of_int d))
    end
    else
      (* unified memory: device allocations are just host allocations *)
      Some (VI (Int64.of_int (Memspace.alloc ~tag:"gpu" mc.host size)))
  | "gpu_free", [ p ] ->
    let d = Int64.to_int (as_int p) in
    flush_time mc;
    if explicit mc then
      mc.now <- Device.mem_free mc.dev ~now:mc.now d
    else Memspace.free mc.host d;
    None
  | "gpu_memcpy_h2d", [ dst; src; len ] ->
    let dst = Int64.to_int (as_int dst)
    and src = Int64.to_int (as_int src)
    and len = Int64.to_int (as_int len) in
    flush_time mc;
    if explicit mc then
      mc.now <-
        Device.memcpy_h_to_d mc.dev ~now:mc.now ~host:mc.host ~host_addr:src
          ~dev_addr:dst ~len
    else begin
      (match mc.paged with
      | Some pg ->
        paged_touch mc pg ~addr:src ~len;
        paged_touch mc pg ~addr:dst ~len
      | None -> ());
      Memspace.blit ~src:mc.host ~src_addr:src ~dst:mc.host ~dst_addr:dst ~len
    end;
    None
  | "gpu_memcpy_d2h", [ dst; src; len ] ->
    let dst = Int64.to_int (as_int dst)
    and src = Int64.to_int (as_int src)
    and len = Int64.to_int (as_int len) in
    flush_time mc;
    if explicit mc then
      mc.now <-
        Device.memcpy_d_to_h mc.dev ~now:mc.now ~host:mc.host ~host_addr:dst
          ~dev_addr:src ~len
    else begin
      (match mc.paged with
      | Some pg ->
        paged_touch mc pg ~addr:src ~len;
        paged_touch mc pg ~addr:dst ~len
      | None -> ());
      Memspace.blit ~src:mc.host ~src_addr:src ~dst:mc.host ~dst_addr:dst ~len
    end;
    None
  | "strlen", [ p ] ->
    let addr = Int64.to_int (as_int p) in
    let s = Memspace.load_string (space mc) addr in
    (match mc.paged with
    | Some pg -> paged_touch mc pg ~addr ~len:(String.length s + 1)
    | None -> ());
    (* charge proportional work *)
    for _ = 1 to String.length s do tick mc done;
    Some (VI (Int64.of_int (String.length s)))
  | "print_i64", [ v ] ->
    note_print mc;
    Buffer.add_string mc.out (Int64.to_string (as_int v));
    Buffer.add_char mc.out '\n';
    None
  | "print_f64", [ v ] ->
    note_print mc;
    Buffer.add_string mc.out (Printf.sprintf "%.6g" (as_float v));
    Buffer.add_char mc.out '\n';
    None
  | "prints", [ p ] ->
    let addr = Int64.to_int (as_int p) in
    let s = Memspace.load_string (space mc) addr in
    (match mc.paged with
    | Some pg -> paged_touch mc pg ~addr ~len:(String.length s + 1)
    | None -> ());
    note_print mc;
    Buffer.add_string mc.out s;
    Buffer.add_char mc.out '\n';
    None
  | "pow", [ a; b ] -> Some (VF (Float.pow (as_float a) (as_float b)))
  | _ when Option.is_some (math_of name) -> (
    match argv with
    | [ a ] -> Some (VF (math_apply (Option.get (math_of name)) (as_float a)))
    | _ -> error "%s expects one argument" name)
  (* ---- the CGCM run-time library ---- *)
  | _ when Ir.Intrinsic.is_cgcm name -> dispatch_cgcm mc name argv
  | _ -> (
    match Hashtbl.find_opt mc.prog.pfuncs name with
    | Some f ->
      if f.Ir.fkind = Ir.Kernel then error "direct call to kernel %s" name;
      call_func mc f (Array.of_list argv)
    | None -> error "call to unknown function '%s'" name)

and dispatch_cgcm mc name argv : rtval option =
  (* Split mode: the explicit-copy model calls the CGCM run-time (copies,
     refcounts, epochs). Under the paged backend the hardware manages
     communication, so map is the identity and the rest do nothing: the
     same compiled module runs under both and the A/B isolates the
     management cost. *)
  let map f p =
    flush_time mc;
    let p = Int64.to_int (as_int p) in
    let d = if explicit mc then timed mc (fun rt -> f rt p) else p in
    Some (VI (Int64.of_int d))
  and manage f p =
    flush_time mc;
    let p = Int64.to_int (as_int p) in
    if explicit mc then timed mc (fun rt -> f rt p);
    None
  in
  match (mc.mode, name, argv) with
  (* Unified mode: the runtime is an identity — used to differentially
     test that the compiler transformations preserve semantics. The
     inspector-executor baseline runs unmanaged modules, but treat stray
     cgcm calls the same way. *)
  | (Unified | Inspector_executor), ("cgcm.map" | "cgcm.map_array"), [ p ] ->
    Some p
  | (Unified | Inspector_executor), _, _ -> None
  | Split, "cgcm.map", [ p ] -> map Runtime.map p
  | Split, "cgcm.unmap", [ p ] -> manage Runtime.unmap p
  | Split, "cgcm.release", [ p ] -> manage Runtime.release p
  | Split, "cgcm.map_array", [ p ] -> map Runtime.map_array p
  | Split, "cgcm.unmap_array", [ p ] -> manage Runtime.unmap_array p
  | Split, "cgcm.release_array", [ p ] -> manage Runtime.release_array p
  | Split, _, _ -> error "unknown cgcm intrinsic '%s'" name

and exec_launch mc ~kernel ~trip ~args =
  match Hashtbl.find_opt mc.prog.pkernels kernel with
  | Some k -> launch mc k ~trip ~args
  | None -> error "launch of unknown kernel %s" kernel

and launch mc (k : kernel) ~trip ~args =
  let kernel = k.kf.Ir.fname in
  if trip > 0 then begin
    flush_time mc;
    if explicit mc then Runtime.bump_epoch mc.rt;
    (match mc.san with
    | Some s ->
      (* [prepare] computed it, unless that raised: raise it here *)
      let rw =
        match k.krw with Some rw -> rw | None -> Modref.kernel_rw k.kf
      in
      Sanitizer.on_launch s ~kernel ~reads:rw.Modref.reads
        ~writes:rw.Modref.writes ~unknown:rw.Modref.rw_unknown
    | None -> ());
    let saved_in_kernel = mc.in_kernel in
    let insts_before = mc.kernel_insts in
    let tracking =
      if mc.mode = Inspector_executor then begin
        let tbl = Hashtbl.create 16 in
        mc.track_units <- Some tbl;
        Memspace.pool_flush mc.host;
        mc.track_threshold <- Memspace.frontier mc.host;
        Some tbl
      end
      else None
    in
    mc.in_kernel <- true;
    (* The Parallel engine shards a launch across the domain pool when
       the launch is worth it (trip over the cost-model threshold), the
       kernel is statically shardable, and every global it can touch is
       already device-resident (so shard-side resolution is pure). A
       launch that fails any test takes the sequential path — which is
       why jobs = 1 is exactly the closure engine. *)
    let shard =
      match k.kshard with
      | Some (gs, cf)
        when mc.jobs > 1 && explicit mc
             && (not saved_in_kernel)
             && Option.is_none mc.shard_log
             && trip >= mc.cost.Cost_model.par_min_trip
             && List.for_all (Hashtbl.mem mc.dev.Device.globals) gs ->
        Some cf
      | _ -> None
    in
    (try
       match (shard, k.kcode) with
       | Some cf, _ -> exec_launch_parallel mc cf ~trip ~args
       | None, Some cf ->
         (* one frame for the whole launch *)
         run_threads mc cf ~lo:0 ~hi:trip (Array.of_list args)
       | None, None ->
         for tid = 0 to trip - 1 do
           ignore
             (exec_func mc k.kf (Array.of_list (VI (Int64.of_int tid) :: args)))
         done
     with e ->
       mc.in_kernel <- saved_in_kernel;
       mc.track_units <- None;
       raise e);
    mc.in_kernel <- saved_in_kernel;
    mc.track_units <- None;
    let insts = mc.kernel_insts - insts_before in
    (* Graceful degradation: if the driver refuses the launch, the kernel
       body (already executed functionally against device memory — the
       data outcome is identical) is re-attributed to the CPU timeline as
       synchronous CPU work: the instructions move from the kernel to the
       CPU account, the clock advances at CPU speed, and the device
       timeline, launch stats and trace stay untouched. *)
    let cpu_fallback () =
      Runtime.note_cpu_fallback mc.rt;
      mc.kernel_insts <- mc.kernel_insts - insts;
      mc.cpu_insts <- mc.cpu_insts + insts;
      let start = mc.now in
      mc.now <-
        mc.now +. (float_of_int insts *. mc.cost.Cost_model.cpu_cycle);
      Trace.record mc.dev.Device.trace Trace.Kernel ~start ~finish:mc.now
        ~label:(kernel ^ "+cpu-fallback") ~bytes:0
    in
    match mc.mode with
    | Split ->
      (match Device.launch mc.dev ~now:mc.now ~name:kernel ~insts ~trip with
      | now -> mc.now <- now
      | exception Errors.Device_error (Errors.Launch_failed _) ->
        cpu_fallback ());
      (* Paged backend: the kernel's demand faults extend the device's
         busy window once the driver work is accounted — even on CPU
         fallback the pages migrated and the cost was paid. *)
      (match mc.paged with
      | Some pg -> Paged.flush_launch pg
      | None -> ())
    | Unified -> ()
    | Inspector_executor ->
      (* 1. sequential inspection on the CPU: replay the loop's address
            slice (a fraction of the kernel's dynamic instructions) *)
      let inspect =
        float_of_int insts *. inspector_fraction
        *. mc.cost.Cost_model.cpu_cycle
      in
      mc.now <- mc.now +. inspect;
      mc.cpu_insts <-
        mc.cpu_insts + int_of_float (float_of_int insts *. inspector_fraction);
      (* 2. oracle transfers: one byte per accessed allocation unit,
            batched into a single DMA each way (the scheduler is an
            oracle, so it gathers perfectly) *)
      let st = Device.stats mc.dev in
      let tbl = Option.get tracking in
      let read_units = Hashtbl.length tbl in
      let written_units =
        Hashtbl.fold (fun _ w n -> if w then n + 1 else n) tbl 0
      in
      if read_units > 0 then begin
        let dur = Cost_model.transfer_cycles mc.cost read_units in
        Trace.record mc.dev.Device.trace Trace.Htod ~start:mc.now
          ~finish:(mc.now +. dur) ~label:"ie-in" ~bytes:read_units;
        mc.now <- mc.now +. dur;
        st.Device.comm_cycles <- st.Device.comm_cycles +. dur;
        st.Device.htod_bytes <- st.Device.htod_bytes + read_units;
        st.Device.htod_count <- st.Device.htod_count + 1
      end;
      if written_units > 0 then begin
        let dur = Cost_model.transfer_cycles mc.cost written_units in
        Trace.record mc.dev.Device.trace Trace.Dtoh ~start:mc.now
          ~finish:(mc.now +. dur) ~label:"ie-out" ~bytes:written_units;
        mc.now <- mc.now +. dur;
        st.Device.comm_cycles <- st.Device.comm_cycles +. dur;
        st.Device.dtoh_bytes <- st.Device.dtoh_bytes + written_units;
        st.Device.dtoh_count <- st.Device.dtoh_count + 1
      end;
      (* 3. the kernel itself, fully synchronous (cyclic schedule) *)
      (match Device.launch mc.dev ~now:mc.now ~name:kernel ~insts ~trip with
      | now -> mc.now <- now
      | exception Errors.Device_error (Errors.Launch_failed _) ->
        cpu_fallback ());
      mc.now <- Device.sync mc.dev ~now:mc.now
  end

(* Engine dispatch for an internal (non-kernel) function call. The
   Parallel engine is the closure engine everywhere except inside
   exec_launch; a shard machine runs the logged-store code. *)
and call_func mc (f : Ir.func) (args : rtval array) : rtval option =
  match mc.engine with
  | Tree_walk -> exec_func mc f args
  | Closures | Parallel ->
    let code =
      if Option.is_some mc.shard_log then mc.prog.plog else mc.prog.pcode
    in
    exec_compiled mc (Hashtbl.find code f.Ir.fname) args

(* ------------------------------------------------------------------ *)
(* The parallel engine: shard a DOALL launch across the domain pool     *)

(* Grow the persistent shard-machine array to [n]. A shard machine
   shares the program, memory spaces, device, cost model and sanitizer
   with the main machine, but owns its per-site caches (handle and
   global-address caches must not be shared across domains), its output
   buffer, its profile counts and its dirty log. Its mutable counters are
   reset at every launch. *)
and ensure_shards mc n =
  let cur = Array.length mc.shards in
  if cur < n then
    mc.shards <-
      Array.init n (fun i ->
          if i < cur then mc.shards.(i)
          else
            {
              mc with
              handles = Array.make (Array.length mc.handles) Memspace.null_handle;
              gcells = Array.make (Array.length mc.gcells) (-1);
              psites = [||] (* shards run under the explicit backend only *);
              out = Buffer.create 256;
              profile_counts = Hashtbl.create 16;
              shard_log = Some (Memspace.log_create ());
              shard_prints = [];
              shards = [||];
            })

and merge_profile mc smc =
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt mc.profile_counts k with
      | Some r0 -> r0 := !r0 + !r
      | None -> Hashtbl.replace mc.profile_counts k (ref !r))
    smc.profile_counts;
  Hashtbl.reset smc.profile_counts

(* Execute one launch across min(jobs, trip) domains. Called from
   exec_launch with in_kernel already set and the epoch bumped; device-
   timeline accounting (Device.launch) stays in exec_launch, driven by
   the merged instruction count, so gpusim sees exactly the sequential
   schedule.

   Determinism argument: iterations are DOALL (disjoint allocation-unit
   bytes), chunks are contiguous and assigned in increasing shard order,
   and each shard's work is a pure function of its chunk plus pre-launch
   state. The join then merges all order-sensitive state in shard order:
   output buffers concatenate to the sequential print order, dirty logs
   replay through the span accumulator in iteration order, and
   instruction counts sum associatively. Shared hot-path state is either
   atomic (the sanitizer's check counter), byte-disjoint by the DOALL
   guarantee (Bytes writes, sanitizer version maps), or validated-
   before-use caches whose races are benign (memspace last-block,
   sanitizer claim memos). Everything else the shards touch is
   shard-private, so the result is bit-identical to the sequential
   engine. *)
and exec_launch_parallel mc (cf : cfunc) ~trip ~args =
  let nshards = min mc.jobs trip in
  ensure_shards mc nshards;
  let args = Array.of_list args in
  (* contiguous balanced chunks: shard s owns [lo s, lo (s+1)) *)
  let q = trip / nshards and r = trip mod nshards in
  let chunk_lo s = (s * q) + min s r in
  let failures = Array.make nshards None in
  Pool.run ~jobs:nshards nshards (fun s ->
      let smc = mc.shards.(s) in
      smc.in_kernel <- true;
      smc.fuel <- mc.fuel;
      smc.kernel_insts <- 0;
      smc.cur_fn <- mc.cur_fn;
      Buffer.clear smc.out;
      smc.shard_prints <- [];
      (match smc.shard_log with Some l -> Memspace.log_clear l | None -> ());
      try run_threads smc cf ~lo:(chunk_lo s) ~hi:(chunk_lo (s + 1)) args
      with e -> failures.(s) <- Some e);
  (* Join barrier: merge shard state in shard (= iteration) order. On a
     shard failure, merge up to and including the failing shard — the
     sequential engine would have applied everything before the faulting
     iteration — and re-raise its exception; later chunks' memory writes
     have already happened, but state past a fault is unspecified (as on
     a real GPU). Every shard started with the whole remaining budget;
     the sequential engine runs out of fuel inside the first chunk whose
     fuel left does not cover what the earlier chunks spent, before any
     fault of that chunk, and prints only what it printed with fuel to
     spare. *)
  let budget = mc.fuel in
  let used = ref 0 and total = ref 0 in
  let failure = ref None in
  let s = ref 0 in
  while Option.is_none !failure && !s < nshards do
    let smc = mc.shards.(!s) in
    (match smc.shard_log with Some l -> Memspace.log_replay l | None -> ());
    if smc.fuel <= !used then begin
      let keep =
        List.fold_left
          (fun keep (off, left) -> if left <= !used then off else keep)
          (Buffer.length smc.out) smc.shard_prints
      in
      Buffer.add_string mc.out (Buffer.sub smc.out 0 keep);
      failure := Some (Exec_error fuel_message)
    end
    else begin
      Buffer.add_buffer mc.out smc.out;
      failure := failures.(!s)
    end;
    Buffer.clear smc.out;
    used := !used + (budget - smc.fuel);
    total := !total + smc.kernel_insts;
    if mc.profile_on then merge_profile mc smc;
    incr s
  done;
  mc.kernel_insts <- mc.kernel_insts + !total;
  mc.fuel <- budget - !used;
  match !failure with Some e -> raise e | None -> ()

(* A call of a CPU function (or main): a fresh frame. *)
and exec_compiled mc (cf : cfunc) (args : rtval array) : rtval option =
  let f = cf.cfn in
  Option.iter raise cf.cerr;
  if Array.length args <> f.Ir.nargs then
    error "%s called with %d args, expected %d" f.Ir.fname (Array.length args)
      f.Ir.nargs;
  let caller_fn = mc.cur_fn in
  mc.cur_fn <- f.Ir.fname;
  let c = new_ctx mc cf in
  match
    Array.blit args 0 c.fr 0 (Array.length args);
    run_body mc cf c
  with
  | () ->
    release mc c;
    mc.cur_fn <- caller_fn;
    c.ret
  | exception e ->
    release mc c;
    mc.cur_fn <- caller_fn;
    raise e

(* Threads [lo, hi) of one launch of kernel [cf] (all of it, or one
   shard's chunk), in one frame: the arguments are written once, and each
   thread writes only its id before running the shared block loop. Per
   thread, as for a call: ticks and fuel in the run loop, allocas freed
   and declareAlloca registrations expired at its end. The frame needs
   no reset between threads: every read sees a def of the same thread.
   The range is never empty: a launch with no threads returns before
   reaching its kernel's code, and a shard's chunk holds at least one
   thread. *)
and run_threads mc (cf : cfunc) ~lo ~hi (args : rtval array) =
  let f = cf.cfn in
  Option.iter raise cf.cerr;
  let nargs = Array.length args + 1 in
  if nargs <> f.Ir.nargs then
    error "%s called with %d args, expected %d" f.Ir.fname nargs f.Ir.nargs;
  let tid_slot = match cf.lay.reg.(0) with Int o -> o | _ -> assert false in
  let caller_fn = mc.cur_fn in
  mc.cur_fn <- f.Ir.fname;
  let c = new_ctx mc cf in
  Array.blit args 0 c.fr 0 (nargs - 1);
  (try
     for tid = lo to hi - 1 do
       set_i c.iv tid_slot (Int64.of_int tid);
       run_body mc cf c;
       release mc c
     done
   with e ->
     release mc c;
     mc.cur_fn <- caller_fn;
     raise e);
  mc.cur_fn <- caller_fn

(* ------------------------------------------------------------------ *)
(* The closure engine: decode once per program, dispatch via closure
   call. Decoding reads the variant's facts from [dc.env] and resolves
   callees and kernels to the program's cfuncs; the closures it returns
   find the machine, and their site caches, through the frame. *)

let rec decode_block dc uses fs bi (b : Ir.block) : cblock =
  let instrs = Array.of_list b.Ir.instrs in
  fold_block dc.lay uses fs bi b instrs;
  let runs = ref [] and cur = ref [] and nticks = ref 0 in
  let close extra =
    runs :=
      { ticks = !nticks + extra; ops = Array.of_list (List.rev !cur) } :: !runs;
    cur := [];
    nticks := 0
  in
  (* Ticks count source instructions, folded or not. *)
  Array.iter
    (fun i ->
      incr nticks;
      (match Ir.def_of_instr i with
      | Some d when Option.is_some (folded_def dc d) -> ()
      | _ -> cur := decode_instr dc i :: !cur);
      if call_like i then close 0)
    instrs;
  (* the trailing run also accounts the terminator's tick *)
  close 1;
  { runs = Array.of_list (List.rev !runs); ct = decode_term dc b.Ir.term }

(* Instruction decode. Ticks are accounted by the enclosing run
   (decode_block), not by the closures. Operands are read right to left,
   as the tree engine evaluates them, so faults surface in the same
   order. *)
and decode_instr dc (i : Ir.instr) : cinstr =
  match i with
  | Ir.Binop (d, op, a, b) -> decode_binop dc d op a b
  | Ir.Unop (d, op, a) -> decode_unop dc d op a
  (* Promoted alloca slots: the access is a slot move. *)
  | Ir.Load (d, ty, Ir.Reg p) when Hashtbl.mem dc.lay.promo p -> (
    match (Hashtbl.find dc.lay.promo p, ty, slot_of dc d) with
    | Int o, _, Int od -> fun c -> set_i c.iv od (get_i c.iv o)
    | Flt j, Ir.F64, Flt jd ->
      fun c -> Array.unsafe_set c.fv jd (Array.unsafe_get c.fv j)
    | Flt j, _, Int od ->
      fun c -> set_i c.iv od (Int64.bits_of_float (Array.unsafe_get c.fv j))
    | _ -> assert false)
  | Ir.Store (ty, Ir.Reg p, v) when Hashtbl.mem dc.lay.promo p -> (
    match (Hashtbl.find dc.lay.promo p, ty) with
    | Int o, _ ->
      let sv = isrc dc v in
      fun c -> set_i c.iv o (rd_i c sv)
    | Flt j, Ir.F64 ->
      let sv = fsrc dc v in
      fun c -> Array.unsafe_set c.fv j (rd_f c sv)
    | Flt j, _ ->
      let sv = isrc dc v in
      fun c -> Array.unsafe_set c.fv j (Int64.float_of_bits (rd_i c sv))
    | Box _, _ -> assert false)
  | Ir.Alloca (d, _, _) when Hashtbl.mem dc.lay.promo d -> (
    match Hashtbl.find dc.lay.promo d with
    | Int o -> fun c -> set_i c.iv o 0L
    | Flt j -> fun c -> Array.unsafe_set c.fv j 0.0
    | Box _ -> assert false)
  | Ir.Load (d, ty, a) -> decode_load dc d ty a
  | Ir.Store (ty, a, v) ->
    if dc.log then decode_store_log dc ty a v else decode_store_seq dc ty a v
  | Ir.Alloca (d, size, info) ->
    let ss = isrc dc size in
    let w = wr dc d in
    fun c ->
      let mc = c.mc in
      let size = Int64.to_int (rd_i c ss) in
      let base = Memspace.alloc ~tag:info.Ir.aname c.sp size in
      c.allocas <- base :: c.allocas;
      w c (VI (Int64.of_int base));
      if info.Ir.aregistered && (not mc.in_kernel) && mc.mode = Split then begin
        flush_time mc;
        if explicit mc then begin
          timed mc (fun rt -> Runtime.declare_alloca rt ~base ~size);
          c.registered <- base :: c.registered
        end
      end
  | Ir.Call (d, name, args) -> decode_call dc d name args
  | Ir.Launch { kernel; trip; args } ->
    let st = isrc dc trip in
    let fargs = List.map (bsrc dc) args in
    let go =
      match Hashtbl.find_opt dc.env.d_kernels kernel with
      | Some k -> fun mc ~trip ~args -> launch mc k ~trip ~args
      (* not a kernel: fault at execution time *)
      | None -> fun mc ~trip ~args -> exec_launch mc ~kernel ~trip ~args
    in
    fun c ->
      let args = List.map (fun g -> g c) fargs in
      let trip = Int64.to_int (rd_i c st) in
      go c.mc ~trip ~args

and decode_call dc d name args : cinstr =
  let set_res =
    match d with
    | Some d ->
      let w = wr dc d in
      fun c res -> w c (match res with Some v -> v | None -> VI 0L)
    | None -> fun _ _ -> ()
  in
  let fargs = List.map (bsrc dc) args in
  let generic () =
    fun c ->
      let argv = List.map (fun g -> g c) fargs in
      set_res c (dispatch_call c.mc name argv)
  in
  if is_builtin name then begin
    (* Pure math calls are the only builtins hot enough to specialise;
       everything else keeps the tree engine's dispatch (which the
       closure still reaches without re-matching the instruction). *)
    match (math_of name, args, Option.map (slot_of dc) d) with
    | Some m, [ a ], Some (Flt o) when flt_ok dc a ->
      let sa = fsrc dc a in
      fun c -> Array.unsafe_set c.fv o (math_apply m (rd_f c sa))
    | None, [ a; b ], Some (Flt o) when name = "pow" && flt_ok dc a && flt_ok dc b ->
      let sb = fsrc dc b in
      let sa = fsrc dc a in
      fun c ->
        let y = rd_f c sb in
        let x = rd_f c sa in
        Array.unsafe_set c.fv o (Float.pow x y)
    | _ -> generic ()
  end
  else begin
    match Hashtbl.find_opt dc.env.d_funcs name with
    | Some f when f.Ir.fkind = Ir.Cpu ->
      (* Direct call to a user function, resolved to its cfunc in the
         variant being decoded ([prepare] made every cfunc before
         decoding any body, so recursion needs nothing more). *)
      let cf = Hashtbl.find dc.code f.Ir.fname in
      let fargs = Array.of_list fargs in
      let n = Array.length fargs in
      fun c ->
        let argv = if n = 0 then [||] else Array.make n (VI 0L) in
        for i = 0 to n - 1 do
          argv.(i) <- (Array.unsafe_get fargs i) c
        done;
        set_res c (exec_compiled c.mc cf argv)
    | _ ->
      (* kernels called directly, or unknown names: fault at execution
         time with the tree engine's message *)
      generic ()
  end

and decode_unop dc d op a : cinstr =
  match (op, slot_of dc d) with
  | Ir.Neg, Int o ->
    let sa = isrc dc a in
    fun c -> set_i c.iv o (Int64.neg (rd_i c sa))
  | Ir.Not, Int o ->
    let sa = isrc dc a in
    fun c -> set_i c.iv o (Int64.lognot (rd_i c sa))
  | Ir.Float_to_int, Int o ->
    let sa = fsrc dc a in
    fun c -> set_i c.iv o (Int64.of_float (rd_f c sa))
  | Ir.Fneg, Flt o ->
    let sa = fsrc dc a in
    fun c -> Array.unsafe_set c.fv o (-.rd_f c sa)
  | Ir.Int_to_float, Flt o ->
    let sa = isrc dc a in
    fun c -> Array.unsafe_set c.fv o (Int64.to_float (rd_i c sa))
  | _ -> assert false (* the layout fixes each unop's result kind *)

and decode_binop dc d op a b : cinstr =
  let open Ir in
  let int_ops = int_ok dc a && int_ok dc b and flt_ops = flt_ok dc a && flt_ok dc b in
  match (op, slot_of dc d) with
  (* the operators that dominate executed code get their own closure *)
  | Add, Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c -> let y = rd_i c sb in let x = rd_i c sa in set_i c.iv o (Int64.add x y)
  | Sub, Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c -> let y = rd_i c sb in let x = rd_i c sa in set_i c.iv o (Int64.sub x y)
  | Mul, Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c -> let y = rd_i c sb in let x = rd_i c sa in set_i c.iv o (Int64.mul x y)
  | Div, Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c ->
      let y = rd_i c sb in
      if y = 0L then error "integer division by zero";
      let x = rd_i c sa in
      set_i c.iv o (Int64.div x y)
  | Rem, Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c ->
      let y = rd_i c sb in
      if y = 0L then error "integer remainder by zero";
      let x = rd_i c sa in
      set_i c.iv o (Int64.rem x y)
  | (And | Or | Xor | Shl | Shr), Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c ->
      let y = rd_i c sb in
      let x = rd_i c sa in
      set_i c.iv o (int_op op x y)
  | (Eq | Ne | Lt | Le | Gt | Ge), Int o when int_ops ->
    let sb = isrc dc b in
    let sa = isrc dc a in
    fun c ->
      let y = rd_i c sb in
      let x = rd_i c sa in
      set_i c.iv o (if int_cmp op x y then 1L else 0L)
  | Fadd, Flt o when flt_ops ->
    let sb = fsrc dc b in
    let sa = fsrc dc a in
    fun c -> let y = rd_f c sb in let x = rd_f c sa in Array.unsafe_set c.fv o (x +. y)
  | Fsub, Flt o when flt_ops ->
    let sb = fsrc dc b in
    let sa = fsrc dc a in
    fun c -> let y = rd_f c sb in let x = rd_f c sa in Array.unsafe_set c.fv o (x -. y)
  | Fmul, Flt o when flt_ops ->
    let sb = fsrc dc b in
    let sa = fsrc dc a in
    fun c -> let y = rd_f c sb in let x = rd_f c sa in Array.unsafe_set c.fv o (x *. y)
  | Fdiv, Flt o when flt_ops ->
    let sb = fsrc dc b in
    let sa = fsrc dc a in
    fun c -> let y = rd_f c sb in let x = rd_f c sa in Array.unsafe_set c.fv o (x /. y)
  | (Feq | Fne | Flt | Fle | Fgt | Fge), Int o when flt_ops ->
    let sb = fsrc dc b in
    let sa = fsrc dc a in
    fun c ->
      let y = rd_f c sb in
      let x = rd_f c sa in
      set_i c.iv o (if flt_cmp op x y then 1L else 0L)
  | _ ->
    (* statically ill-typed operands: the tree engine's evaluation,
       written into [d]'s slot *)
    let f = bin_fn op in
    let fb = bsrc dc b in
    let fa = bsrc dc a in
    let w = wr dc d in
    fun c ->
      let vb = fb c in
      let va = fa c in
      w c (f va vb)

and decode_load dc d ty a : cinstr =
  let e = dc.env in
  let sa = asrc dc a in
  let len = match ty with Ir.I8 -> 1 | _ -> 8 in
  let site = handle_site e in
  (* Access tracking only exists in inspector-executor mode, the
     sanitizer only in Split mode, and the paged touch hook only under
     the paged backend — all known at decode time. [acquire] is None when
     none applies, and the handle lookup is inlined. *)
  let acquire : (ctx -> int -> Memspace.handle) option =
    if e.d_mode = Inspector_executor then
      (* the handle resolution already found the unit, so tracking
         reuses its base *)
      Some
        (fun c addr ->
          let h = handle c site addr len "load" in
          (match c.mc.track_units with
          | Some tbl -> track_load_h c.mc tbl (Memspace.handle_base h)
          | None -> ());
          h)
    else if e.d_san then
      (* the coherence check runs before the access (the read of a stale
         byte IS the violation), where the tree engine checks *)
      Some
        (fun c addr ->
          let mc = c.mc in
          (match mc.san with
          | Some s ->
            Sanitizer.on_load s ~addr ~len ~fn:mc.cur_fn ~kernel:mc.in_kernel
          | None -> ());
          handle c site addr len "load")
    else if e.d_paged then begin
      (* the touch (and any host-side migration stall) happens before
         the access, where the hardware would fault *)
      let ps = paged_site e in
      Some
        (fun c addr ->
          paged_touch_site c.mc ps ~addr ~len;
          handle c site addr len "load")
    end
    else None
  in
  match (acquire, ty, slot_of dc d) with
  | None, Ir.I64, Int o ->
    fun c ->
      let addr = rd_a c sa in
      let h = handle c site addr 8 "load" in
      set_i c.iv o (Memspace.ld_i64 h addr)
  | None, Ir.F64, Flt o ->
    fun c ->
      let addr = rd_a c sa in
      let h = handle c site addr 8 "load" in
      Array.unsafe_set c.fv o (Memspace.ld_f64 h addr)
  | None, Ir.I8, Int o ->
    fun c ->
      let addr = rd_a c sa in
      let h = handle c site addr 1 "load" in
      set_i c.iv o (Int64.of_int (Memspace.ld_u8 h addr))
  | Some acq, Ir.I64, Int o ->
    fun c ->
      let addr = rd_a c sa in
      let h = acq c addr in
      set_i c.iv o (Memspace.ld_i64 h addr)
  | Some acq, Ir.F64, Flt o ->
    fun c ->
      let addr = rd_a c sa in
      let h = acq c addr in
      Array.unsafe_set c.fv o (Memspace.ld_f64 h addr)
  | Some acq, Ir.I8, Int o ->
    fun c ->
      let addr = rd_a c sa in
      let h = acq c addr in
      set_i c.iv o (Int64.of_int (Memspace.ld_u8 h addr))
  | _ -> assert false (* the layout gives f64 loads a Flt slot, others Int *)

(* Logged stores, the shard machines' code (parallel engine): identical
   to the sequential paths below except that the order-sensitive
   dirty-span bookkeeping is appended to the shard's private log (the
   Bytes write itself happens immediately) for replay at the join. Shards
   only exist in Split mode
   under the explicit backend, so there is no inspector-executor
   tracking or paged touch here. Order, as in the tree engine: address,
   (sanitizer), value, then the store with its span check. *)
and decode_store_log dc ty a v : cinstr =
  let sa = asrc dc a in
  let site = handle_site dc.env in
  let log c =
    match c.mc.shard_log with Some l -> l | None -> assert false
  in
  let san c addr len =
    let mc = c.mc in
    match mc.san with
    | Some s -> Sanitizer.on_store s ~addr ~len ~fn:mc.cur_fn ~kernel:mc.in_kernel
    | None -> ()
  in
  match (dc.env.d_san, ty) with
  | false, Ir.F64 ->
    let sv = fsrc dc v in
    fun c ->
      let addr = rd_a c sa in
      let x = rd_f c sv in
      Memspace.st_f64_log (log c) (handle c site addr 8 "store") addr x
  | false, Ir.I64 ->
    let sv = isrc dc v in
    fun c ->
      let addr = rd_a c sa in
      let x = rd_i c sv in
      Memspace.st_i64_log (log c) (handle c site addr 8 "store") addr x
  | false, Ir.I8 ->
    let sv = isrc dc v in
    fun c ->
      let addr = rd_a c sa in
      let x = Int64.to_int (rd_i c sv) land 0xff in
      Memspace.st_u8_log (log c) (handle c site addr 1 "store") addr x
  | true, Ir.F64 ->
    let sv = fsrc dc v in
    fun c ->
      let addr = rd_a c sa in
      san c addr 8;
      let x = rd_f c sv in
      Memspace.st_f64_log (log c) (handle c site addr 8 "store") addr x
  | true, Ir.I64 ->
    let sv = isrc dc v in
    fun c ->
      let addr = rd_a c sa in
      san c addr 8;
      let x = rd_i c sv in
      Memspace.st_i64_log (log c) (handle c site addr 8 "store") addr x
  | true, Ir.I8 ->
    let sv = isrc dc v in
    fun c ->
      let addr = rd_a c sa in
      san c addr 1;
      let x = Int64.to_int (rd_i c sv) land 0xff in
      Memspace.st_u8_log (log c) (handle c site addr 1 "store") addr x

and decode_store_seq dc ty a v : cinstr =
  let e = dc.env in
  let sa = asrc dc a in
  let site = handle_site e in
  let len = match ty with Ir.I8 -> 1 | _ -> 8 in
  if e.d_mode = Inspector_executor then begin
    (* Tracked (inspector-executor) path: when the cached handle is
       valid, tracking reuses its base (no index lookup). On a cache
       miss, fall back to the tree engine's checked store so the fault
       order (track's wild-pointer fault, value confusion, span overrun)
       is preserved exactly, then warm the cache. *)
    let track c addr =
      let h = Array.unsafe_get c.hs site in
      let hit = Memspace.h_valid h c.sp addr len in
      (match c.mc.track_units with
      | Some tbl ->
        if hit then track_store_h c.mc tbl (Memspace.handle_base h)
        else track_store c.mc c.sp tbl addr
      | None -> ());
      hit
    in
    let miss c addr =
      Array.unsafe_set c.hs site (Memspace.acquire_handle c.sp addr len "store")
    in
    match ty with
    | Ir.F64 ->
      let sv = fsrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let hit = track c addr in
        let x = rd_f c sv in
        if hit then Memspace.st_f64 (Array.unsafe_get c.hs site) addr x
        else begin
          Memspace.store_f64 c.sp addr x;
          miss c addr
        end
    | Ir.I64 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let hit = track c addr in
        let x = rd_i c sv in
        if hit then Memspace.st_i64 (Array.unsafe_get c.hs site) addr x
        else begin
          Memspace.store_i64 c.sp addr x;
          miss c addr
        end
    | Ir.I8 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let hit = track c addr in
        let x = Int64.to_int (rd_i c sv) land 0xff in
        if hit then Memspace.st_u8 (Array.unsafe_get c.hs site) addr x
        else begin
          Memspace.store_u8 c.sp addr x;
          miss c addr
        end
  end
  else begin
    (* The sanitizer's dirty-bit update and the paged touch (with any
       host-side migration stall) run where the tree engine runs them:
       after the address, before the value. *)
    let pre : (ctx -> int -> unit) option =
      if e.d_san then
        Some
          (fun c addr ->
            let mc = c.mc in
            match mc.san with
            | Some s ->
              Sanitizer.on_store s ~addr ~len ~fn:mc.cur_fn ~kernel:mc.in_kernel
            | None -> ())
      else if e.d_paged then begin
        let ps = paged_site e in
        Some (fun c addr -> paged_touch_site c.mc ps ~addr ~len)
      end
      else None
    in
    match (pre, ty) with
    | None, Ir.F64 ->
      let sv = fsrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let x = rd_f c sv in
        Memspace.st_f64 (handle c site addr 8 "store") addr x
    | None, Ir.I64 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let x = rd_i c sv in
        Memspace.st_i64 (handle c site addr 8 "store") addr x
    | None, Ir.I8 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        let x = Int64.to_int (rd_i c sv) land 0xff in
        Memspace.st_u8 (handle c site addr 1 "store") addr x
    | Some p, Ir.F64 ->
      let sv = fsrc dc v in
      fun c ->
        let addr = rd_a c sa in
        p c addr;
        let x = rd_f c sv in
        Memspace.st_f64 (handle c site addr 8 "store") addr x
    | Some p, Ir.I64 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        p c addr;
        let x = rd_i c sv in
        Memspace.st_i64 (handle c site addr 8 "store") addr x
    | Some p, Ir.I8 ->
      let sv = isrc dc v in
      fun c ->
        let addr = rd_a c sa in
        p c addr;
        let x = Int64.to_int (rd_i c sv) land 0xff in
        Memspace.st_u8 (handle c site addr 1 "store") addr x
  end

and decode_term dc (t : Ir.terminator) : ctx -> int =
  match t with
  | Ir.Br b -> fun _ -> b
  | Ir.Cbr (Ir.Reg r, b1, b2) when Option.is_some (folded_def dc r) -> (
    (* A comparison fused into its branch: no 0/1 result at all. *)
    match folded_def dc r with
    | Some (Cond (Ir.Binop (_, op, a, b))) -> (
      match op with
      | Ir.Lt ->
        let sb = isrc dc b in
        let sa = isrc dc a in
        fun c -> let y = rd_i c sb in let x = rd_i c sa in if x < y then b1 else b2
      | Ir.Le ->
        let sb = isrc dc b in
        let sa = isrc dc a in
        fun c -> let y = rd_i c sb in let x = rd_i c sa in if x <= y then b1 else b2
      | Ir.Gt ->
        let sb = isrc dc b in
        let sa = isrc dc a in
        fun c -> let y = rd_i c sb in let x = rd_i c sa in if x > y then b1 else b2
      | Ir.Ge ->
        let sb = isrc dc b in
        let sa = isrc dc a in
        fun c -> let y = rd_i c sb in let x = rd_i c sa in if x >= y then b1 else b2
      | Ir.Eq | Ir.Ne ->
        let sb = isrc dc b in
        let sa = isrc dc a in
        fun c -> let y = rd_i c sb in let x = rd_i c sa in if int_cmp op x y then b1 else b2
      | _ ->
        let sb = fsrc dc b in
        let sa = fsrc dc a in
        fun c -> let y = rd_f c sb in let x = rd_f c sa in if flt_cmp op x y then b1 else b2)
    | Some (Alias (Int o)) -> fun c -> if get_i c.iv o <> 0L then b1 else b2
    | _ -> (
      let sv = isrc dc (Ir.Reg r) in
      fun c -> if rd_i c sv <> 0L then b1 else b2))
  | Ir.Cbr (v, b1, b2) ->
    let sv = isrc dc v in
    fun c -> if rd_i c sv <> 0L then b1 else b2
  | Ir.Ret None ->
    fun c ->
      c.ret <- None;
      -1
  | Ir.Ret (Some v) ->
    let fv = bsrc dc v in
    fun c ->
      c.ret <- Some (fv c);
      -1

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Prepared programs                                                    *)

let unreachable_block = { runs = [||]; ct = (fun _ -> assert false) }

let ill_formed (f : Ir.func) =
  Exec_error
    (Printf.sprintf
       "%s: ill-formed IR: a register is defined twice, out of range, or used \
        where its definition does not dominate"
       f.Ir.fname)

(* Decode [m] for [config]'s variant. Every function gets its cfunc
   first, so a body can resolve any callee or kernel while it is decoded;
   then the bodies fill their block arrays. A function the closure
   engines refuse keeps what refusing it raised in [cerr]. *)
let prepare (config : config) (m : Ir.modul) : program =
  let funcs = Hashtbl.create 32 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.Ir.fname f) m.Ir.funcs;
  let split = config.mode = Split in
  let env =
    {
      d_mode = config.mode;
      d_explicit = split && config.backend = Mem_backend.Explicit;
      d_san = config.sanitize && split && config.backend = Mem_backend.Explicit;
      d_paged = split && config.backend = Mem_backend.Paged;
      d_funcs = funcs;
      d_kernels = Hashtbl.create 8;
      d_nhandle = 0;
      d_ngaddr = 0;
      d_npaged = 0;
    }
  in
  let pcode = Hashtbl.create 32 and plog = Hashtbl.create 8 in
  let analyses = Hashtbl.create 32 in
  (* bodies to decode, newest first: (variant table, logged?, cfunc) *)
  let bodies = ref [] in
  let shell (f : Ir.func) =
    let refused e =
      let lay = { reg = [||]; promo = Hashtbl.create 1; nbox = 0; nint = 0; nflt = 0 } in
      { cfn = f; cblocks = [||]; lay; cerr = Some e }
    in
    let cf =
      match analyze_func f with
      | a when a.fa_ssa ->
        let nblocks = Array.length f.Ir.blocks in
        let cf =
          {
            cfn = f;
            cblocks = Array.make nblocks unreachable_block;
            lay = layout_func f a;
            cerr = None;
          }
        in
        Hashtbl.replace analyses f.Ir.fname a;
        bodies := (pcode, false, cf) :: !bodies;
        cf
      | _ -> refused (ill_formed f)
      | exception e -> refused e
    in
    Hashtbl.replace pcode f.Ir.fname cf
  in
  (* the logged-store copy of [f] and of every CPU function it calls *)
  let rec logged (f : Ir.func) =
    if not (Hashtbl.mem plog f.Ir.fname) then begin
      let cf = Hashtbl.find pcode f.Ir.fname in
      let cf = { cf with cblocks = Array.copy cf.cblocks } in
      Hashtbl.replace plog f.Ir.fname cf;
      if Option.is_none cf.cerr then bodies := (plog, true, cf) :: !bodies;
      Ir.iter_instrs
        (fun _ -> function
          | Ir.Call (_, name, _) -> (
            match Hashtbl.find_opt funcs name with
            | Some g when g.Ir.fkind = Ir.Cpu -> logged g
            | _ -> ())
          | _ -> ())
        f
    end
  in
  let closures = config.engine <> Tree_walk in
  if closures then List.iter shell m.Ir.funcs;
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Kernel then begin
        let kcode = if closures then Hashtbl.find_opt pcode f.Ir.fname else None in
        let kshard =
          match kcode with
          | Some { cerr = None; _ } when config.engine = Parallel -> (
            (* a kernel the check cannot analyse runs sequentially, where
               decoding it faults as under [Closures] *)
            match kernel_shardable ~funcs f with
            | Some gs ->
              logged f;
              Some (gs, Hashtbl.find plog f.Ir.fname)
            | None -> None
            | exception _ -> None)
          | _ -> None
        in
        let krw =
          if not env.d_san then None
          else
            match Modref.kernel_rw f with rw -> Some rw | exception _ -> None
        in
        Hashtbl.replace env.d_kernels f.Ir.fname { kf = f; kcode; kshard; krw }
      end)
    m.Ir.funcs;
  List.iter
    (fun (code, log, cf) ->
      let a = Hashtbl.find analyses cf.cfn.Ir.fname in
      let fs = fold_state cf.lay in
      let dc = { env; code; log; lay = cf.lay; folded = fs.folded } in
      Array.iteri
        (fun bi b ->
          if a.fa_reach.(bi) then
            cf.cblocks.(bi) <- decode_block dc a.fa_uses fs bi b)
        cf.cfn.Ir.blocks)
    (List.rev !bodies);
  {
    pm = m;
    pv = variant_of config;
    pfuncs = funcs;
    pcode;
    plog;
    pkernels = env.d_kernels;
    nhandle = env.d_nhandle;
    ngaddr = env.d_ngaddr;
    npaged = env.d_npaged;
  }

(* Build a machine for [p] and run [main] to its end or its first fault.
   The machine survives a fault: [result_of] can then read the state at
   the point the exception left the program. *)
let execute (config : config) (p : program) =
  if variant_of config <> p.pv then
    invalid_arg
      "Interp.run_program: the config's mode, backend, sanitize or engine \
       differs from the program's";
  let host =
    Memspace.create ~name:"host" ~range_lo:0x10_0000 ~range_hi:0x4000_0000_00
  in
  let trace = Trace.create ~enabled:config.trace () in
  (* One sanitizer instance shared by the driver, run-time and
     interpreter hooks. Only the Split mode has two memories to keep
     coherent; the oracle modes have nothing to check. *)
  let sanitizer =
    (* the sanitizer checks explicit-copy coherence; under the paged
       backend there is one memory and nothing to keep coherent *)
    if
      config.sanitize && config.mode = Split
      && config.backend = Mem_backend.Explicit
    then Some (Sanitizer.create ~dev_lo:0x4000_0000_00 ())
    else None
  in
  let dev =
    Device.create ~trace
      ?faults:(Option.map Faults.make config.faults)
      ?sanitizer config.cost
  in
  let rt =
    Runtime.create ~dirty_spans:config.dirty_spans ~paranoid:config.paranoid
      ~host ~dev ()
  in
  let paged =
    match (config.mode, config.backend) with
    | Split, Mem_backend.Paged -> Some (Paged.create ~dev config.cost)
    | _ -> None
  in
  let mc =
    {
      prog = p;
      host;
      dev;
      rt;
      mode = config.mode;
      engine = config.engine;
      cost = config.cost;
      globals_host = Hashtbl.create 16;
      out = Buffer.create 256;
      now = 0.0;
      pending_insts = 0;
      cpu_insts = 0;
      kernel_insts = 0;
      in_kernel = false;
      fuel = config.fuel;
      track_units = None;
      track_threshold = max_int;
      profile_on = config.profile;
      profile_counts = Hashtbl.create 16;
      cur_fn = "<toplevel>";
      paged;
      san = sanitizer;
      handles = Array.make p.nhandle Memspace.null_handle;
      gcells = Array.make (3 * p.ngaddr) (-1);
      psites = Array.init p.npaged (fun _ -> Paged.site ());
      jobs =
        (match config.engine with
        | Parallel ->
          if config.jobs > 0 then min config.jobs Pool.max_jobs
          else Pool.default_jobs ()
        | Closures | Tree_walk -> 1);
      shards = [||];
      shard_log = None;
      shard_prints = [];
    }
  in
  let outcome =
    match
      load_globals mc;
      let main =
        match Hashtbl.find_opt p.pfuncs "main" with
        | Some f -> f
        | None -> error "module has no main function"
      in
      let res = call_func mc main [||] in
      flush_time mc;
      mc.now <- Device.sync mc.dev ~now:mc.now;
      (match paged with
      | Some pg when config.paranoid -> (
        match Paged.check_invariants pg with
        | Ok () -> ()
        | Error e -> error "paged accounting invariant violated: %s" e)
      | _ -> ());
      res
    with
    | res -> Ok res
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (mc, trace, outcome)

let result_of mc trace exit_code =
  let st = Device.stats mc.dev in
  {
    exit_code;
    output = Buffer.contents mc.out;
    wall = mc.now;
    cpu_compute = float_of_int mc.cpu_insts *. mc.cost.Cost_model.cpu_cycle;
    gpu = st.Device.kernel_cycles;
    comm = st.Device.comm_cycles;
    sync = st.Device.sync_cycles;
    cpu_insts = mc.cpu_insts;
    kernel_insts = mc.kernel_insts;
    dev_stats = st;
    rt_stats = mc.rt.Runtime.stats;
    leaks = Runtime.leak_report mc.rt;
    dev_peak_bytes = Memspace.peak_bytes mc.dev.Device.mem;
    trace;
    profile =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) mc.profile_counts []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    san_report = Option.map Sanitizer.report mc.san;
    page_stats = Option.map Paged.stats mc.paged;
  }

let exit_code_of = function Some (VI i) -> i | _ -> 0L

(* The program's fault always wins: should reading the faulted machine
   raise too, the original exception is re-raised instead. *)
let run_program_to_fault ?(config = default_config) p =
  match execute config p with
  | mc, trace, Ok res -> (result_of mc trace (exit_code_of res), None)
  | mc, trace, Error (e, bt) -> (
    match result_of mc trace 0L with
    | r -> (r, Some e)
    | exception _ -> Printexc.raise_with_backtrace e bt)

let run_program ?(config = default_config) p =
  match execute config p with
  | mc, trace, Ok res -> result_of mc trace (exit_code_of res)
  | _, _, Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run_to_fault ?(config = default_config) m =
  run_program_to_fault ~config (prepare config m)

let run ?(config = default_config) m = run_program ~config (prepare config m)
