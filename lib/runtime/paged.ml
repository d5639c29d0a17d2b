(* The paged-memory backend: a single shared address space in which the
   host and the device touch the same bytes, and the simulator charges
   touch-driven page-granular migration — the managed-memory model of
   CUDA unified memory on PCIe or a Grace-Hopper-style coherent link,
   as opposed to the explicit-copy model CGCM's run-time manages.

   Under this backend CGCM's map/unmap/release intrinsics are no-ops:
   correctness is free, and *all* communication cost comes from page
   faults. Every page (Cost_model.page_bytes) is resident on exactly one
   side at a time:

   - first touch places the page on the toucher's side for free (the
     populate-on-first-touch of cudaMallocManaged);
   - touching a page already resident on your side is free;
   - touching a page resident on the other side is a fault: the page
     migrates, costing page_fault_cycles + page_bytes / bandwidth.

   Device-side faults happen *inside* a kernel, so their cost
   accumulates and is flushed into the device timeline when the launch
   ends ({!flush_launch}); the host keeps running meanwhile, exactly
   like the asynchrony of the explicit model. Host-side faults are
   synchronous: the CPU stalls for outstanding kernels (the migrated
   page may hold their output), then pays the migration before the
   access completes.

   {!touch} walks the page table and is the only code that changes a
   page's residence. The interpreter's load/store sites call
   {!touch_site} instead: each site keeps an inline cache of the page it
   last touched, the side it touched it from and the table's migration
   generation [gen]. [fault] bumps [gen] on every migration, so a cached
   page is still resident on the cached side exactly while [gen] is
   unchanged; a hit then only counts the touch. First-touch populates
   and [place_host] add pages that are not in the table yet, which can
   never be a cached page, so they leave [gen] alone. *)

type side = Host | Device_side

type stats = {
  mutable touches : int;  (* touch events, both sides *)
  mutable touched_pages : int;  (* distinct pages ever touched *)
  mutable faults_to_dev : int;  (* pages migrated host -> device *)
  mutable faults_to_host : int;  (* pages migrated device -> host *)
  mutable bytes_to_dev : int;
  mutable bytes_to_host : int;
}

type t = {
  page_bytes : int;
  fault_cost : float;  (* full per-page migration cost, both directions *)
  table : (int, side) Hashtbl.t;
      (* page index -> residence; starts small, because a bucket array
         over 256 words would go to the major heap on every run *)
  stats : stats;
  dev : Cgcm_gpusim.Device.t;
  mutable pending_cycles : float;  (* device faults awaiting launch end *)
  mutable pending_faults : int;
  mutable last_host_fault_pages : int;
      (* pages the most recent host-side faulting touch migrated; read
         by the interpreter's accounting hook right after the touch *)
  mutable gen : int;  (* bumped by every migration; validates site caches *)
}

let create ~dev (cost : Cgcm_gpusim.Cost_model.t) =
  let page_bytes = max 1 cost.Cgcm_gpusim.Cost_model.page_bytes in
  {
    page_bytes;
    fault_cost =
      cost.Cgcm_gpusim.Cost_model.page_fault_cycles
      +. float_of_int page_bytes
         /. cost.Cgcm_gpusim.Cost_model.transfer_bytes_per_cycle;
    table = Hashtbl.create 16;
    stats =
      {
        touches = 0;
        touched_pages = 0;
        faults_to_dev = 0;
        faults_to_host = 0;
        bytes_to_dev = 0;
        bytes_to_host = 0;
      };
    dev;
    pending_cycles = 0.0;
    pending_faults = 0;
    last_host_fault_pages = 0;
    gen = 0;
  }

let stats t = t.stats

(* Migrate one page to [target], charging the toucher's side. *)
let fault t page target =
  Hashtbl.replace t.table page target;
  t.gen <- t.gen + 1;
  (match target with
  | Device_side ->
    t.stats.faults_to_dev <- t.stats.faults_to_dev + 1;
    t.stats.bytes_to_dev <- t.stats.bytes_to_dev + t.page_bytes
  | Host ->
    t.stats.faults_to_host <- t.stats.faults_to_host + 1;
    t.stats.bytes_to_host <- t.stats.bytes_to_host + t.page_bytes);
  t.fault_cost

let touch_page t page target =
  match Hashtbl.find_opt t.table page with
  | Some s when s = target -> 0.0
  | Some _ -> fault t page target
  | None ->
    (* first touch: populate on the toucher's side, free *)
    Hashtbl.replace t.table page target;
    t.stats.touched_pages <- t.stats.touched_pages + 1;
    0.0

(* [touch t ~kernel ~addr ~len] notes an access to [addr, addr+len) and
   returns the cycles the *host* must pay right now (always 0.0 for
   kernel-side touches, whose cost lands in the pending pool). *)
let touch t ~kernel ~addr ~len =
  t.stats.touches <- t.stats.touches + 1;
  let target = if kernel then Device_side else Host in
  let cost = ref 0.0 and faulted = ref 0 in
  for p = addr / t.page_bytes to (addr + max 1 len - 1) / t.page_bytes do
    let c = touch_page t p target in
    if c > 0.0 then begin
      cost := !cost +. c;
      incr faulted
    end
  done;
  if !faulted = 0 then 0.0
  else if kernel then begin
    t.pending_cycles <- t.pending_cycles +. !cost;
    t.pending_faults <- t.pending_faults + !faulted;
    0.0
  end
  else begin
    t.last_host_fault_pages <- !faulted;
    !cost
  end

(* A load/store site's inline cache: the byte range [lo, hi) of the page
   it last touched, the side it touched it from, and [gen] at that time.
   [gen = -1] never matches, so a fresh site misses. *)
type site = {
  mutable lo : int;
  mutable hi : int;
  mutable kernel : bool;
  mutable site_gen : int;
}

let site () = { lo = 0; hi = 0; kernel = false; site_gen = -1 }

(* [touch] through a site's cache. A hit — no migration since the site
   cached its page, same side, access inside that page — is a touch
   [touch] would charge nothing for, so it only counts it. A miss runs
   [touch] and caches the access's first page, which the walk has just
   left resident on the toucher's side. *)
let touch_site t s ~kernel ~addr ~len =
  if
    s.site_gen = t.gen && s.kernel = kernel && addr >= s.lo && addr < s.hi
    && addr + len <= s.hi
  then begin
    t.stats.touches <- t.stats.touches + 1;
    0.0
  end
  else begin
    let cycles = touch t ~kernel ~addr ~len in
    s.lo <- addr / t.page_bytes * t.page_bytes;
    s.hi <- s.lo + t.page_bytes;
    s.kernel <- kernel;
    s.site_gen <- t.gen;
    cycles
  end

(* Pre-place pages on the host without cost: module globals carry
   initial values written at load time, so their backing pages are
   host-populated before main runs. *)
let place_host t ~addr ~len =
  if len > 0 then
    for p = addr / t.page_bytes to (addr + len - 1) / t.page_bytes do
      if not (Hashtbl.mem t.table p) then begin
        Hashtbl.replace t.table p Host;
        t.stats.touched_pages <- t.stats.touched_pages + 1
      end
    done

(* Flush device-side fault time accumulated during a kernel into the
   device timeline and the transfer accounting; called when the launch's
   driver work is done. Returns the host clock unchanged — device faults
   extend the device's busy window, not the CPU's. *)
let flush_launch t =
  if t.pending_cycles > 0.0 then begin
    let dev = t.dev in
    let st = Cgcm_gpusim.Device.stats dev in
    let start = dev.Cgcm_gpusim.Device.busy_until in
    dev.Cgcm_gpusim.Device.busy_until <- start +. t.pending_cycles;
    st.Cgcm_gpusim.Device.comm_cycles <-
      st.Cgcm_gpusim.Device.comm_cycles +. t.pending_cycles;
    st.Cgcm_gpusim.Device.htod_count <-
      st.Cgcm_gpusim.Device.htod_count + t.pending_faults;
    st.Cgcm_gpusim.Device.htod_bytes <-
      st.Cgcm_gpusim.Device.htod_bytes + (t.pending_faults * t.page_bytes);
    Cgcm_gpusim.Trace.record dev.Cgcm_gpusim.Device.trace Cgcm_gpusim.Trace.Htod
      ~start
      ~finish:dev.Cgcm_gpusim.Device.busy_until
      ~label:"page-in"
      ~bytes:(t.pending_faults * t.page_bytes);
    t.pending_cycles <- 0.0;
    t.pending_faults <- 0
  end

(* Host-side fault accounting once the caller has synced the device and
   knows when the migration starts. *)
let note_host_migration t ~start ~cycles ~pages =
  let st = Cgcm_gpusim.Device.stats t.dev in
  st.Cgcm_gpusim.Device.comm_cycles <-
    st.Cgcm_gpusim.Device.comm_cycles +. cycles;
  st.Cgcm_gpusim.Device.dtoh_count <- st.Cgcm_gpusim.Device.dtoh_count + pages;
  st.Cgcm_gpusim.Device.dtoh_bytes <-
    st.Cgcm_gpusim.Device.dtoh_bytes + (pages * t.page_bytes);
  Cgcm_gpusim.Trace.record t.dev.Cgcm_gpusim.Device.trace Cgcm_gpusim.Trace.Dtoh
    ~start ~finish:(start +. cycles) ~label:"page-out"
    ~bytes:(pages * t.page_bytes)

(* The accounting invariants: every migration moves exactly one page,
   every page in the table was counted once when it was first touched,
   and no device fault time is left unflushed once no kernel runs. *)
let check_invariants t =
  let s = t.stats in
  if s.bytes_to_dev <> s.faults_to_dev * t.page_bytes then
    Error
      (Printf.sprintf "bytes_to_dev %d <> faults_to_dev %d * page_bytes %d"
         s.bytes_to_dev s.faults_to_dev t.page_bytes)
  else if s.bytes_to_host <> s.faults_to_host * t.page_bytes then
    Error
      (Printf.sprintf "bytes_to_host %d <> faults_to_host %d * page_bytes %d"
         s.bytes_to_host s.faults_to_host t.page_bytes)
  else if s.touched_pages <> Hashtbl.length t.table then
    Error
      (Printf.sprintf "touched_pages %d <> %d pages in the table"
         s.touched_pages (Hashtbl.length t.table))
  else if t.pending_cycles <> 0.0 || t.pending_faults <> 0 then
    Error
      (Printf.sprintf "%d device faults (%g cycles) left unflushed"
         t.pending_faults t.pending_cycles)
  else Ok ()

let fault_cost t = t.fault_cost
let last_host_fault_pages t = t.last_host_fault_pages
let pending t = (t.pending_cycles, t.pending_faults)
