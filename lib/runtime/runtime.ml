(* The CGCM run-time library (Section 3 of the paper).

   The library tracks *allocation units* — contiguous regions allocated as
   a single unit (heap blocks, globals, escaping stack variables) — in a
   self-balancing tree map indexed by base address, and translates CPU
   pointers into equivalent GPU pointers:

     map      copy the unit to the device if needed; bump its refcount;
              return the translated pointer (Algorithm 1).
     unmap    copy the unit back to the host unless the host copy is
              already current in this epoch or the unit is read-only
              (Algorithm 2).
     release  drop a reference; free device memory at zero (Algorithm 3).

   The *Array variants operate on doubly indirect pointers: each CPU
   pointer stored in the unit is translated into a new device-side array,
   which is what the kernel receives.

   An epoch counter increments at every kernel launch; unmap copies a unit
   at most once per epoch, because only kernels mutate device memory.

   The run-time is also the recovery layer for a fallible driver
   (Cgcm_gpusim.Faults / Cost_model.device_mem_bytes): on OOM it evicts
   zero-refcount resident units (writing dirty ones back first) and
   retries; on transfer failure it retries with backoff accounted on the
   device timeline. Failures that survive recovery raise {!Runtime_error}
   carrying the structured taxonomy of [Cgcm_support.Errors]. *)

module Memspace = Cgcm_memory.Memspace
module Avl = Cgcm_support.Avl_map
module Errors = Cgcm_support.Errors
module Device = Cgcm_gpusim.Device
module Cost_model = Cgcm_gpusim.Cost_model
module Trace = Cgcm_gpusim.Trace
module Sanitizer = Cgcm_sanitizer.Sanitizer

exception Runtime_error of Errors.runtime_error

type alloc_info = {
  base : int;
  size : int;
  is_global : bool;
  global_name : string option;
  read_only : bool;
  from_alloca : bool;
  mutable devptr : int option;
  mutable refcount : int;
  mutable epoch : int;  (* last epoch in which the host copy was updated *)
  (* state for the array variants *)
  mutable arr_shadow : int option;  (* device array of translated pointers *)
  mutable arr_refcount : int;
  mutable arr_elems : int list;  (* host pointers translated by map_array *)
  mutable evicted : bool;  (* lost its device copy to memory pressure *)
}

type stats = {
  mutable map_calls : int;
  mutable unmap_calls : int;
  mutable release_calls : int;
  mutable map_array_calls : int;
  mutable skipped_unmaps : int;  (* epoch optimisation hits *)
  mutable skipped_copies : int;  (* map found the unit already resident *)
  mutable partial_copies : int;  (* transfers narrowed to dirty spans *)
  mutable bytes_saved : int;  (* unit bytes not moved thanks to dirty spans *)
  mutable evictions : int;  (* units whose device copy was revoked on OOM *)
  mutable retries : int;  (* device calls re-attempted after a fault *)
  mutable cpu_fallbacks : int;  (* kernels degraded to CPU execution *)
}

type t = {
  host : Memspace.t;
  dev : Device.t;
  mutable info : alloc_info Avl.t;
  mutable global_epoch : int;
  stats : stats;
  (* Transfer only dirty spans instead of whole allocation units. Off
     reproduces the paper's whole-unit protocol; the differential tests
     assert the dirty path never moves more bytes than that baseline. *)
  dirty_spans : bool;
  (* Re-run check_invariants after every run-time call (tests). *)
  paranoid : bool;
  globals_by_name : (string, int) Hashtbl.t;  (* global name -> host base *)
  (* wall-clock hook: the interpreter threads its clock through us *)
  mutable now : float;
}

let create ?(dirty_spans = true) ?(paranoid = false) ~host ~dev () =
  {
    host;
    dev;
    info = Avl.empty;
    global_epoch = 0;
    stats =
      {
        map_calls = 0;
        unmap_calls = 0;
        release_calls = 0;
        map_array_calls = 0;
        skipped_unmaps = 0;
        skipped_copies = 0;
        partial_copies = 0;
        bytes_saved = 0;
        evictions = 0;
        retries = 0;
        cpu_fallbacks = 0;
      };
    dirty_spans;
    paranoid;
    globals_by_name = Hashtbl.create 16;
    now = 0.0;
  }

let charge t cycles = t.now <- t.now +. cycles

(* The coherence shadow (when auditing) lives on the device handle so
   the driver's transfer/free hooks and ours observe the same instance.
   Every hook below fires only after the mirrored operation committed,
   keeping the shadow an independent replica rather than a prediction. *)
let with_san t f =
  match t.dev.Device.sanitizer with Some s -> f s | None -> ()

let runtime_call_cost t =
  charge t t.dev.Device.cost.Cost_model.runtime_call_overhead

(* ------------------------------------------------------------------ *)
(* Structured failure                                                  *)

let snapshot (i : alloc_info) : Errors.unit_snapshot =
  {
    Errors.u_base = i.base;
    u_size = i.size;
    u_refcount = i.refcount;
    u_arr_refcount = i.arr_refcount;
    u_epoch = i.epoch;
    u_devptr = i.devptr;
    u_global = i.global_name;
  }

let alloc_map_snapshot t =
  List.rev (Avl.fold (fun _ i acc -> snapshot i :: acc) t.info [])

let fail t ~op ?addr ?unit_ ?device reason =
  raise
    (Runtime_error
       {
         Errors.op;
         addr;
         reason;
         unit_;
         device;
         alloc_map = alloc_map_snapshot t;
       })

let find_info t ~op ptr =
  match Avl.greatest_leq ptr t.info with
  | Some (_, info) when ptr >= info.base && ptr < info.base + info.size ->
    info
  | _ ->
    fail t ~op ~addr:ptr
      "no allocation unit contains this pointer (missing registration?)"

let lookup_unit t ptr = find_info t ~op:"lookup" ptr

(* ------------------------------------------------------------------ *)
(* Registration: heap, globals, escaping allocas                       *)

let register t info = t.info <- Avl.add info.base info t.info

let mk_info ?(is_global = false) ?(global_name = None) ?(read_only = false)
    ?(from_alloca = false) ~base ~size () =
  {
    base;
    size;
    is_global;
    global_name;
    read_only;
    from_alloca;
    devptr = None;
    refcount = 0;
    epoch = 0;
    arr_shadow = None;
    arr_refcount = 0;
    arr_elems = [];
    evicted = false;
  }

(* ------------------------------------------------------------------ *)
(* Recovery: transfer retry with backoff                               *)

(* A flaky DMA engine is retried a bounded number of times; each failed
   attempt charges an escalating backoff to the device timeline before
   the next try (the paper's driver never fails; production ones do). *)
let max_transfer_retries = 8

type direction = Htod | Dtoh

let rec memcpy t ~dir ~label ~host_addr ~dev_addr ~len ~attempt =
  let call () =
    match dir with
    | Htod ->
      Device.memcpy_h_to_d ~label t.dev ~now:t.now ~host:t.host ~host_addr
        ~dev_addr ~len
    | Dtoh ->
      Device.memcpy_d_to_h ~label t.dev ~now:t.now ~host:t.host ~host_addr
        ~dev_addr ~len
  in
  match call () with
  | now -> t.now <- now
  | exception Errors.Device_error (Errors.Transfer_failed _ as fault) ->
    if attempt >= max_transfer_retries then
      fail t
        ~op:(match dir with Htod -> "memcpyHtoD" | Dtoh -> "memcpyDtoH")
        ~addr:host_addr ~device:fault
        (Printf.sprintf "transfer of %d bytes failed %d times; giving up" len
           attempt)
    else begin
      t.stats.retries <- t.stats.retries + 1;
      (* Backoff accounted on the device timeline: the bus is considered
         busy recovering, and the CPU waits it out. *)
      let backoff =
        t.dev.Device.cost.Cost_model.transfer_latency *. float_of_int attempt
      in
      let start = t.now in
      t.now <- t.now +. backoff;
      t.dev.Device.busy_until <- Float.max t.dev.Device.busy_until t.now;
      Trace.record t.dev.Device.trace Trace.Sync ~start ~finish:t.now
        ~label:"xfer-retry" ~bytes:0;
      memcpy t ~dir ~label ~host_addr ~dev_addr ~len ~attempt:(attempt + 1)
    end

let memcpy t ~dir ~label ~host_addr ~dev_addr ~len =
  memcpy t ~dir ~label ~host_addr ~dev_addr ~len ~attempt:1

(* ---- dirty-span transfer planning ----------------------------------

   Given the dirty spans of the source copy, either issue one DMA per
   span or a single DMA over their bounding interval, whichever the cost
   model says is cheaper (per-transfer latency vs extra clean bytes).
   Both plans move no more bytes than the whole-unit copy did, so the
   communication volume results can only improve. *)

let transfer_spans t ~dir ~dev_base ~host_base ~size spans =
  let cost = t.dev.Device.cost in
  let per_span_cycles =
    List.fold_left
      (fun c (_, len) -> c +. Cost_model.transfer_cycles cost len)
      0.0 spans
  in
  let lo = List.fold_left (fun m (off, _) -> min m off) max_int spans in
  let hi = List.fold_left (fun m (off, len) -> max m (off + len)) 0 spans in
  let bounding_cycles = Cost_model.transfer_cycles cost (hi - lo) in
  let plan =
    if per_span_cycles <= bounding_cycles then spans else [ (lo, hi - lo) ]
  in
  let moved = ref 0 in
  List.iter
    (fun (off, len) ->
      moved := !moved + len;
      let label = match dir with Htod -> "HtoD-dirty" | Dtoh -> "DtoH-dirty" in
      memcpy t ~dir ~label ~host_addr:(host_base + off)
        ~dev_addr:(dev_base + off) ~len)
    plan;
  t.stats.partial_copies <- t.stats.partial_copies + 1;
  t.stats.bytes_saved <- t.stats.bytes_saved + (size - !moved)

(* ------------------------------------------------------------------ *)
(* Recovery: eviction of resident units under memory pressure          *)

(* Forced write-back before an eviction — exactly unmap's protocol, so
   the host copy is current before the device copy is destroyed. *)
let write_back t info =
  match info.devptr with
  | Some d when info.epoch <> t.global_epoch && not info.read_only ->
    if not t.dirty_spans then
      memcpy t ~dir:Dtoh ~label:"DtoH-evict" ~host_addr:info.base ~dev_addr:d
        ~len:info.size
    else begin
      (match Memspace.dirty_spans t.dev.Device.mem d with
      | [] -> ()
      | spans ->
        transfer_spans t ~dir:Dtoh ~dev_base:d ~host_base:info.base
          ~size:info.size spans);
      Memspace.clear_dirty t.dev.Device.mem d
    end;
    info.epoch <- t.global_epoch
  | _ -> ()

(* Evict one zero-refcount resident unit (lowest base first — the choice
   only needs to be deterministic). Module globals give their module
   residence back via forget_global, which invalidates cached
   cuModuleGetGlobal addresses; non-globals are simply freed. Returns
   false when nothing is evictable. *)
let evict_one t =
  let victim =
    Avl.fold
      (fun _ i acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if i.refcount = 0 && i.arr_refcount = 0 && i.devptr <> None then
            Some i
          else None)
      t.info None
  in
  match victim with
  | None -> false
  | Some info ->
    write_back t info;
    (match info.devptr with
    | Some d ->
      if info.is_global then
        t.now <-
          Device.forget_global t.dev ~now:t.now (Option.get info.global_name)
      else t.now <- Device.mem_free t.dev ~now:t.now d;
      info.devptr <- None
    | None -> ());
    info.evicted <- true;
    t.stats.evictions <- t.stats.evictions + 1;
    Trace.record t.dev.Device.trace Trace.Sync ~start:t.now ~finish:t.now
      ~label:"evict" ~bytes:info.size;
    true

(* ------------------------------------------------------------------ *)
(* Recovery: device allocation with evict-and-retry                    *)

(* A genuine capacity OOM is only retried after an eviction made room; an
   injected (transient) OOM is also retried blind a few times, because
   the next attempt draws a fresh fate from the fault plan. *)
let max_blind_oom_retries = 4

let dev_alloc t ~op ~addr ~size ~global_name =
  let attempt () =
    match global_name with
    | Some g -> Device.module_get_global t.dev ~now:t.now g
    | None -> Device.mem_alloc t.dev ~now:t.now size
  in
  let rec go blind =
    match attempt () with
    | d, now ->
      t.now <- now;
      d
    | exception Errors.Device_error (Errors.Oom { injected; _ } as fault) ->
      if evict_one t then begin
        t.stats.retries <- t.stats.retries + 1;
        go blind
      end
      else if injected && blind < max_blind_oom_retries then begin
        t.stats.retries <- t.stats.retries + 1;
        charge t t.dev.Device.cost.Cost_model.alloc_overhead;
        go (blind + 1)
      end
      else
        fail t ~op ~addr ~device:fault
          (Printf.sprintf
             "device allocation of %d bytes failed and nothing is evictable"
             size)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Registration (continued)                                            *)

(* Wrapper around malloc/calloc: the interpreter calls this for every heap
   allocation so the run-time knows the dynamic state of the heap. *)
let register_heap t ~base ~size =
  register t (mk_info ~base ~size ());
  with_san t (fun s -> Sanitizer.on_register s ~base ~size ~kind:"heap" ())

(* declareGlobal(name, ptr, size, isReadOnly): called once per global
   before main. Registering addresses at run time side-steps position-
   independent-code and ASLR issues, as the paper notes. *)
let declare_global t ~name ~base ~size ~read_only =
  Device.declare_module_global t.dev ~name ~size;
  Hashtbl.replace t.globals_by_name name base;
  register t
    (mk_info ~is_global:true ~global_name:(Some name) ~read_only ~base ~size ());
  with_san t (fun s ->
      Sanitizer.on_register s ~base ~size ~kind:"global" ~global:name ~read_only
        ())

(* declareAlloca: registration of an escaping stack variable. *)
let declare_alloca t ~base ~size =
  register t (mk_info ~from_alloca:true ~base ~size ());
  with_san t (fun s -> Sanitizer.on_register s ~base ~size ~kind:"alloca" ())

(* The wrapper around free: heap units must not leave the map while still
   mapped on the device. *)
let unregister_heap t ~base =
  (match Avl.find_opt base t.info with
  | Some info when info.refcount > 0 || info.arr_refcount > 0 ->
    fail t ~op:"free" ~addr:base ~unit_:(snapshot info)
      (Printf.sprintf
         "allocation unit freed while still mapped on the device \
          (refcount=%d, arrayRefcount=%d)"
         info.refcount info.arr_refcount)
  | Some info ->
    (match info.devptr with
    | Some d when not info.is_global ->
      t.now <- Device.mem_free t.dev ~now:t.now d;
      info.devptr <- None
    | _ -> ())
  | None -> ());
  t.info <- Avl.remove base t.info;
  with_san t (fun s -> Sanitizer.on_unregister s ~base ~op:"free")

(* Expiry of a declareAlloca registration at scope exit. *)
let expire_alloca t ~base =
  match Avl.find_opt base t.info with
  | Some info ->
    if info.refcount > 0 || info.arr_refcount > 0 then
      fail t ~op:"expireAlloca" ~addr:base ~unit_:(snapshot info)
        (Printf.sprintf
           "stack allocation unit left scope while still mapped — its device \
            copy would dangle (refcount=%d, arrayRefcount=%d)"
           info.refcount info.arr_refcount);
    (match info.devptr with
    | Some d when not info.is_global ->
      t.now <- Device.mem_free t.dev ~now:t.now d;
      info.devptr <- None
    | _ -> ());
    t.info <- Avl.remove base t.info;
    with_san t (fun s -> Sanitizer.on_unregister s ~base ~op:"expireAlloca")
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Invariant checking (paranoid mode)                                  *)

(* Owner-audit marks: each [audit] stamps the device blocks it finds
   owned with a mark no earlier audit used, on any device or domain. *)
let audits = Atomic.make 0

(* Forward half of the consistency check: refcounts non-negative,
   epochs monotone, every devptr/shadow backed by a live device block,
   and every live shadow's elements still registered. Every device block
   found owned is stamped with [mark]. *)
let check_units ~mark t =
  let dev_mem = t.dev.Device.mem in
  let fail_inv info msg =
    fail t ~op:"checkInvariants" ~addr:info.base ~unit_:(snapshot info) msg
  in
  let live_bounds addr =
    match Memspace.unit_bounds dev_mem addr with
    | bounds -> Some bounds
    | exception Memspace.Fault _ -> None
  in
  Avl.iter
    (fun base info ->
      if base <> info.base then fail_inv info "map key differs from unit base";
      if info.refcount < 0 then fail_inv info "negative reference count";
      if info.arr_refcount < 0 then
        fail_inv info "negative array reference count";
      if info.epoch < 0 || info.epoch > t.global_epoch then
        fail_inv info
          (Printf.sprintf "unit epoch %d outside [0, global epoch %d]"
             info.epoch t.global_epoch);
      (match info.devptr with
      | Some d -> (
        match Memspace.mark_live dev_mem d ~mark with
        | Some size when size >= info.size -> ()
        | _ -> (
          (* [live_bounds] only names the block for the message. *)
          match live_bounds d with
          | Some (b, sz) ->
            fail_inv info
              (Printf.sprintf
                 "devptr 0x%x does not cover the unit (device block 0x%x, %d \
                  bytes)"
                 d b sz)
          | None -> fail_inv info "dangling devptr: no live device block"))
      | None -> ());
      if info.arr_refcount > 0 && info.arr_shadow = None then
        fail_inv info "positive array refcount without a shadow array";
      match info.arr_shadow with
      | None -> ()
      | Some s ->
        if Memspace.mark_live dev_mem s ~mark = None then
          fail_inv info "dangling shadow array: no live device block";
        (* While the shadow is live, every translated element must still
           be a registered allocation unit — expiring or unregistering
           one would leave the shadow pointing into recycled memory with
           no unit to re-validate it against. (No refcount claims: map
           promotion hoists the mapArray while the pointees' own
           map/release pairs stay per-launch, so an element's count
           legally touches zero between launches; the next launch's map
           re-validates the translation.) *)
        if info.arr_refcount > 0 then
          List.iter
            (fun p ->
              match Avl.greatest_leq p t.info with
              | Some (_, e) when p >= e.base && p < e.base + e.size -> ()
              | _ ->
                fail_inv info
                  (Printf.sprintf
                     "shadow-array element 0x%x outside every registered unit"
                     p))
            info.arr_elems)
    t.info

(* Run-times sharing one device audit together, so a sibling's block is
   not an orphan. The forward checks stamp every owned block; then one
   in-order walk of the device's block index finds any live driver-heap
   ("dev") block left unstamped. *)
let audit dev rts =
  let mark = Atomic.fetch_and_add audits 1 + 1 in
  List.iter (check_units ~mark) rts;
  Memspace.fold_live
    (fun ~base ~size ~tag ~mark:seen () ->
      if seen <> mark && tag = "dev" then
        raise
          (Runtime_error
             {
               Errors.op = "checkInvariants";
               addr = Some base;
               reason =
                 Printf.sprintf "orphaned device block (%d bytes): leak" size;
               unit_ = None;
               device = None;
               alloc_map = List.concat_map alloc_map_snapshot rts;
             }))
    dev.Device.mem ()

let check_invariants t = audit t.dev [ t ]

let post t = if t.paranoid then check_invariants t

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)

(* Called at every kernel launch. *)
let bump_epoch t =
  t.global_epoch <- t.global_epoch + 1;
  with_san t Sanitizer.on_epoch

(* ------------------------------------------------------------------ *)
(* map / unmap / release (Algorithms 1-3)                              *)

(* Device-resident base of the unit; [fresh] is true when this call
   allocated it (a fresh, zero-filled copy with no valid data yet). *)
let device_base_of t ~op info =
  match info.devptr with
  | Some d -> (d, false)
  | None ->
    let d =
      dev_alloc t ~op ~addr:info.base ~size:info.size
        ~global_name:(if info.is_global then info.global_name else None)
    in
    info.devptr <- Some d;
    (d, true)

let map t ptr =
  t.stats.map_calls <- t.stats.map_calls + 1;
  runtime_call_cost t;
  let info = find_info t ~op:"map" ptr in
  let d, fresh = device_base_of t ~op:"map" info in
  if info.refcount = 0 then begin
    if fresh || not t.dirty_spans then
      (* No valid device copy exists (or the optimisation is off): move
         the whole unit, exactly as Algorithm 1 writes it. *)
      memcpy t ~dir:Htod ~label:"HtoD" ~host_addr:info.base ~dev_addr:d
        ~len:info.size
    else begin
      (* The device copy survived an earlier map/release cycle (globals
         keep their module-resident storage): refresh only the bytes the
         host has written since the last synchronisation. *)
      match Memspace.dirty_spans t.host info.base with
      | [] ->
        t.stats.skipped_copies <- t.stats.skipped_copies + 1;
        t.stats.bytes_saved <- t.stats.bytes_saved + info.size
      | spans ->
        transfer_spans t ~dir:Htod ~dev_base:d ~host_base:info.base
          ~size:info.size spans
    end;
    if t.dirty_spans then begin
      (* Host and device now agree: reset both dirty accumulators so the
         next unmap sees only bytes the kernels actually write. *)
      Memspace.clear_dirty t.host info.base;
      Memspace.clear_dirty t.dev.Device.mem d
    end
  end
  else t.stats.skipped_copies <- t.stats.skipped_copies + 1;
  info.refcount <- info.refcount + 1;
  with_san t (fun s -> Sanitizer.on_map s ~base:info.base ~devptr:d);
  post t;
  d + (ptr - info.base)

let unmap t ptr =
  t.stats.unmap_calls <- t.stats.unmap_calls + 1;
  runtime_call_cost t;
  let info = find_info t ~op:"unmap" ptr in
  (match info.devptr with
  | Some d when info.epoch <> t.global_epoch && not info.read_only ->
    if not t.dirty_spans then
      memcpy t ~dir:Dtoh ~label:"DtoH" ~host_addr:info.base ~dev_addr:d
        ~len:info.size
    else begin
      (match Memspace.dirty_spans t.dev.Device.mem d with
      | [] ->
        (* The kernels never wrote the unit: nothing to copy back. *)
        t.stats.skipped_unmaps <- t.stats.skipped_unmaps + 1;
        t.stats.bytes_saved <- t.stats.bytes_saved + info.size
      | spans ->
        transfer_spans t ~dir:Dtoh ~dev_base:d ~host_base:info.base
          ~size:info.size spans);
      Memspace.clear_dirty t.dev.Device.mem d
    end;
    info.epoch <- t.global_epoch
  | _ -> t.stats.skipped_unmaps <- t.stats.skipped_unmaps + 1);
  with_san t (fun s -> Sanitizer.on_unmap s ~base:info.base);
  post t

let release t ptr =
  t.stats.release_calls <- t.stats.release_calls + 1;
  runtime_call_cost t;
  let info = find_info t ~op:"release" ptr in
  if info.refcount <= 0 then
    fail t ~op:"release" ~addr:ptr ~unit_:(snapshot info)
      "release of an allocation unit whose reference count is already zero";
  info.refcount <- info.refcount - 1;
  (* Shadow refcount drops before the free below, so the free of a
     correctly released unit does not read as premature. *)
  with_san t (fun s -> Sanitizer.on_release s ~base:info.base ~op:"release");
  if info.refcount = 0 && not info.is_global then begin
    match info.devptr with
    | Some d ->
      t.now <- Device.mem_free t.dev ~now:t.now d;
      info.devptr <- None
    | None -> ()
  end;
  post t

(* ------------------------------------------------------------------ *)
(* Array variants: doubly indirect pointers                            *)

let word = 8

let map_array t ptr =
  t.stats.map_array_calls <- t.stats.map_array_calls + 1;
  runtime_call_cost t;
  let info = find_info t ~op:"mapArray" ptr in
  (match info.arr_shadow with
  | Some _ ->
    (* Already translated: take a reference on every element unit so the
       balancing releaseArray keeps refcounts non-negative. *)
    List.iter (fun p -> ignore (map t p)) info.arr_elems
  | None ->
    (* Translate every CPU pointer in the unit into a new device array. *)
    let n = info.size / word in
    let elems = ref [] in
    let translated =
      Array.init n (fun i ->
          let p = Int64.to_int (Memspace.load_i64 t.host (info.base + (i * word))) in
          if p = 0 then 0L
          else begin
            elems := p :: !elems;
            Int64.of_int (map t p)
          end)
    in
    info.arr_elems <- List.rev !elems;
    (* For a global, the translated pointers must land in the device copy
       of the global itself: kernels reach it via cuModuleGetGlobal. *)
    let shadow =
      dev_alloc t ~op:"mapArray" ~addr:info.base ~size:(n * word)
        ~global_name:(if info.is_global then info.global_name else None)
    in
    (* Write the translated array into device memory (costed as HtoD
       through a bounce buffer on the host). *)
    Array.iteri
      (fun i v -> Memspace.store_i64 t.dev.Device.mem (shadow + (i * word)) v)
      translated;
    let dur = Cost_model.transfer_cycles t.dev.Device.cost (n * word) in
    charge t dur;
    t.dev.Device.stats.Device.htod_bytes <-
      t.dev.Device.stats.Device.htod_bytes + (n * word);
    t.dev.Device.stats.Device.htod_count <-
      t.dev.Device.stats.Device.htod_count + 1;
    t.dev.Device.stats.Device.comm_cycles <-
      t.dev.Device.stats.Device.comm_cycles +. dur;
    info.arr_shadow <- Some shadow;
    with_san t (fun s ->
        Sanitizer.on_map_array s ~base:info.base ~shadow ~translated:true));
  info.arr_refcount <- info.arr_refcount + 1;
  (match info.arr_shadow with
  | Some shadow when info.arr_refcount > 1 ->
    with_san t (fun s ->
        Sanitizer.on_map_array s ~base:info.base ~shadow ~translated:false)
  | _ -> ());
  post t;
  (* The kernel receives the shadow array; interior offsets translate. *)
  Option.get info.arr_shadow + (ptr - info.base)

let unmap_array t ptr =
  runtime_call_cost t;
  let info = find_info t ~op:"unmapArray" ptr in
  List.iter (fun p -> unmap t p) info.arr_elems;
  with_san t (fun s -> Sanitizer.on_unmap_array s ~base:info.base)

let release_array t ptr =
  runtime_call_cost t;
  let info = find_info t ~op:"releaseArray" ptr in
  if info.arr_refcount <= 0 then
    fail t ~op:"releaseArray" ~addr:ptr ~unit_:(snapshot info)
      "releaseArray on an allocation unit whose array reference count is \
       already zero";
  List.iter (fun p -> release t p) info.arr_elems;
  info.arr_refcount <- info.arr_refcount - 1;
  with_san t (fun s ->
      Sanitizer.on_release_array s ~base:info.base ~op:"releaseArray");
  if info.arr_refcount = 0 then begin
    (match info.arr_shadow with
    | Some shadow when not info.is_global ->
      t.now <- Device.mem_free t.dev ~now:t.now shadow
    | _ -> ());
    info.arr_shadow <- None;
    info.arr_elems <- []
  end;
  post t

(* ------------------------------------------------------------------ *)
(* Kernel-side global resolution                                       *)

(* The interpreter resolves a module global touched inside a kernel
   through here so that a first-touch allocation enjoys the same
   OOM recovery as map. If the global had been evicted, the fresh device
   block is refilled from the (written-back) host copy, making eviction
   invisible to the kernel. *)
let device_global_addr t name =
  let already = Hashtbl.mem t.dev.Device.globals name in
  let info =
    match Hashtbl.find_opt t.globals_by_name name with
    | Some base -> Avl.find_opt base t.info
    | None -> None
  in
  let size =
    match info with
    | Some i -> i.size
    | None -> (
      match Hashtbl.find_opt t.dev.Device.global_sizes name with
      | Some s -> s
      | None -> 0)
  in
  let d =
    dev_alloc t ~op:"moduleGetGlobal" ~addr:0 ~size ~global_name:(Some name)
  in
  (if not already then
     match info with
     | Some i ->
       i.devptr <- Some d;
       if i.evicted then begin
         (* Restore the state the global held before it was evicted. *)
         memcpy t ~dir:Htod ~label:"HtoD-restore" ~host_addr:i.base ~dev_addr:d
           ~len:i.size;
         if t.dirty_spans then begin
           Memspace.clear_dirty t.host i.base;
           Memspace.clear_dirty t.dev.Device.mem d
         end
       end
     | None -> ());
  (match Hashtbl.find_opt t.globals_by_name name with
  | Some base ->
    (* Claim the device range even when no map ever ran: a global that
       reaches a kernel without management surfaces as a
       stale-device-read at its first access, not as silence. *)
    with_san t (fun s -> Sanitizer.on_global_resolved s ~base ~devptr:d)
  | None -> ());
  d

(* Kernel launch degraded to CPU execution: the interpreter accounts the
   work on the CPU timeline and reports it here. *)
let note_cpu_fallback t = t.stats.cpu_fallbacks <- t.stats.cpu_fallbacks + 1

(* ------------------------------------------------------------------ *)
(* Introspection for tests and reports                                 *)

let resident_units t =
  Avl.fold (fun _ i n -> if i.devptr <> None then n + 1 else n) t.info 0

let total_refcount t = Avl.fold (fun _ i n -> n + i.refcount) t.info 0

let unit_count t = Avl.cardinal t.info

type leak_report = {
  resident_nonglobal : int;  (* non-global units still device-resident *)
  resident_global : int;  (* module globals still device-resident (fine) *)
  refcount_sum : int;
  leaked_dev_blocks : int;  (* live driver-heap blocks on the device *)
  leaked_dev_bytes : int;
}

(* At a clean program exit, every non-global device copy and every
   driver-heap block must be gone; module globals legitimately keep
   their module residence. *)
let leak_report t =
  let resident_nonglobal, resident_global =
    Avl.fold
      (fun _ i (ng, g) ->
        if i.devptr = None then (ng, g)
        else if i.is_global then (ng, g + 1)
        else (ng + 1, g))
      t.info (0, 0)
  in
  let leaked_dev_blocks, leaked_dev_bytes =
    Memspace.fold_live
      (fun ~base:_ ~size ~tag ~mark:_ ((n, bytes) as acc) ->
        if tag = "dev" then (n + 1, bytes + size) else acc)
      t.dev.Device.mem (0, 0)
  in
  {
    resident_nonglobal;
    resident_global;
    refcount_sum = total_refcount t;
    leaked_dev_blocks;
    leaked_dev_bytes;
  }
