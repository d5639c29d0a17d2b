(* Shadow-memory coherence sanitizer.

   CGCM's correctness claim is that the automatically inserted map /
   unmap / release calls keep the divided CPU and GPU memories coherent.
   Output diffing cannot check that claim: a stale byte that the program
   never prints, a write-back that clobbers a host update of equal value,
   or refcount drift that only leaks memory all pass a diff. This module
   checks the invariant itself.

   Every allocation unit the run-time knows about is mirrored here with
   an independent byte-version map:

     host_dirty[i]  the host copy of byte i is newer than the device copy
                    (set on every host store, cleared by HtoD over i)
     dev_dirty[i]   the device copy of byte i is newer than the host copy
                    (set on every kernel store, cleared by DtoH over i)
     lost[i]        the freshest value of byte i was destroyed before it
                    was propagated (device copy freed while dirty, or an
                    HtoD overwrote unsynchronized kernel output)

   plus the shadow's own refcounts, the claimed device ranges, and the
   epoch of the last transfer. The state machine is driven by hooks on
   the gpusim driver (transfers, frees), the run-time (registration,
   map/unmap/release and the array variants, epochs) and the interpreter
   (every program load and store, kernel launch read/write sets).

   The sanitizer deliberately tracks *dataflow*, not protocol shape: a
   dropped unmap is not reported at the drop site (the run-time cannot
   see it) but at the first host read of a byte whose freshest value is
   still — or died — on the device. Violations raise
   {!Cgcm_support.Errors.Coherence_violation} immediately, carrying the
   unit, the offending instruction and the unit's version history.

   Transfers the dirty bits prove redundant (no byte moved was out of
   date) are *flagged* in the {!report} rather than raised: the paper's
   unoptimized whole-unit protocol re-copies resident units by design,
   and the sanitizer must run clean on it. *)

module Avl = Cgcm_support.Avl_map
module Errors = Cgcm_support.Errors

type shadow = {
  su_base : int;
  su_size : int;
  su_global : string option;
  su_read_only : bool;
  su_kind : string;  (* "heap" | "global" | "alloca" *)
  mutable su_refcount : int;
  mutable su_arr_refcount : int;
  mutable su_devptr : int option;  (* claimed direct device range *)
  mutable su_shadow : int option;  (* claimed translated-array range *)
  mutable su_epoch : int;  (* epoch of the last transfer either way *)
  host_dirty : Bytes.t;
  dev_dirty : Bytes.t;
  lost : Bytes.t;
  mutable history : string list;  (* newest first, bounded *)
  mutable hist_len : int;
}

type claim_kind = Direct | Translated

type claim = { c_base : int; c_unit : shadow; c_kind : claim_kind }

type stats = {
  checks : Cgcm_support.Stats.Counter.t;  (* program accesses checked;
     atomic because parallel kernel shards bump it concurrently *)
  mutable transfers : int;  (* transfers observed *)
  mutable redundant_htod : int;
  mutable redundant_htod_bytes : int;
  mutable redundant_dtoh : int;
  mutable redundant_dtoh_bytes : int;
  mutable unreferenced_maps : int;
      (* launches at which a mapped global was provably untouched *)
}

type t = {
  dev_lo : int;  (* first device address: spaces never overlap *)
  mutable units : shadow Avl.t;  (* host base -> shadow *)
  mutable claims : claim Avl.t;  (* device base -> claim *)
  freed_dev : (int, Errors.unit_snapshot option) Hashtbl.t;  (* tombstones *)
  by_global : (string, int) Hashtbl.t;
  mutable epoch : int;
  st : stats;
  (* one-entry lookup caches: loop bodies hammer a single unit *)
  mutable last_host : shadow option;
  mutable last_claim : claim option;
}

let create ~dev_lo () =
  {
    dev_lo;
    units = Avl.empty;
    claims = Avl.empty;
    freed_dev = Hashtbl.create 64;
    by_global = Hashtbl.create 16;
    epoch = 0;
    st =
      {
        checks = Cgcm_support.Stats.Counter.create ();
        transfers = 0;
        redundant_htod = 0;
        redundant_htod_bytes = 0;
        redundant_dtoh = 0;
        redundant_dtoh_bytes = 0;
        unreferenced_maps = 0;
      };
    last_host = None;
    last_claim = None;
  }

(* ------------------------------------------------------------------ *)
(* Byte-map scans                                                      *)

let rec first_set b off stop =
  if off >= stop then -1
  else if Bytes.unsafe_get b off <> '\000' then off
  else first_set b (off + 1) stop

let count_set b off stop =
  let n = ref 0 in
  for i = off to stop - 1 do
    if Bytes.unsafe_get b i <> '\000' then incr n
  done;
  !n

let any_set b = first_set b 0 (Bytes.length b) >= 0

(* Clamp an [off, off+len) window to the unit, defensively: run-time
   transfers are always within one unit, but the sanitizer must not
   trust the code it audits. *)
let window su ~off ~len =
  let off = max 0 off in
  let stop = min su.su_size (off + len) in
  (off, max off stop)

(* ------------------------------------------------------------------ *)
(* History and violations                                              *)

let max_history = 16

let record su fmt =
  Printf.ksprintf
    (fun s ->
      su.history <- s :: (if su.hist_len >= max_history then
                            List.filteri (fun i _ -> i < max_history - 1) su.history
                          else su.history);
      su.hist_len <- min max_history (su.hist_len + 1))
    fmt

let snapshot su : Errors.unit_snapshot =
  {
    Errors.u_base = su.su_base;
    u_size = su.su_size;
    u_refcount = su.su_refcount;
    u_arr_refcount = su.su_arr_refcount;
    u_epoch = su.su_epoch;
    u_devptr = su.su_devptr;
    u_global = su.su_global;
  }

let violate su ~kind ~addr ~offset ~instr ~detail =
  raise
    (Errors.Coherence_violation
       {
         Errors.v_kind = kind;
         v_unit = snapshot su;
         v_addr = addr;
         v_offset = offset;
         v_instr = instr;
         v_detail = detail;
         (* stored newest first; the renderer reverses *)
         v_history = List.rev su.history;
       })

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)

let invalidate_caches t =
  t.last_host <- None;
  t.last_claim <- None

let find_host t addr =
  match t.last_host with
  | Some su when addr >= su.su_base && addr < su.su_base + su.su_size ->
    Some su
  | _ -> (
    match Avl.greatest_leq addr t.units with
    | Some (_, su) when addr >= su.su_base && addr < su.su_base + su.su_size ->
      t.last_host <- Some su;
      Some su
    | _ -> None)

let find_claim t addr =
  match t.last_claim with
  | Some c when addr >= c.c_base && addr < c.c_base + c.c_unit.su_size ->
    Some c
  | _ -> (
    match Avl.greatest_leq addr t.claims with
    | Some (_, c) when addr >= c.c_base && addr < c.c_base + c.c_unit.su_size ->
      t.last_claim <- Some c;
      Some c
    | _ -> None)

let claim t su kind base =
  t.claims <- Avl.add base { c_base = base; c_unit = su; c_kind = kind } t.claims;
  t.last_claim <- None;
  (match kind with
  | Direct -> su.su_devptr <- Some base
  | Translated -> su.su_shadow <- Some base)

let unclaim t base =
  t.claims <- Avl.remove base t.claims;
  t.last_claim <- None

(* ------------------------------------------------------------------ *)
(* Registration hooks (run-time)                                       *)

let on_register t ~base ~size ~kind ?global ?(read_only = false) () =
  let size = max size 1 in
  let su =
    {
      su_base = base;
      su_size = size;
      su_global = global;
      su_read_only = read_only;
      su_kind = kind;
      su_refcount = 0;
      su_arr_refcount = 0;
      su_devptr = None;
      su_shadow = None;
      su_epoch = 0;
      (* the host copy is authoritative at birth: nothing has been
         transferred, so every byte is host-newer *)
      host_dirty = Bytes.make size '\001';
      dev_dirty = Bytes.make size '\000';
      lost = Bytes.make size '\000';
      history = [];
      hist_len = 0;
    }
  in
  record su "epoch %d: registered %s unit (%d B)" t.epoch kind size;
  t.units <- Avl.add base su t.units;
  (match global with Some g -> Hashtbl.replace t.by_global g base | None -> ());
  invalidate_caches t

let on_unregister t ~base ~op =
  (match Avl.find_opt base t.units with
  | None -> ()
  | Some su ->
    if su.su_refcount > 0 || su.su_arr_refcount > 0 then
      violate su ~kind:Errors.Premature_release ~addr:base ~offset:0 ~instr:op
        ~detail:
          (Printf.sprintf
             "unit unregistered while still mapped (shadow refcount=%d, \
              arrayRefcount=%d): its device copy would dangle"
             su.su_refcount su.su_arr_refcount);
    (match su.su_devptr with Some d -> unclaim t d | None -> ());
    (match su.su_shadow with Some s -> unclaim t s | None -> ());
    (match su.su_global with
    | Some g -> Hashtbl.remove t.by_global g
    | None -> ());
    t.units <- Avl.remove base t.units);
  invalidate_caches t

(* ------------------------------------------------------------------ *)
(* map / unmap / release hooks (run-time; called after the run-time's
   own bookkeeping succeeded, so the shadow is an independent replica)  *)

let on_map t ~base ~devptr =
  match find_host t base with
  | None -> ()
  | Some su ->
    su.su_refcount <- su.su_refcount + 1;
    (match su.su_devptr with
    | Some d when d = devptr -> ()
    | Some d -> unclaim t d; claim t su Direct devptr
    | None -> claim t su Direct devptr);
    record su "epoch %d: map -> refcount %d (devptr 0x%x)" t.epoch
      su.su_refcount devptr

(* A module global resolved inside a kernel (cuModuleGetGlobal path):
   claims the device range even when no map ever ran, which is exactly
   how a dropped or wrongly-hoisted map becomes visible as a
   stale-device-read at the kernel's first byte access. *)
let on_global_resolved t ~base ~devptr =
  match find_host t base with
  | None -> ()
  | Some su -> (
    match su.su_devptr with
    | Some d when d = devptr -> ()
    | Some d -> unclaim t d; claim t su Direct devptr
    | None ->
      claim t su Direct devptr;
      record su "epoch %d: resolved on device without map (devptr 0x%x)"
        t.epoch devptr)

let on_unmap t ~base =
  match find_host t base with
  | None -> ()
  | Some su -> record su "epoch %d: unmap" t.epoch

let on_release t ~base ~op =
  match find_host t base with
  | None -> ()
  | Some su ->
    su.su_refcount <- su.su_refcount - 1;
    record su "epoch %d: release -> refcount %d" t.epoch su.su_refcount;
    if su.su_refcount < 0 then
      violate su ~kind:Errors.Premature_release ~addr:base ~offset:0 ~instr:op
        ~detail:"shadow reference count went negative: one release too many"

let on_map_array t ~base ~shadow ~translated =
  match find_host t base with
  | None -> ()
  | Some su ->
    su.su_arr_refcount <- su.su_arr_refcount + 1;
    if translated then begin
      (* The translated array is built from the current host pointers,
         so the device view is in sync by construction. Host writes to
         the pointer array after this point are *not* propagated — they
         re-dirty the unit and a kernel read through the stale
         translation will flag. *)
      Bytes.fill su.host_dirty 0 su.su_size '\000';
      (match su.su_shadow with
      | Some s when s <> shadow -> unclaim t s
      | _ -> ());
      claim t su Translated shadow;
      record su "epoch %d: mapArray translated -> shadow 0x%x, arrayRefcount %d"
        t.epoch shadow su.su_arr_refcount
    end
    else
      record su "epoch %d: mapArray (cached translation) -> arrayRefcount %d"
        t.epoch su.su_arr_refcount

let on_unmap_array t ~base =
  match find_host t base with
  | None -> ()
  | Some su -> record su "epoch %d: unmapArray" t.epoch

let on_release_array t ~base ~op =
  match find_host t base with
  | None -> ()
  | Some su ->
    su.su_arr_refcount <- su.su_arr_refcount - 1;
    record su "epoch %d: releaseArray -> arrayRefcount %d" t.epoch
      su.su_arr_refcount;
    if su.su_arr_refcount < 0 then
      violate su ~kind:Errors.Premature_release ~addr:base ~offset:0 ~instr:op
        ~detail:
          "shadow array reference count went negative: one releaseArray too \
           many"

let on_epoch t = t.epoch <- t.epoch + 1

(* ------------------------------------------------------------------ *)
(* Transfer hooks (driver; called after a successful DMA only, so a
   retried transfer is observed once)                                  *)

let on_htod t ~host_addr ~dev_addr ~len ~label =
  ignore dev_addr;
  match find_host t host_addr with
  | None -> ()  (* bounce buffer or unregistered memory: not our unit *)
  | Some su ->
    t.st.transfers <- t.st.transfers + 1;
    let off, stop = window su ~off:(host_addr - su.su_base) ~len in
    let fresh = count_set su.host_dirty off stop in
    (* Host data overwrites kernel output that was never written back:
       from here on both copies hold the host version, so the kernel's
       values are unrecoverable. Mark them lost; the read that observes
       them is the violation. *)
    for i = off to stop - 1 do
      if Bytes.unsafe_get su.dev_dirty i <> '\000' then begin
        Bytes.unsafe_set su.lost i '\001';
        Bytes.unsafe_set su.dev_dirty i '\000'
      end
    done;
    Bytes.fill su.host_dirty off (stop - off) '\000';
    su.su_epoch <- t.epoch;
    if fresh = 0 then begin
      t.st.redundant_htod <- t.st.redundant_htod + 1;
      t.st.redundant_htod_bytes <- t.st.redundant_htod_bytes + (stop - off);
      record su "epoch %d: HtoD %d B (%s) [redundant: no dirty byte moved]"
        t.epoch (stop - off) label
    end
    else record su "epoch %d: HtoD %d B (%s), %d fresh" t.epoch (stop - off)
        label fresh

let on_dtoh t ~host_addr ~dev_addr ~len ~label =
  ignore dev_addr;
  match find_host t host_addr with
  | None -> ()
  | Some su ->
    t.st.transfers <- t.st.transfers + 1;
    let off, stop = window su ~off:(host_addr - su.su_base) ~len in
    (match first_set su.host_dirty off stop with
    | -1 -> ()
    | bad ->
      violate su ~kind:Errors.Lost_host_update ~addr:(su.su_base + bad)
        ~offset:bad
        ~instr:(Printf.sprintf "DtoH transfer %d B (%s)" (stop - off) label)
        ~detail:
          "the device write-back overwrote bytes the host updated after the \
           last host-to-device copy");
    let fresh = count_set su.dev_dirty off stop in
    Bytes.fill su.dev_dirty off (stop - off) '\000';
    su.su_epoch <- t.epoch;
    if fresh = 0 then begin
      t.st.redundant_dtoh <- t.st.redundant_dtoh + 1;
      t.st.redundant_dtoh_bytes <- t.st.redundant_dtoh_bytes + (stop - off);
      record su "epoch %d: DtoH %d B (%s) [redundant: no dirty byte moved]"
        t.epoch (stop - off) label
    end
    else record su "epoch %d: DtoH %d B (%s), %d fresh" t.epoch (stop - off)
        label fresh

(* A device block is about to be freed (cuMemFree / forget_global). *)
let on_dev_free t ~addr ~op =
  (match Hashtbl.find_opt t.freed_dev addr with
  | Some prior ->
    let su_dummy =
      match prior with
      | Some u -> u
      | None ->
        {
          Errors.u_base = 0;
          u_size = 0;
          u_refcount = 0;
          u_arr_refcount = 0;
          u_epoch = 0;
          u_devptr = Some addr;
          u_global = None;
        }
    in
    raise
      (Errors.Coherence_violation
         {
           Errors.v_kind = Errors.Double_free;
           v_unit = su_dummy;
           v_addr = addr;
           v_offset = 0;
           v_instr = op;
           v_detail =
             Printf.sprintf "device block 0x%x was already freed once" addr;
           v_history = [];
         })
  | None -> ());
  (match Avl.find_opt addr t.claims with
  | Some { c_kind = Direct; c_unit = su; _ } ->
    if su.su_refcount > 0 then
      violate su ~kind:Errors.Premature_release ~addr ~offset:0 ~instr:op
        ~detail:
          (Printf.sprintf
             "device copy freed while the unit is still mapped (shadow \
              refcount=%d)"
             su.su_refcount);
    (* Unsynchronized kernel output dies with the block. *)
    let lost_now = count_set su.dev_dirty 0 su.su_size in
    for i = 0 to su.su_size - 1 do
      if Bytes.unsafe_get su.dev_dirty i <> '\000' then begin
        Bytes.unsafe_set su.lost i '\001';
        Bytes.unsafe_set su.dev_dirty i '\000'
      end
    done;
    if lost_now > 0 then
      record su "epoch %d: device copy freed with %d unsynchronized B (%s)"
        t.epoch lost_now op
    else record su "epoch %d: device copy freed (%s)" t.epoch op;
    su.su_devptr <- None;
    Hashtbl.replace t.freed_dev addr (Some (snapshot su));
    unclaim t addr
  | Some { c_kind = Translated; c_unit = su; _ } ->
    record su "epoch %d: translated array freed (%s)" t.epoch op;
    su.su_shadow <- None;
    Hashtbl.replace t.freed_dev addr (Some (snapshot su));
    unclaim t addr
  | None ->
    (* not one of ours (manual gpu_malloc, kernel-local frame): still
       tombstone it — the device space never recycles addresses, so a
       second free of the same block is always a bug *)
    Hashtbl.replace t.freed_dev addr None)

(* ------------------------------------------------------------------ *)
(* Program access hooks (interpreter, both engines)                    *)

let access_instr ~what ~len ~addr ~fn ~kernel =
  Printf.sprintf "%s %d B @0x%x in %s%s" what len addr fn
    (if kernel then " [kernel]" else "")

let on_load t ~addr ~len ~fn ~kernel =
  Cgcm_support.Stats.Counter.incr t.st.checks;
  if addr >= t.dev_lo then begin
    match find_claim t addr with
    | None -> ()  (* kernel-local stack or manually managed memory *)
    | Some { c_base; c_unit = su; c_kind } -> (
      let off, stop = window su ~off:(addr - c_base) ~len in
      match first_set su.host_dirty off stop with
      | bad when bad >= 0 ->
        violate su ~kind:Errors.Stale_device_read ~addr ~offset:bad
          ~instr:(access_instr ~what:"load" ~len ~addr ~fn ~kernel)
          ~detail:
            (match c_kind with
            | Direct ->
              "the host updated this byte after the last host-to-device \
               copy: the kernel is reading a stale device copy"
            | Translated ->
              "the host rewrote this pointer-array byte after mapArray \
               translated it: the kernel is reading a stale translation")
      | _ -> (
        match first_set su.lost off stop with
        | bad when bad >= 0 ->
          violate su ~kind:Errors.Stale_device_read ~addr ~offset:bad
            ~instr:(access_instr ~what:"load" ~len ~addr ~fn ~kernel)
            ~detail:
              "the freshest value of this byte was destroyed (overwritten \
               or freed) before it was propagated"
        | _ -> ()))
  end
  else
    match find_host t addr with
    | None -> ()
    | Some su -> (
      let off, stop = window su ~off:(addr - su.su_base) ~len in
      match first_set su.lost off stop with
      | bad when bad >= 0 ->
        violate su ~kind:Errors.Stale_host_read ~addr ~offset:bad
          ~instr:(access_instr ~what:"load" ~len ~addr ~fn ~kernel)
          ~detail:
            "the freshest value of this byte died on the device (its copy \
             was freed or overwritten before write-back)"
      | _ -> (
        match first_set su.dev_dirty off stop with
        | bad when bad >= 0 ->
          violate su ~kind:Errors.Stale_host_read ~addr ~offset:bad
            ~instr:(access_instr ~what:"load" ~len ~addr ~fn ~kernel)
            ~detail:
              "the device copy holds a newer value that was never copied \
               back (missing unmap?)"
        | _ -> ()))

let on_store t ~addr ~len ~fn ~kernel =
  ignore fn;
  ignore kernel;
  Cgcm_support.Stats.Counter.incr t.st.checks;
  if addr >= t.dev_lo then begin
    match find_claim t addr with
    | None -> ()
    | Some { c_base; c_unit = su; _ } ->
      let off, stop = window su ~off:(addr - c_base) ~len in
      Bytes.fill su.dev_dirty off (stop - off) '\001';
      (* A kernel overwrite makes the device version the freshest one,
         whatever the host did before: byte-precise dataflow, so a blind
         kernel write over an unsynchronized host update is not an
         error — the final value is identical either way. *)
      Bytes.fill su.host_dirty off (stop - off) '\000';
      Bytes.fill su.lost off (stop - off) '\000'
  end
  else
    match find_host t addr with
    | None -> ()
    | Some su ->
      let off, stop = window su ~off:(addr - su.su_base) ~len in
      Bytes.fill su.host_dirty off (stop - off) '\001';
      Bytes.fill su.dev_dirty off (stop - off) '\000';
      Bytes.fill su.lost off (stop - off) '\000'

(* ------------------------------------------------------------------ *)
(* Launch hook: the static read/write sets from Analysis.Modref        *)

(* The byte-level hooks above catch what the kernel *actually* touches;
   the static sets catch management that is provably useless — a unit
   held mapped across a launch whose kernel cannot reference it. That is
   a diagnostic (map promotion may hoist conservatively), never a
   violation. *)
let on_launch t ~kernel ~reads ~writes ~unknown =
  Avl.iter
    (fun _ su ->
      let named l =
        match su.su_global with Some g -> List.mem g l | None -> false
      in
      let referenced = unknown || named reads || named writes in
      if su.su_refcount > 0 || su.su_arr_refcount > 0 || named reads
         || named writes
      then
        record su "epoch %d: launch %s%s" t.epoch kernel
          (if referenced then "" else " [unit not in kernel's read/write set]");
      if
        (su.su_refcount > 0 || su.su_arr_refcount > 0)
        && (not referenced)
        && su.su_global <> None
      then t.st.unreferenced_maps <- t.st.unreferenced_maps + 1)
    t.units

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type report = {
  r_checks : int;
  r_transfers : int;
  r_redundant_htod : int;
  r_redundant_htod_bytes : int;
  r_redundant_dtoh : int;
  r_redundant_dtoh_bytes : int;
  r_unreferenced_maps : int;
  r_units_live : int;
  r_units_dev_dirty : int;  (* live units with unsynchronized device bytes *)
}

let report t =
  let live = Avl.cardinal t.units in
  let dirty =
    Avl.fold (fun _ su n -> if any_set su.dev_dirty then n + 1 else n) t.units 0
  in
  {
    r_checks = Cgcm_support.Stats.Counter.get t.st.checks;
    r_transfers = t.st.transfers;
    r_redundant_htod = t.st.redundant_htod;
    r_redundant_htod_bytes = t.st.redundant_htod_bytes;
    r_redundant_dtoh = t.st.redundant_dtoh;
    r_redundant_dtoh_bytes = t.st.redundant_dtoh_bytes;
    r_unreferenced_maps = t.st.unreferenced_maps;
    r_units_live = live;
    r_units_dev_dirty = dirty;
  }

let render_report r =
  Printf.sprintf
    "clean: %d accesses checked, %d transfers (%d+%d provably redundant, \
     %d B), %d unreferenced maps, %d live units (%d with unsynchronized \
     device bytes)"
    r.r_checks r.r_transfers r.r_redundant_htod r.r_redundant_dtoh
    (r.r_redundant_htod_bytes + r.r_redundant_dtoh_bytes)
    r.r_unreferenced_maps r.r_units_live r.r_units_dev_dirty
