(* The serve daemon's request engine, independent of any transport.

   Everything the robustness envelope promises lives here so tests can
   drive it in-process, without sockets:

   - admission control: requests beyond the queue bound, or arriving
     while warm residency crowds the simulated device past the
     high-water mark, are shed with a typed [Overloaded] reply (never
     queued, never executed) — and a device-memory shed evicts one
     least-recently-used warm unit so the system degrades instead of
     wedging;
   - deadlines: every execution runs under a fuel budget (the request's
     own, else the daemon default), and fuel exhaustion becomes a typed
     [Deadline_exceeded] reply instead of an error;
   - retry with backoff: injected (transient) driver faults re-run the
     request with a fresh fault substream, up to a bound, with
     exponential backoff accounted in the stats;
   - circuit breaking: a tenant whose executions keep failing trips to
     [Open]; strict requests are rejected with [Circuit_open], the rest
     degrade to CPU-only (sequential) execution until a probation of
     degraded runs earns a half-open probe;
   - crash-only discipline: each request executes in a fresh interpreter
     instance (exactly what single-shot [cgcm run] does, so outputs are
     bit-identical by construction), is leak-checked on completion, and
     the shared residency state is invariant-audited between requests.

   Compiled modules are cached across requests and tenants in a bounded
   LRU keyed by a digest of (compile plan, source). A cache hit also
   reuses the module's decoded code: the entry keeps one prepared
   interpreter program per execution variant that has hit it. *)

module Pipeline = Cgcm_core.Pipeline
module Diagnostics = Cgcm_core.Diagnostics
module Interp = Cgcm_interp.Interp
module Runtime = Cgcm_runtime.Runtime
module Faults = Cgcm_gpusim.Faults
module Doall = Cgcm_frontend.Doall
module Ir = Cgcm_ir.Ir
module Errors = Cgcm_support.Errors
module Rng = Cgcm_support.Rng
module Device = Cgcm_gpusim.Device
module Mem_backend = Cgcm_runtime.Mem_backend

type config = {
  max_queue : int;  (* admission bound: shed beyond this queue depth *)
  device_mem : int;  (* daemon device capacity; [max_int] = unbounded *)
  high_water : float;  (* warm-bytes fraction of capacity that sheds *)
  default_deadline : int;  (* fuel budget for requests without one *)
  max_retries : int;  (* extra attempts on injected transient faults *)
  backoff_ms : float;  (* base backoff between attempts; doubles *)
  circuit_threshold : int;  (* consecutive failures that trip a tenant *)
  cache_capacity : int;  (* compiled-module LRU entries *)
  faults : Faults.spec option;  (* daemon-wide injected-fault plan *)
}

let default_config =
  {
    max_queue = 64;
    device_mem = max_int;
    high_water = 0.9;
    default_deadline = 50_000_000;
    max_retries = 3;
    backoff_ms = 0.0;
    circuit_threshold = 3;
    cache_capacity = 128;
    faults = None;
  }

type breaker =
  | Closed
  | Open of int  (* degraded runs left before half-open *)
  | Half_open

type tenant_state = {
  t_name : string;
  mutable t_consec : int;  (* consecutive circuit-countable failures *)
  mutable t_breaker : breaker;
  mutable t_trips : int;
}

type stats = {
  mutable received : int;
  mutable ok : int;
  mutable shed : int;
  mutable deadline_exceeded : int;
  mutable circuit_rejected : int;
  mutable failed : int;
  mutable degraded_runs : int;
  mutable retries : int;
  mutable backoff_total_ms : float;
  mutable circuit_trips : int;
}

let zero_stats () =
  {
    received = 0;
    ok = 0;
    shed = 0;
    deadline_exceeded = 0;
    circuit_rejected = 0;
    failed = 0;
    degraded_runs = 0;
    retries = 0;
    backoff_total_ms = 0.0;
    circuit_trips = 0;
  }

(* Cross-shard aggregation: a sharded daemon's global counters are by
   definition the sums of its shards' counters (each request is owned
   by exactly one shard). *)
let sum_stats (l : stats list) : stats =
  let acc = zero_stats () in
  List.iter
    (fun s ->
      acc.received <- acc.received + s.received;
      acc.ok <- acc.ok + s.ok;
      acc.shed <- acc.shed + s.shed;
      acc.deadline_exceeded <- acc.deadline_exceeded + s.deadline_exceeded;
      acc.circuit_rejected <- acc.circuit_rejected + s.circuit_rejected;
      acc.failed <- acc.failed + s.failed;
      acc.degraded_runs <- acc.degraded_runs + s.degraded_runs;
      acc.retries <- acc.retries + s.retries;
      acc.backoff_total_ms <- acc.backoff_total_ms +. s.backoff_total_ms;
      acc.circuit_trips <- acc.circuit_trips + s.circuit_trips)
    l;
  acc

(* What a restarted daemon reports about the state it rebuilt from the
   journal. *)
type recovery = {
  rec_records : int;  (* intact journal records replayed *)
  rec_torn : bool;  (* replay ended at a torn/corrupt record *)
  rec_compiled : int;  (* cache entries rebuilt by recompilation *)
  rec_rewarmed : int;  (* warm manifest entries re-established *)
  rec_tenants : int;  (* breaker states restored *)
  rec_skipped : int;  (* unreplayable records (corrupt mode/source) *)
}

(* Aggregate per-shard recoveries into the daemon-level report: counts
   sum (each shard replays its own segment), and a torn tail anywhere
   is a torn recovery. *)
let sum_recoveries (l : recovery list) : recovery option =
  match l with
  | [] -> None
  | l ->
    Some
      (List.fold_left
         (fun acc r ->
           {
             rec_records = acc.rec_records + r.rec_records;
             rec_torn = acc.rec_torn || r.rec_torn;
             rec_compiled = acc.rec_compiled + r.rec_compiled;
             rec_rewarmed = acc.rec_rewarmed + r.rec_rewarmed;
             rec_tenants = acc.rec_tenants + r.rec_tenants;
             rec_skipped = acc.rec_skipped + r.rec_skipped;
           })
         {
           rec_records = 0;
           rec_torn = false;
           rec_compiled = 0;
           rec_rewarmed = 0;
           rec_tenants = 0;
           rec_skipped = 0;
         }
         l)

(* A cache entry: the compiled module and the programs prepared from it,
   one per (execution, backend) that hit the entry. A miss prepares
   none, so an entry never hit costs no decoded code. *)
type entry = {
  compiled : Pipeline.compiled;
  mutable programs :
    ((Pipeline.execution * Mem_backend.kind) * Interp.program) list;
}

type t = {
  cfg : config;
  cache : (string, entry) Cache.t;
  res : Residency.t;
  queue : (Wire.request * (Wire.reply -> unit)) Queue.t;
  tenants : (string, tenant_state) Hashtbl.t;
  stats : stats;
  mutable attempt_counter : int;
      (* distinct fault substream per execution attempt, so a retry
         re-rolls its fate deterministically *)
  journal : Journal.t option;
  mutable journaling : bool;
      (* suspended during recovery: the journal's initial snapshot
         already covers the state being rebuilt *)
  mutable recovered : recovery option;
}

let create ?(config = default_config) ?journal () =
  {
    cfg = config;
    cache = Cache.create ~capacity:config.cache_capacity;
    res = Residency.create ~device_mem:config.device_mem ();
    queue = Queue.create ();
    tenants = Hashtbl.create 8;
    stats = zero_stats ();
    attempt_counter = 0;
    journal;
    journaling = true;
    recovered = None;
  }

let config t = t.cfg
let stats t = t.stats
let residency t = t.res
let cache_stats t = Cache.stats t.cache
let cache_hit_rate t = Cache.hit_rate t.cache
let pending t = Queue.length t.queue
let journal t = t.journal
let recovered t = t.recovered

let journal_append t r =
  match t.journal with
  | Some j when t.journaling -> Journal.append j r
  | _ -> ()

let tenant_state t name =
  match Hashtbl.find_opt t.tenants name with
  | Some st -> st
  | None ->
    let st = { t_name = name; t_consec = 0; t_breaker = Closed; t_trips = 0 } in
    Hashtbl.replace t.tenants name st;
    st

let breaker_of t name = (tenant_state t name).t_breaker
let trips_of t name = (tenant_state t name).t_trips

(* ------------------------------------------------------------------ *)
(* Compilation plans and the cross-request cache                       *)

(* Requests name the paper's execution configurations in Pipeline's
   mode table. A mode may carry a memory-backend suffix ("opt+paged"):
   the backend shapes execution, not compilation, so it rides in the
   mode string — which lands it in journal compile recipes for free, and
   recovery rebuilds the identical configuration because the parse is
   deterministic. *)
let parse_mode m =
  match Pipeline.parse_mode m with
  | Ok eb -> eb
  | Error e -> raise (Wire.Protocol_error e)

(* "opt" and "unified" (and "opt+paged") share a compiled module, so the
   cache keys by the compile plan, not the request mode. *)
let cache_key execution source =
  let s = Pipeline.shape execution in
  let tag =
    Printf.sprintf "%s/%s"
      (match s.Pipeline.doall_mode with Doall.Off -> "off" | _ -> "auto")
      (match s.Pipeline.compile_level with
      | Pipeline.Unmanaged -> "unmanaged"
      | Pipeline.Managed -> "managed"
      | Pipeline.Optimized -> "optimized")
  in
  Digest.to_hex (Digest.string (tag ^ "\x00" ^ source))

let cache_key_of_mode ~mode source = cache_key (fst (parse_mode mode)) source

let compiled_of t ~mode execution source =
  let r =
    Cache.find_or_add t.cache
      (cache_key execution source)
      (fun () ->
        { compiled = Pipeline.compile_for execution source; programs = [] })
  in
  (match r with
  | _, `Miss ->
    (* Journal the recipe, not the module: recompilation is
       deterministic, so a restarted daemon rebuilds the same cache
       entry from (mode, source) alone. *)
    journal_append t (Journal.Compile { jc_mode = mode; jc_source = source })
  | _, `Hit -> ());
  r

(* ------------------------------------------------------------------ *)
(* Fault-plan derivation and failure triage                            *)

let derive_seed base i = Rng.int (Rng.stream ~seed:base i) 0x3FFF_FFFF

let device_fault_of = function
  | Errors.Device_error f -> Some f
  | Runtime.Runtime_error { device = Some f; _ } -> Some f
  | _ -> None

let is_injected exn =
  match device_fault_of exn with
  | Some
      ( Errors.Oom { injected = true; _ }
      | Errors.Transfer_failed { injected = true; _ }
      | Errors.Launch_failed { injected = true; _ } ) ->
    true
  | _ -> false

let is_capacity_oom exn =
  match device_fault_of exn with
  | Some (Errors.Oom { injected = false; _ }) -> true
  | _ -> false

(* Failures that indict the tenant's device path (and feed its breaker),
   as opposed to the program's own bugs (parse errors, division by zero,
   wild pointers), which say nothing about service health. *)
let is_circuit_failure exn =
  match exn with
  | Errors.Device_error _ | Runtime.Runtime_error _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

let reply ?(output = "") ?(exit_code = 0) ?(error = "") ?(cache = "-")
    ?(degraded = false) ?(retries = 0) ~id ~wall_ms status : Wire.reply =
  {
    rp_id = id;
    rp_status = status;
    rp_output = output;
    rp_exit_code = exit_code;
    rp_error = error;
    rp_cache = cache;
    rp_degraded = degraded;
    rp_retries = retries;
    rp_wall_ms = wall_ms;
  }

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let overload_info t ~reason : Errors.overload_info =
  {
    ov_queue_depth = Queue.length t.queue;
    ov_queue_limit = t.cfg.max_queue;
    ov_warm_bytes = Residency.warm_bytes t.res;
    ov_capacity = t.cfg.device_mem;
    ov_reason = reason;
  }

let shed t (req : Wire.request) deliver ~reason =
  let info = overload_info t ~reason in
  t.stats.shed <- t.stats.shed + 1;
  deliver
    (reply ~id:req.rq_id ~wall_ms:0.0
       ~exit_code:Diagnostics.exit_overloaded
       ~error:(Errors.render_overload info) Wire.Overloaded)

let submit t (req : Wire.request) deliver =
  t.stats.received <- t.stats.received + 1;
  if Queue.length t.queue >= t.cfg.max_queue then begin
    shed t req deliver ~reason:"queue";
    `Shed
  end
  else if
    t.cfg.device_mem < max_int
    && float_of_int (Residency.warm_bytes t.res)
       >= t.cfg.high_water *. float_of_int t.cfg.device_mem
  then begin
    (* Shed, but also relieve: drop one LRU warm unit so the condition
       clears instead of rejecting every future request. *)
    shed t req deliver ~reason:"device-mem";
    ignore (Residency.evict_lru_unit t.res : bool);
    `Shed
  end
  else begin
    Queue.add (req, deliver) t.queue;
    `Queued
  end

(* Shed with an explicit reason, counting the request as received: the
   router path for requests rejected at the door — a draining daemon
   ("draining", so clients can tell "busy" from "dead") or a shard
   whose router-side in-flight bound tripped ("queue"). Runs on the
   shard that owns the stats, never on the router. *)
let shed_request t (req : Wire.request) deliver ~reason =
  t.stats.received <- t.stats.received + 1;
  shed t req deliver ~reason

let shed_draining t (req : Wire.request) deliver =
  shed_request t req deliver ~reason:"draining"

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let run_config t execution ~fuel ~faults ~backend =
  let device_mem =
    if t.cfg.device_mem = max_int then max_int
    else max 4096 (t.cfg.device_mem - Residency.warm_bytes t.res)
  in
  { (Pipeline.config ~device_mem ?faults ~backend execution) with Interp.fuel }

(* Warm this tenant's writable globals after a successful device-side
   run: their device residency survives the request, which is what the
   next request's transfers save. *)
let warm_after t ~tenant ~key ~mode ~source (compiled : Pipeline.compiled) =
  let globals =
    compiled.modul.Ir.globals
    |> List.filter (fun (g : Ir.global) -> not g.Ir.gread_only)
    |> List.map (fun (g : Ir.global) -> (g.Ir.gname, g.Ir.gsize))
  in
  if globals <> [] && Residency.warm t.res ~tenant ~key ~globals then
    journal_append t
      (Journal.Warm
         ( {
             jw_tenant = tenant;
             jw_key = key;
             jw_mode = mode;
             jw_source = source;
           },
           (Residency.device t.res).Device.globals_gen ))

type outcome =
  | O_ok of Interp.result * int  (* retries taken *)
  | O_deadline
  | O_failed of exn * int

(* The entry's program for [config]'s variant, prepared on first use. *)
let program_of entry variant (config : Interp.config) =
  match List.assoc_opt variant entry.programs with
  | Some p -> p
  | None ->
    let p = Interp.prepare config entry.compiled.Pipeline.modul in
    entry.programs <- (variant, p) :: entry.programs;
    p

let execute t (req : Wire.request) ~mode =
  let execution, backend = parse_mode mode in
  let key = cache_key execution req.rq_source in
  let entry, hitmiss = compiled_of t ~mode execution req.rq_source in
  let compiled = entry.compiled in
  let fuel =
    match req.rq_deadline with
    | Some d -> max 1 d
    | None -> t.cfg.default_deadline
  in
  let base_faults =
    match req.rq_faults with
    | Some s -> Some (Faults.parse s)
    | None -> t.cfg.faults
  in
  let device_used =
    (Pipeline.shape execution).Pipeline.interp_mode <> Interp.Unified
  in
  let rec attempt n retries =
    t.attempt_counter <- t.attempt_counter + 1;
    let faults =
      if not device_used then None
      else
        Option.map
          (fun (sp : Faults.spec) ->
            { sp with Faults.seed = derive_seed sp.seed t.attempt_counter })
          base_faults
    in
    let config = run_config t execution ~fuel ~faults ~backend in
    match
      match hitmiss with
      | `Miss -> Interp.run ~config compiled.Pipeline.modul
      | `Hit ->
        Interp.run_program ~config (program_of entry (execution, backend) config)
    with
    | r -> O_ok (r, retries)
    | exception exn when Interp.is_out_of_fuel exn -> O_deadline
    | exception exn when is_capacity_oom exn ->
      (* Genuine device-memory pressure: the warm footprint crowded this
         run out. Evict other tenants' warmth first (the cross-tenant
         policy), then the requester's own; doesn't consume a
         transient-fault retry, and terminates because every eviction
         frees at least one unit. *)
      if
        Residency.evict_lru_unit ~except:req.rq_tenant t.res
        || Residency.evict_lru_unit t.res
      then attempt n retries
      else O_failed (exn, retries)
    | exception exn when is_injected exn && n <= t.cfg.max_retries ->
      let pause = t.cfg.backoff_ms *. (2.0 ** float_of_int (n - 1)) in
      t.stats.backoff_total_ms <- t.stats.backoff_total_ms +. pause;
      if pause > 0.0 then Unix.sleepf (pause /. 1000.0);
      t.stats.retries <- t.stats.retries + 1;
      attempt (n + 1) (retries + 1)
    | exception exn -> O_failed (exn, retries)
  in
  (* Residency warming is an explicit-copy concept — under the paged
     backend device residency is page state, not warm units — so the
     caller skips the warm for paged requests. *)
  let warmable = device_used && backend = Mem_backend.Explicit in
  (attempt 1 0, key, compiled, hitmiss, fuel, warmable)

(* Degraded runs an open breaker serves before a half-open probe. *)
let circuit_probation = 2

let finish_breaker st ~threshold ~trips exn_opt =
  match exn_opt with
  | None ->
    st.t_consec <- 0;
    if st.t_breaker = Half_open then st.t_breaker <- Closed
  | Some exn when is_circuit_failure exn ->
    st.t_consec <- st.t_consec + 1;
    if st.t_breaker = Half_open || st.t_consec >= threshold then begin
      st.t_breaker <- Open circuit_probation;
      st.t_trips <- st.t_trips + 1;
      incr trips
    end
  | Some _ -> ()

let process_raw t (req : Wire.request) : Wire.reply =
  let st = tenant_state t req.rq_tenant in
  let t0 = Unix.gettimeofday () in
  let wall_ms () = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let degraded, mode =
    match st.t_breaker with
    | Open _ when not req.rq_strict -> (true, "seq")
    | _ -> (false, req.rq_mode)
  in
  match st.t_breaker with
  | Open _ when req.rq_strict ->
    t.stats.circuit_rejected <- t.stats.circuit_rejected + 1;
    reply ~id:req.rq_id ~wall_ms:(wall_ms ())
      ~exit_code:Diagnostics.exit_circuit_open
      ~error:
        (Errors.render_circuit_open ~tenant:st.t_name ~failures:st.t_consec)
      Wire.Circuit_open
  | _ -> (
    let trips = ref 0 in
    match execute t req ~mode with
    | outcome, key, compiled, hitmiss, fuel, warmable ->
      let cache = match hitmiss with `Hit -> "hit" | `Miss -> "miss" in
      (* An open breaker heals through degraded runs: each one consumes
         probation; at zero the next request probes the device path. *)
      if degraded then begin
        t.stats.degraded_runs <- t.stats.degraded_runs + 1;
        match st.t_breaker with
        | Open left when left <= 1 -> st.t_breaker <- Half_open
        | Open left -> st.t_breaker <- Open (left - 1)
        | _ -> ()
      end;
      let r =
        match outcome with
        | O_ok (r, retries) ->
          (if not degraded then
             finish_breaker st ~threshold:t.cfg.circuit_threshold ~trips
               None);
          if
            r.Interp.leaks.Runtime.resident_nonglobal <> 0
            || r.Interp.leaks.Runtime.leaked_dev_blocks <> 0
          then begin
            t.stats.failed <- t.stats.failed + 1;
            reply ~id:req.rq_id ~wall_ms:(wall_ms ()) ~cache
              ~exit_code:Diagnostics.exit_runtime
              ~error:"cgcm serve: request leaked device residency"
              Wire.Error
          end
          else begin
            t.stats.ok <- t.stats.ok + 1;
            if warmable && not degraded then
              warm_after t ~tenant:req.rq_tenant ~key ~mode
                ~source:req.rq_source compiled;
            reply ~id:req.rq_id ~wall_ms:(wall_ms ()) ~cache ~degraded
              ~retries ~output:r.Interp.output
              ~exit_code:(Int64.to_int r.Interp.exit_code) Wire.Ok
          end
        | O_deadline ->
          t.stats.deadline_exceeded <- t.stats.deadline_exceeded + 1;
          reply ~id:req.rq_id ~wall_ms:(wall_ms ()) ~cache ~degraded
            ~exit_code:Diagnostics.exit_deadline
            ~error:(Errors.render_deadline ~deadline:fuel)
            Wire.Deadline_exceeded
        | O_failed (exn, retries) ->
          (if not degraded then
             finish_breaker st ~threshold:t.cfg.circuit_threshold ~trips
               (Some exn));
          t.stats.failed <- t.stats.failed + 1;
          let code, msg =
            match Diagnostics.classify exn with
            | Some cm -> cm
            | None -> (Diagnostics.exit_internal, Printexc.to_string exn)
          in
          reply ~id:req.rq_id ~wall_ms:(wall_ms ()) ~cache ~degraded
            ~retries ~exit_code:code ~error:msg Wire.Error
      in
      t.stats.circuit_trips <- t.stats.circuit_trips + !trips;
      r
    | exception exn ->
      (* Compilation (or plan resolution) failed before any execution:
         the program's fault, not the tenant's. *)
      t.stats.failed <- t.stats.failed + 1;
      let code, msg =
        match Diagnostics.classify exn with
        | Some cm -> cm
        | None -> (Diagnostics.exit_internal, Printexc.to_string exn)
      in
      reply ~id:req.rq_id ~wall_ms:(wall_ms ()) ~exit_code:code ~error:msg
        Wire.Error)

let breaker_to_journal = function
  | Closed -> Journal.B_closed
  | Open n -> Journal.B_open n
  | Half_open -> Journal.B_half_open

let breaker_of_journal = function
  | Journal.B_closed -> Closed
  | Journal.B_open n -> Open n
  | Journal.B_half_open -> Half_open

(* A breaker transition is a durable verdict about the tenant's device
   path; journal it so a restarted daemon neither forgets an open
   circuit (letting a failing tenant hammer the device again) nor
   invents one. *)
let process t (req : Wire.request) : Wire.reply =
  let st = tenant_state t req.rq_tenant in
  let before = (st.t_breaker, st.t_consec, st.t_trips) in
  let r = process_raw t req in
  if (st.t_breaker, st.t_consec, st.t_trips) <> before then
    journal_append t
      (Journal.Breaker
         {
           jt_name = st.t_name;
           jt_breaker = breaker_to_journal st.t_breaker;
           jt_consec = st.t_consec;
           jt_trips = st.t_trips;
         });
  r

(* Crash-only discipline: every request leaves the shared state audited.
   An invariant violation here is a daemon bug and must escape loudly
   rather than serve further requests from corrupt state. *)
let step t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some (req, deliver) ->
    let r = process t req in
    Residency.check_invariants t.res;
    deliver r;
    true

let drain t = while step t do () done

let shutdown t =
  drain t;
  let residual = Residency.shutdown t.res in
  Option.iter Journal.close t.journal;
  residual

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Rebuild from a replayed journal: recompile every journaled (mode,
   source), rewarm the residency manifest, restore breaker states and
   advance the device generation to its journaled high-water mark.

   Soundness: compilation is deterministic, and [warm_after] always
   establishes the same deterministic residency (the warm entries' host
   contents are [Residency]'s deterministic per-name pattern), so the
   rebuilt state is exactly what a fresh daemon would hold after
   serving the same requests — which is why every post-recovery reply
   stays bit-identical to a fresh single-shot run. Device memory
   contents lost in the crash are not resurrected; they are re-derived.

   Corrupt records (unknown mode, unparseable source, key mismatch) are
   skipped and counted rather than fatal: recovery must always yield a
   serving daemon. *)
let recover t (rp : Journal.replay) : recovery =
  let st = rp.Journal.rp_state in
  t.journaling <- false;
  let compiled = ref 0 and rewarmed = ref 0 and skipped = ref 0 in
  List.iter
    (fun (c : Journal.compile_rec) ->
      match parse_mode c.jc_mode with
      | execution, _ -> (
        match compiled_of t ~mode:c.jc_mode execution c.jc_source with
        | _ -> incr compiled
        | exception _ -> incr skipped)
      | exception _ -> incr skipped)
    st.Journal.js_compiles;
  List.iter
    (fun (w : Journal.warm_rec) ->
      match parse_mode w.jw_mode with
      | execution, _ -> (
        match compiled_of t ~mode:w.jw_mode execution w.jw_source with
        | entry, _ ->
          let key = cache_key execution w.jw_source in
          if key = w.jw_key then begin
            warm_after t ~tenant:w.jw_tenant ~key ~mode:w.jw_mode
              ~source:w.jw_source entry.compiled;
            incr rewarmed
          end
          else incr skipped
        | exception _ -> incr skipped)
      | exception _ -> incr skipped)
    st.Journal.js_warm;
  List.iter
    (fun (tr : Journal.tenant_rec) ->
      let ts = tenant_state t tr.jt_name in
      ts.t_breaker <- breaker_of_journal tr.jt_breaker;
      ts.t_consec <- tr.jt_consec;
      ts.t_trips <- tr.jt_trips)
    st.Journal.js_tenants;
  let dev = Residency.device t.res in
  dev.Device.globals_gen <-
    max dev.Device.globals_gen st.Journal.js_globals_gen;
  Residency.check_invariants t.res;
  t.journaling <- true;
  let info =
    {
      rec_records = rp.Journal.rp_records;
      rec_torn = rp.Journal.rp_torn;
      rec_compiled = !compiled;
      rec_rewarmed = !rewarmed;
      rec_tenants = List.length st.Journal.js_tenants;
      rec_skipped = !skipped;
    }
  in
  t.recovered <- Some info;
  info

let final_line_of ~(stats : stats) ~cross_evictions ~cache_hit_rate ~residual
    =
  Printf.sprintf
    "serve: received=%d ok=%d shed=%d deadline=%d circuit_open=%d errors=%d \
     degraded=%d retries=%d trips=%d cross_evictions=%d cache_hit_rate=%.2f \
     backoff_ms=%.1f device_leaks=%d"
    stats.received stats.ok stats.shed stats.deadline_exceeded
    stats.circuit_rejected stats.failed stats.degraded_runs stats.retries
    stats.circuit_trips cross_evictions cache_hit_rate stats.backoff_total_ms
    residual

let final_line t ~residual =
  final_line_of ~stats:t.stats
    ~cross_evictions:(Residency.cross_evictions t.res)
    ~cache_hit_rate:(cache_hit_rate t) ~residual
