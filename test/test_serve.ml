(* The serve daemon's robustness envelope, driven in-process through
   the transport-independent {!Engine} (plus one forked-daemon test over
   the real unix socket):

   - wire protocol: frames and messages round-trip, the incremental
     decoder reassembles split frames, oversized frames are rejected;
   - the compiled-module LRU: eviction order, hit/miss counters, and
     plan-keyed sharing ("opt" and "unified" share a compiled module);
   - admission control: queue overflow and warm-residency pressure both
     shed with typed [Overloaded] replies and exit code 9, and a
     device-memory shed evicts warmth so the daemon degrades instead of
     wedging;
   - deadlines: fuel exhaustion becomes [Deadline_exceeded]/exit 10;
   - retry: injected transient faults re-run and still produce the
     fault-free output;
   - the per-tenant circuit breaker: trips after consecutive failures,
     rejects strict requests with [Circuit_open]/exit 11, degrades the
     rest to CPU-only runs, and heals through probation and a half-open
     probe;
   - cross-tenant eviction (the warm-data residency contract): tenant
     A's scribbled device data survives tenant B's memory pressure
     byte-exactly, with the observable [globals_gen] bump;
   - the soak: tenants x requests x seeded faults, every [Ok] reply
     bit-identical to a fresh single-shot [Pipeline.run], zero leaks,
     clean shutdown, and the final stats line showing the envelope
     actually fired;
   - crash recovery: the write-ahead journal round-trips, tolerates
     torn tails and CRC flips, bounds itself by snapshot rotation, and
     [Engine.recover] rebuilds caches, warm residency and breaker
     state so post-recovery replies are cache hits bit-identical to
     fresh runs (the forked kill -9 version is [cgcm chaos]);
   - lifecycle hardening: hostile frame headers rejected before
     buffering, graceful drain finishing in-flight work with typed
     sheds for latecomers, stale sockets reclaimed and live ones
     refused, client timeouts against wedged daemons. *)

module Json = Cgcm_serve.Json
module Wire = Cgcm_serve.Wire
module Journal = Cgcm_serve.Journal
module Errors = Cgcm_support.Errors
module Cache = Cgcm_serve.Cache
module Residency = Cgcm_serve.Residency
module Engine = Cgcm_serve.Engine
module Shard = Cgcm_serve.Shard
module Server = Cgcm_serve.Server
module Client = Cgcm_serve.Client
module Loadgen = Cgcm_serve.Loadgen
module Pipeline = Cgcm_core.Pipeline
module Diagnostics = Cgcm_core.Diagnostics
module Interp = Cgcm_interp.Interp
module Runtime = Cgcm_runtime.Runtime
module Device = Cgcm_gpusim.Device
module Memspace = Cgcm_memory.Memspace
module Mem_backend = Cgcm_runtime.Mem_backend
module Cost_model = Cgcm_gpusim.Cost_model
module Polybench = Cgcm_progs.Polybench

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let request ?(id = 1) ?(tenant = "t0") ?(mode = "opt") ?deadline
    ?(strict = false) ?faults source : Wire.request =
  {
    Wire.rq_id = id;
    rq_tenant = tenant;
    rq_source = source;
    rq_mode = mode;
    rq_deadline = deadline;
    rq_strict = strict;
    rq_faults = faults;
  }

let status_name s = Wire.status_name s

let check_status name expect (r : Wire.reply) =
  check Alcotest.string name (status_name expect) (status_name r.Wire.rp_status)

(* Fresh single-shot reference for bit-identity checks: the same
   (output, exit code) a standalone [cgcm run] of this mode produces. *)
let reference_tbl : (string, string * int) Hashtbl.t = Hashtbl.create 16

let reference ~mode source =
  let key = mode ^ "\x00" ^ source in
  match Hashtbl.find_opt reference_tbl key with
  | Some v -> v
  | None ->
    let base, backend =
      match String.index_opt mode '+' with
      | None -> (mode, Mem_backend.Explicit)
      | Some i -> (
        match
          Mem_backend.of_string
            (String.sub mode (i + 1) (String.length mode - i - 1))
        with
        | Ok bk -> (String.sub mode 0 i, bk)
        | Error e -> Alcotest.fail e)
    in
    let exec =
      match base with
      | "seq" -> Pipeline.Sequential
      | "unopt" -> Pipeline.Cgcm_unoptimized
      | "opt" -> Pipeline.Cgcm_optimized
      | "ie" -> Pipeline.Inspector_executor_exec
      | "unified" -> Pipeline.Unified_oracle Pipeline.Optimized
      | m -> Alcotest.failf "unknown mode %s" m
    in
    let _, r = Pipeline.run ~backend exec source in
    let v = (r.Interp.output, Int64.to_int r.Interp.exit_code) in
    Hashtbl.replace reference_tbl key v;
    v

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let test_wire_round_trip () =
  let req =
    request ~id:42 ~tenant:"alice" ~mode:"unopt" ~deadline:12345 ~strict:true
      ~faults:"7:htod%0.5" "int main() { return 0; }"
  in
  let req' = Wire.request_of_json (Json.parse (Json.print (Wire.request_to_json req))) in
  check Alcotest.bool "request round-trips" true (req = req');
  let rp =
    {
      Wire.rp_id = 42;
      rp_status = Wire.Deadline_exceeded;
      rp_output = "1 2 3\n";
      rp_exit_code = 10;
      rp_error = "cgcm serve: deadline exceeded";
      rp_cache = "hit";
      rp_degraded = true;
      rp_retries = 2;
      rp_wall_ms = 1.5;
    }
  in
  let rp' = Wire.reply_of_json (Json.parse (Json.print (Wire.reply_to_json rp))) in
  check Alcotest.bool "reply round-trips" true (rp = rp');
  (* a minimal hand-written client may omit optional fields *)
  let sparse = Wire.request_of_json (Json.parse {|{"source":"int main(){}"}|}) in
  check Alcotest.bool "strict defaults to false" false sparse.Wire.rq_strict;
  check Alcotest.string "tenant defaults" "anonymous" sparse.Wire.rq_tenant

let test_wire_decoder_reassembles () =
  let v1 = Json.Obj [ ("op", Json.Str "ping"); ("n", Json.Int 1) ] in
  let v2 = Json.Obj [ ("op", Json.Str "ping"); ("n", Json.Int 2) ] in
  let stream =
    Bytes.concat Bytes.empty [ Wire.encode_frame v1; Wire.encode_frame v2 ]
  in
  (* feed in 3-byte slivers: headers and payloads arrive split *)
  let dec = Wire.decoder () in
  let got = ref [] in
  let i = ref 0 in
  while !i < Bytes.length stream do
    let n = min 3 (Bytes.length stream - !i) in
    Wire.decoder_feed dec (Bytes.sub stream !i n) n;
    got := !got @ Wire.decoder_drain dec;
    i := !i + n
  done;
  check Alcotest.int "two frames" 2 (List.length !got);
  check Alcotest.bool "in order, intact" true
    (!got = [ v1; v2 ])

let test_wire_frame_cap () =
  (* a header announcing an absurd frame is a protocol error, not a
     buffering obligation *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  let dec = Wire.decoder () in
  let rejected =
    try
      Wire.decoder_feed dec header 4;
      ignore (Wire.decoder_drain dec : Json.t list);
      false
    with Wire.Protocol_error _ -> true
  in
  check Alcotest.bool "oversized frame rejected" true rejected

(* ------------------------------------------------------------------ *)
(* The compiled-module LRU                                             *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  check Alcotest.bool "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.bool "a hits" true (Cache.find c "a" = Some 1);
  (* b is now the LRU entry; inserting c evicts it *)
  Cache.add c "c" 3;
  check Alcotest.bool "b evicted" true (Cache.find c "b" = None);
  check Alcotest.bool "a survives" true (Cache.find c "a" = Some 1);
  check Alcotest.bool "c present" true (Cache.find c "c" = Some 3);
  let v, tag = Cache.find_or_add c "d" (fun () -> 4) in
  check Alcotest.bool "find_or_add misses" true (v = 4 && tag = `Miss);
  let v, tag = Cache.find_or_add c "d" (fun () -> 99) in
  check Alcotest.bool "find_or_add hits" true (v = 4 && tag = `Hit);
  let s = Cache.stats c in
  check Alcotest.int "entries bounded" 2 s.Cache.entries;
  check Alcotest.int "evictions counted" 2 s.Cache.evictions;
  check Alcotest.bool "hits and misses counted" true
    (s.Cache.hits > 0 && s.Cache.misses > 0)

let test_cache_shared_across_tenants_and_plans () =
  let eng = Engine.create () in
  let src = Loadgen.source ~variant:0 in
  let r1 = Engine.process eng (request ~id:1 ~tenant:"a" ~mode:"opt" src) in
  check Alcotest.string "first compile misses" "miss" r1.Wire.rp_cache;
  let r2 = Engine.process eng (request ~id:2 ~tenant:"b" ~mode:"opt" src) in
  check Alcotest.string "other tenant hits" "hit" r2.Wire.rp_cache;
  (* "unified" shares the optimized compile plan, so it hits too *)
  let r3 = Engine.process eng (request ~id:3 ~tenant:"c" ~mode:"unified" src) in
  check Alcotest.string "unified shares opt's module" "hit" r3.Wire.rp_cache;
  let s = Engine.cache_stats eng in
  check Alcotest.int "one compiled module" 1 s.Cache.entries;
  check Alcotest.bool "hit rate positive" true (Engine.cache_hit_rate eng > 0.0);
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* A cache hit runs the program the entry prepared for the request's
   variant. The same request three times: the hit replies carry the
   miss reply's bytes, but for the cache tag and the wall time, and
   every reply matches a fresh single-shot run. "opt" and "opt+paged"
   share an entry, so "opt+paged" hits from its first request and
   prepares a second program there. *)
let test_hits_reuse_programs () =
  let eng = Engine.create () in
  let src = Loadgen.source ~variant:1 in
  let bytes (r : Wire.reply) =
    Bytes.to_string
      (Wire.encode_frame
         (Wire.reply_to_json { r with Wire.rp_cache = "-"; rp_wall_ms = 0.0 }))
  in
  List.iter
    (fun (mode, tags) ->
      let replies = List.init 3 (fun _ -> Engine.process eng (request ~mode src)) in
      check Alcotest.(list string) (mode ^ " cache tags") tags
        (List.map (fun (r : Wire.reply) -> r.Wire.rp_cache) replies);
      let first = List.hd replies in
      check_status (mode ^ " ok") Wire.Ok first;
      let out, code = reference ~mode src in
      check Alcotest.string (mode ^ " output") out first.Wire.rp_output;
      check Alcotest.int (mode ^ " exit code") code first.Wire.rp_exit_code;
      List.iter
        (fun r -> check Alcotest.string (mode ^ " reply bytes") (bytes first) (bytes r))
        replies)
    [
      ("opt", [ "miss"; "hit"; "hit" ]);
      ("opt+paged", [ "hit"; "hit"; "hit" ]);
      ("unopt", [ "miss"; "hit"; "hit" ]);
      ("seq", [ "miss"; "hit"; "hit" ]);
    ];
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let test_admission_queue_shed () =
  let config = { Engine.default_config with max_queue = 2 } in
  let eng = Engine.create ~config () in
  let replies = ref [] in
  let deliver r = replies := r :: !replies in
  let src = Loadgen.source ~variant:0 in
  let submit id = Engine.submit eng (request ~id src) deliver in
  check Alcotest.bool "first queued" true (submit 1 = `Queued);
  check Alcotest.bool "second queued" true (submit 2 = `Queued);
  check Alcotest.bool "third shed" true (submit 3 = `Shed);
  (* the shed reply is typed and immediate, ahead of any execution *)
  (match !replies with
  | [ r ] ->
    check_status "shed status" Wire.Overloaded r;
    check Alcotest.int "shed exit code" Diagnostics.exit_overloaded
      r.Wire.rp_exit_code;
    check Alcotest.bool "shed names the queue" true
      (String.length r.Wire.rp_error > 0
      && contains ~affix:"overloaded (queue)" r.Wire.rp_error)
  | _ -> Alcotest.fail "expected exactly the shed reply before draining");
  Engine.drain eng;
  check Alcotest.int "queued requests executed" 3 (List.length !replies);
  let ok = List.filter (fun r -> r.Wire.rp_status = Wire.Ok) !replies in
  check Alcotest.int "both admitted requests succeeded" 2 (List.length ok);
  check Alcotest.int "stats shed" 1 (Engine.stats eng).Engine.shed;
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

let test_admission_device_mem_shed_and_relief () =
  (* Warm residency past the high-water mark (0.9 of device_mem), then
     watch admission shed and the relief eviction clear the pressure.
     The three warming runs leave 3,072 warm bytes, past 0.9 of 3,200. *)
  let config = { Engine.default_config with device_mem = 3200 } in
  let eng = Engine.create ~config () in
  (* process (not submit) so admission is not in the way while warming:
     each opt run leaves its tenant's globals device-resident *)
  List.iter
    (fun (id, tenant, variant) ->
      let r =
        Engine.process eng
          (request ~id ~tenant (Loadgen.source ~variant))
      in
      check_status "warming run ok" Wire.Ok r)
    [ (1, "a", 0); (2, "b", 1); (3, "a", 2) ];
  let res = Engine.residency eng in
  check Alcotest.bool "warm past high water" true
    (float_of_int (Residency.warm_bytes res)
    >= 0.9 *. float_of_int 3200);
  let replies = ref [] in
  let deliver r = replies := r :: !replies in
  let rec admit tries id =
    if tries > 10 then Alcotest.fail "device-mem shed never relieved"
    else
      match
        Engine.submit eng (request ~id ~tenant:"c" (Loadgen.source ~variant:3))
          deliver
      with
      | `Queued -> ()
      | `Shed -> admit (tries + 1) (id + 1)
  in
  admit 0 10;
  (* at least one shed happened, each shed evicted one warm LRU unit,
     and the reply is the typed device-mem rejection *)
  check Alcotest.bool "shed at least once" true
    ((Engine.stats eng).Engine.shed >= 1);
  (match !replies with
  | r :: _ ->
    check_status "device-mem shed status" Wire.Overloaded r;
    check Alcotest.bool "shed names device-mem" true
      (contains ~affix:"overloaded (device-mem)" r.Wire.rp_error)
  | [] -> Alcotest.fail "expected at least one shed reply");
  check Alcotest.bool "relief evicted warmth" true
    (Residency.cross_evictions res >= 1);
  Engine.drain eng;
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_deadline () =
  let eng = Engine.create () in
  let r =
    Engine.process eng
      (request ~id:1 ~mode:"seq" ~deadline:20_000 Loadgen.spin_source)
  in
  check_status "deadline status" Wire.Deadline_exceeded r;
  check Alcotest.int "deadline exit code" Diagnostics.exit_deadline
    r.Wire.rp_exit_code;
  check Alcotest.bool "deadline names the budget" true
    (contains ~affix:"budget of 20000 fuel" r.Wire.rp_error);
  check Alcotest.int "counted" 1 (Engine.stats eng).Engine.deadline_exceeded;
  (* an ordinary request still completes under the default budget *)
  let r2 = Engine.process eng (request ~id:2 (Loadgen.source ~variant:0)) in
  check_status "normal request ok" Wire.Ok r2;
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)

let test_retry_preserves_output () =
  (* Injected transient faults are retried with a fresh fault substream;
     some seed in a small window yields "first attempt failed, a retry
     succeeded", and the output must match the fault-free run. *)
  let src = Loadgen.source ~variant:1 in
  let want_output, want_exit = reference ~mode:"opt" src in
  let rec search seed =
    if seed > 60 then Alcotest.fail "no seed exercised a successful retry"
    else
      let eng = Engine.create () in
      let r =
        Engine.process eng
          (request ~id:seed ~faults:(Printf.sprintf "%d:htod%%0.5" seed) src)
      in
      let retried = r.Wire.rp_status = Wire.Ok && r.Wire.rp_retries >= 1 in
      if retried then begin
        check Alcotest.string "retried output bit-identical" want_output
          r.Wire.rp_output;
        check Alcotest.int "retried exit code" want_exit r.Wire.rp_exit_code;
        check Alcotest.bool "retries counted" true
          ((Engine.stats eng).Engine.retries >= 1);
        check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)
      end
      else begin
        ignore (Engine.shutdown eng : int);
        search (seed + 1)
      end
  in
  search 1

(* ------------------------------------------------------------------ *)
(* The per-tenant circuit breaker                                      *)

let test_circuit_breaker_lifecycle () =
  let eng = Engine.create () in
  let src = Loadgen.source ~variant:0 in
  let poison id =
    Engine.process eng
      (request ~id ~tenant:"alice" ~faults:"7:htod%1.0,launch%1.0" src)
  in
  (* three consecutive device-path failures trip the breaker *)
  for id = 1 to 3 do
    check_status "poisoned run fails" Wire.Error (poison id)
  done;
  check Alcotest.bool "breaker open" true
    (match Engine.breaker_of eng "alice" with
    | Engine.Open _ -> true
    | _ -> false);
  check Alcotest.int "one trip" 1 (Engine.trips_of eng "alice");
  (* strict requests are rejected outright with the typed code *)
  let r = Engine.process eng (request ~id:4 ~tenant:"alice" ~strict:true src) in
  check_status "strict rejected" Wire.Circuit_open r;
  check Alcotest.int "circuit-open exit code" Diagnostics.exit_circuit_open
    r.Wire.rp_exit_code;
  check Alcotest.bool "rejection names the tenant" true
    (contains ~affix:"circuit open for tenant alice"
       r.Wire.rp_error);
  (* non-strict requests degrade to CPU-only and still answer correctly *)
  let seq_output, seq_exit = reference ~mode:"seq" src in
  let degraded id =
    let r = Engine.process eng (request ~id ~tenant:"alice" src) in
    check_status "degraded run ok" Wire.Ok r;
    check Alcotest.bool "marked degraded" true r.Wire.rp_degraded;
    check Alcotest.string "degraded output is the CPU answer" seq_output
      r.Wire.rp_output;
    check Alcotest.int "degraded exit code" seq_exit r.Wire.rp_exit_code
  in
  degraded 5;
  degraded 6;
  (* probation spent: the breaker half-opens and a healthy probe closes it *)
  check Alcotest.bool "half-open after probation" true
    (Engine.breaker_of eng "alice" = Engine.Half_open);
  let r = Engine.process eng (request ~id:7 ~tenant:"alice" src) in
  check_status "probe succeeds" Wire.Ok r;
  check Alcotest.bool "probe not degraded" false r.Wire.rp_degraded;
  check Alcotest.bool "breaker closed" true
    (Engine.breaker_of eng "alice" = Engine.Closed);
  (* other tenants were never affected *)
  check Alcotest.bool "bob unaffected" true
    (Engine.breaker_of eng "bob" = Engine.Closed);
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* ------------------------------------------------------------------ *)
(* Cross-tenant eviction: the satellite-3 residency contract           *)

let test_cross_tenant_eviction_write_back () =
  let res = Residency.create ~device_mem:2048 () in
  let dev = Residency.device res in
  check Alcotest.bool "alice warms" true
    (Residency.warm res ~tenant:"alice" ~key:"k" ~globals:[ ("g", 1024) ]);
  check Alcotest.int "alice resident" 1024 (Residency.warm_bytes res);
  let alice = Option.get (Residency.find res ~tenant:"alice" ~key:"k") in
  let _, base, size =
    match Residency.entry_units alice with
    | [ u ] -> u
    | us -> Alcotest.failf "expected one warm unit, got %d" (List.length us)
  in
  let rt = Residency.entry_runtime alice in
  let devptr = Option.get (Runtime.lookup_unit rt base).Runtime.devptr in
  (* scribble the device copy directly — a stand-in for kernel output
     that exists only on the device — and mark the epoch advanced, as a
     kernel launch would *)
  let scribble = Bytes.init size (fun i -> Char.chr ((i * 7 + 0xab) land 0xff)) in
  Memspace.write_bytes dev.Device.mem devptr scribble;
  Runtime.bump_epoch rt;
  check Alcotest.bool "scribble differs from host copy" true
    (Residency.host_bytes alice "g" <> scribble);
  let gen0 = dev.Device.globals_gen in
  (* bob's warmth cannot fit beside alice's: 1024 + 1536 > 2048, so
     warming bob must evict alice's unit across tenants *)
  check Alcotest.bool "bob warms under pressure" true
    (Residency.warm res ~tenant:"bob" ~key:"k" ~globals:[ ("h", 1536) ]);
  check Alcotest.bool "a cross-tenant eviction happened" true
    (Residency.cross_evictions res >= 1);
  check Alcotest.int "alice no longer resident" 0
    (Residency.entry_resident_bytes alice);
  check Alcotest.bool "alice's device data written back byte-exactly" true
    (Bytes.equal (Residency.host_bytes alice "g") scribble);
  check Alcotest.bool "globals_gen invalidation observed" true
    (dev.Device.globals_gen > gen0);
  Residency.check_invariants res;
  (* re-warming alice refills the device from the written-back bytes
     (and in turn pressures bob out) *)
  check Alcotest.bool "alice re-warms" true
    (Residency.warm res ~tenant:"alice" ~key:"k" ~globals:[ ("g", 1024) ]);
  let alice = Option.get (Residency.find res ~tenant:"alice" ~key:"k") in
  let _, base, size = List.hd (Residency.entry_units alice) in
  let rt = Residency.entry_runtime alice in
  let devptr = Option.get (Runtime.lookup_unit rt base).Runtime.devptr in
  check Alcotest.bool "device refilled from written-back bytes" true
    (Bytes.equal (Memspace.read_bytes dev.Device.mem devptr size) scribble);
  Residency.check_invariants res;
  check Alcotest.int "clean teardown" 0 (Residency.shutdown res)

(* ------------------------------------------------------------------ *)
(* The shared-device audit                                             *)

(* Every warm entry's run-time shares the daemon's device, so the audit
   checks each entry's units and then asks, once for the whole device,
   whether every driver-heap block belongs to some entry. *)

let audit_fails ~affix res =
  match Residency.check_invariants res with
  | exception Runtime.Runtime_error e ->
    check Alcotest.bool
      (Printf.sprintf "reason mentions %S: %s" affix e.Errors.reason)
      true
      (contains ~affix e.Errors.reason);
    e
  | () -> Alcotest.failf "the audit missed a %s" affix

let warm_many n =
  let res = Residency.create ~device_mem:max_int () in
  let keys =
    List.init n (fun i -> (Printf.sprintf "t%d" (i mod 7), Printf.sprintf "k%03d" i))
  in
  List.iter
    (fun (tenant, key) ->
      check Alcotest.bool "warms" true
        (Residency.warm res ~tenant ~key ~globals:[ ("g", 64); ("h", 24) ]))
    keys;
  (res, keys)

let test_shared_audit_many_entries () =
  let res, _ = warm_many 300 in
  check Alcotest.int "300 warm entries" 300 (Residency.warm_entries res);
  Residency.check_invariants res;
  check Alcotest.int "clean teardown" 0 (Residency.shutdown res)

let test_shared_audit_orphan () =
  let res, _ = warm_many 40 in
  let dev = Residency.device res in
  let d, _ = Device.mem_alloc dev ~now:0.0 128 in
  let e = audit_fails ~affix:"orphaned device block" res in
  check Alcotest.(option int) "orphan address" (Some d) e.Errors.addr;
  ignore (Device.mem_free dev ~now:0.0 d : float);
  Residency.check_invariants res;
  check Alcotest.int "clean teardown" 0 (Residency.shutdown res)

let test_shared_audit_dangling () =
  let res, keys = warm_many 60 in
  let dev = Residency.device res in
  (* the first, a middle and the last entry warmed: the forward check
     runs on every entry, so the owner's position does not matter *)
  List.iter
    (fun i ->
      let tenant, key = List.nth keys i in
      let entry = Option.get (Residency.find res ~tenant ~key) in
      let rt = Residency.entry_runtime entry in
      let pref, base, _ = List.hd (Residency.entry_units entry) in
      let info = Runtime.lookup_unit rt base in
      Memspace.free dev.Device.mem (Option.get info.Runtime.devptr);
      let e = audit_fails ~affix:"dangling devptr" res in
      check Alcotest.(option int) "unit base" (Some base) e.Errors.addr;
      check Alcotest.(option string) "owning entry's global" (Some pref)
        (Option.bind e.Errors.unit_ (fun u -> u.Errors.u_global));
      (* repair: the unit is simply no longer resident *)
      info.Runtime.devptr <- None;
      Residency.check_invariants res)
    [ 0; 30; 59 ];
  check Alcotest.int "clean teardown" 0 (Residency.shutdown res)

let test_check_owned_siblings () =
  let dev = Device.create Cost_model.default in
  let runtime name =
    let host =
      Memspace.create ~name ~range_lo:0x10_0000 ~range_hi:0x4000_0000
    in
    let rt = Runtime.create ~host ~dev () in
    let base = Memspace.alloc host 32 in
    Runtime.register_heap rt ~base ~size:32;
    ignore (Runtime.map rt base : int);
    rt
  in
  let a = runtime "a" and b = runtime "b" in
  Runtime.audit dev [ a; b ];
  (* audited alone, each run-time sees its sibling's block as an orphan:
     the verdict the old per-run-time reverse check gave on a shared
     device *)
  List.iter
    (fun rt ->
      match Runtime.check_invariants rt with
      | exception Runtime.Runtime_error e ->
        check Alcotest.bool "orphan" true
          (contains ~affix:"orphaned device block" e.Errors.reason)
      | () -> Alcotest.fail "a sibling's block went unnoticed")
    [ a; b ]

(* Nonce-unique PolyBench requests across the explicit and paged
   backends: every request is a cache miss, every explicit device run
   adds a warm entry, and the audit after each step covers them all. *)
let test_engine_audit_growing_residency () =
  let eng = Engine.create () in
  let gens =
    [|
      (fun n -> Polybench.gemm ~n ());
      (fun n -> Polybench.atax ~n ());
      (fun n -> Polybench.bicg ~n ());
      (fun n -> Polybench.gesummv ~n ());
      (fun n -> Polybench.doitgen ~n ());
      (fun n -> Polybench.covariance ~n ());
      (fun n -> Polybench.lu ~n ());
      (fun n -> Polybench.twomm ~n ());
    |]
  in
  let modes = [| "opt"; "unopt"; "opt+paged"; "seq" |] in
  let explicit = ref 0 in
  for k = 0 to 63 do
    let mode = modes.(k mod 4) in
    let source =
      Printf.sprintf "// nonce %d\n%s" k
        (gens.(k / 4 mod 8) (6 + (k / 32)))
    in
    let req =
      request ~id:k ~tenant:(Printf.sprintf "t%d" (k mod 3)) ~mode source
    in
    let got = ref None in
    check Alcotest.bool "queued" true
      (Engine.submit eng req (fun r -> got := Some r) = `Queued);
    check Alcotest.bool "stepped" true (Engine.step eng);
    let r = Option.get !got in
    check_status (Printf.sprintf "request %d (%s)" k mode) Wire.Ok r;
    check Alcotest.string "miss" "miss" r.Wire.rp_cache;
    let want_output, want_exit = reference ~mode source in
    check Alcotest.string "output" want_output r.Wire.rp_output;
    check Alcotest.int "exit code" want_exit r.Wire.rp_exit_code;
    if mode = "opt" || mode = "unopt" then incr explicit;
    check Alcotest.int "one warm entry per explicit request" !explicit
      (Residency.warm_entries (Engine.residency eng))
  done;
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

(* ------------------------------------------------------------------ *)
(* The soak: the issue's acceptance scenario, engine-level             *)

let test_soak () =
  let config =
    {
      Engine.max_queue = 6;
      device_mem = 64 * 1024;
      faults = Some (Cgcm_gpusim.Faults.parse "13:htod%0.05,launch%0.05,alloc%0.03");
    }
  in
  let eng = Engine.create ~config () in
  let total = 160 in
  let modes = [| "opt"; "opt"; "unopt"; "seq"; "unified"; "ie" |] in
  let plan k : Wire.request =
    if k mod 9 = 5 then
      (* the poison tenant's driver always faults; non-strict, so once
         its breaker opens it degrades and heals. (On the k mod 9 = 5
         schedule poison requests never coincide with the saturated
         queue's shed phase, so they actually execute and feed the
         breaker.) *)
      request ~id:k ~tenant:"poison"
        ~faults:"7:htod%1.0,launch%1.0"
        (Loadgen.source ~variant:(k mod 4))
    else if k mod 17 = 3 then
      request ~id:k
        ~tenant:(Printf.sprintf "t%d" (k mod 4))
        ~mode:"seq" ~deadline:20_000 Loadgen.spin_source
    else
      request ~id:k
        ~tenant:(Printf.sprintf "t%d" (k mod 4))
        ~mode:modes.(k mod 6)
        (Loadgen.source ~variant:(k * 7 mod 4))
  in
  let requests : (int, Wire.request) Hashtbl.t = Hashtbl.create total in
  let replies : (int, Wire.reply) Hashtbl.t = Hashtbl.create total in
  for k = 0 to total - 1 do
    let req = plan k in
    Hashtbl.replace requests k req;
    ignore
      (Engine.submit eng req (fun r -> Hashtbl.replace replies r.Wire.rp_id r)
        : [ `Queued | `Shed ]);
    (* execute two of every three submissions as we go: the queue grows
       slowly, overflows, and admission control genuinely sheds *)
    if k mod 3 <> 0 then ignore (Engine.step eng : bool)
  done;
  Engine.drain eng;
  check Alcotest.int "every request answered" total (Hashtbl.length replies);
  (* every Ok reply is bit-identical to a fresh single-shot run of the
     mode it actually executed (degraded replies ran CPU-only) *)
  let compared = ref 0 in
  Hashtbl.iter
    (fun k (r : Wire.reply) ->
      if r.Wire.rp_status = Wire.Ok then begin
        let req = Hashtbl.find requests k in
        let mode = if r.Wire.rp_degraded then "seq" else req.Wire.rq_mode in
        let want_output, want_exit = reference ~mode req.Wire.rq_source in
        if r.Wire.rp_output <> want_output || r.Wire.rp_exit_code <> want_exit
        then
          Alcotest.failf
            "request %d (%s, degraded=%b) diverged from single-shot: %S vs %S"
            k mode r.Wire.rp_degraded r.Wire.rp_output want_output;
        incr compared
      end)
    replies;
  let s = Engine.stats eng in
  check Alcotest.bool "a useful fraction succeeded" true (!compared >= total / 3);
  check Alcotest.bool "admission shed fired" true (s.Engine.shed >= 1);
  check Alcotest.bool "a deadline fired" true (s.Engine.deadline_exceeded >= 1);
  check Alcotest.bool "a breaker tripped" true (s.Engine.circuit_trips >= 1);
  check Alcotest.bool "degraded runs served" true (s.Engine.degraded_runs >= 1);
  check Alcotest.bool "transient faults were retried" true (s.Engine.retries >= 1);
  check Alcotest.bool "cache reheated across requests" true
    (Engine.cache_hit_rate eng > 0.0);
  check Alcotest.int "accounting adds up" s.Engine.received
    (s.Engine.ok + s.Engine.shed + s.Engine.deadline_exceeded
   + s.Engine.circuit_rejected + s.Engine.failed);
  (* crash-only teardown: zero residual device blocks, and the final
     stats line reports the envelope the soak exercised *)
  let residual = Engine.shutdown eng in
  check Alcotest.int "zero leaks at shutdown" 0 residual;
  let line = Engine.final_line eng ~residual in
  List.iter
    (fun affix ->
      check Alcotest.bool (Printf.sprintf "final line reports %s" affix) true
        (contains ~affix line))
    [
      Printf.sprintf "shed=%d" s.Engine.shed;
      Printf.sprintf "deadline=%d" s.Engine.deadline_exceeded;
      Printf.sprintf "trips=%d" s.Engine.circuit_trips;
      "device_leaks=0";
    ]

(* ------------------------------------------------------------------ *)
(* The real transport: a live daemon on a unix socket. The daemon runs
   on a thread rather than a forked process: earlier suites spawn
   domains for sharded kernel launches, and a daemon with more than one
   shard spawns one per shard, after which OCaml 5 forbids [Unix.fork].
   (The forked-process path is exercised end-to-end by [cgcm chaos],
   which kills and restarts forked daemons, and by
   [bench/main.exe -- serve].) *)

let test_socket_round_trip () =
  let path = Printf.sprintf "/tmp/cgcm-test-serve-%d.sock" (Unix.getpid ()) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Server.create ~log:(fun _ -> ()) ~socket_path:path () in
  let result = ref None in
  let daemon = Thread.create (fun () -> result := Some (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  let src = Loadgen.source ~variant:0 in
  let want_output, want_exit = reference ~mode:"opt" src in
  let r1 = Client.request ~socket_path:path (request ~id:1 ~tenant:"e2e" src) in
  check_status "first request ok" Wire.Ok r1;
  check Alcotest.string "output over the wire" want_output r1.Wire.rp_output;
  check Alcotest.int "exit code over the wire" want_exit r1.Wire.rp_exit_code;
  check Alcotest.string "first compile misses" "miss" r1.Wire.rp_cache;
  let r2 = Client.request ~socket_path:path (request ~id:2 ~tenant:"e2e" src) in
  check Alcotest.string "second request hits the cache" "hit" r2.Wire.rp_cache;
  let st = Client.stats ~socket_path:path in
  check Alcotest.int "daemon counted both" 2 (Json.int_field "received" st);
  check Alcotest.int "daemon served both" 2 (Json.int_field "ok" st);
  check Alcotest.bool "daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path);
  Thread.join daemon;
  match !result with
  | Some (line, residual) ->
    check Alcotest.int "leak-free teardown" 0 residual;
    check Alcotest.bool "final line reports no leaks" true
      (contains ~affix:"device_leaks=0" line)
  | None -> Alcotest.fail "daemon thread returned nothing"

(* ------------------------------------------------------------------ *)
(* Hostile frame headers: the decoder must reject before buffering     *)

let feed_bytes dec s = Wire.decoder_feed dec (Bytes.of_string s) (String.length s)

let expect_header_rejected name affix s =
  let dec = Wire.decoder () in
  match feed_bytes dec s with
  | () -> Alcotest.failf "%s: hostile header accepted" name
  | exception Wire.Protocol_error msg ->
    check Alcotest.bool (name ^ " names the cause") true (contains ~affix msg)

let test_wire_hostile_headers () =
  (* sign bit set: reported as the negative length the peer sent *)
  expect_header_rejected "negative length" "bad frame length -"
    "\xff\x00\x00\x01";
  expect_header_rejected "oversized length" "exceeds" "\x7f\xff\xff\xff";
  expect_header_rejected "zero length" "empty frame" "\x00\x00\x00\x00";
  (* a truncated frame is not an error — it pends, awaiting more bytes
     (the server's read deadline bounds how long) *)
  let full =
    Bytes.to_string (Wire.encode_frame (Json.Obj [ ("op", Json.Str "ping") ]))
  in
  let dec = Wire.decoder () in
  feed_bytes dec (String.sub full 0 (String.length full - 3));
  check Alcotest.bool "truncated frame pends" true (Wire.decoder_buffered dec);
  check Alcotest.int "nothing drained from a partial frame" 0
    (List.length (Wire.decoder_drain dec));
  (* a bit-flipped payload byte is a typed rejection on frame completion *)
  let flipped = Bytes.of_string full in
  Bytes.set flipped 4 (Char.chr (Char.code (Bytes.get flipped 4) lxor 0x04));
  let dec = Wire.decoder () in
  (match feed_bytes dec (Bytes.to_string flipped) with
  | () -> Alcotest.fail "bit-flipped payload accepted"
  | exception Wire.Protocol_error msg ->
    check Alcotest.bool "flip rejection is typed" true
      (contains ~affix:"bad frame" msg));
  (* after rejecting garbage, a fresh decoder still decodes clean frames *)
  let dec = Wire.decoder () in
  feed_bytes dec full;
  check Alcotest.int "clean frame after hostility" 1
    (List.length (Wire.decoder_drain dec))

(* ------------------------------------------------------------------ *)
(* The write-ahead journal                                             *)

let tmp_path name = Printf.sprintf "/tmp/cgcm-test-%s-%d" name (Unix.getpid ())

let test_journal_round_trip () =
  let path = tmp_path "journal" in
  let j = Journal.create ~path () in
  Journal.append j
    (Journal.Compile { jc_mode = "auto/optimized"; jc_source = "src-a" });
  Journal.append j
    (Journal.Warm
       ( { jw_tenant = "t0"; jw_key = "k0"; jw_mode = "opt"; jw_source = "src-a" },
         7 ));
  Journal.append j
    (Journal.Breaker
       {
         jt_name = "alice";
         jt_breaker = Journal.B_open 2;
         jt_consec = 3;
         jt_trips = 1;
       });
  check Alcotest.bool "every append fsynced at the default cadence" true
    ((Journal.stats j).Journal.j_fsyncs >= 3);
  Journal.close j;
  (match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "not torn" false rp.Journal.rp_torn;
    check Alcotest.int "three records" 3 rp.Journal.rp_records;
    let st = rp.Journal.rp_state in
    check Alcotest.int "one compile" 1 (List.length st.Journal.js_compiles);
    check Alcotest.int "one warm entry" 1 (List.length st.Journal.js_warm);
    check Alcotest.int "globals_gen carried" 7 st.Journal.js_globals_gen;
    (match st.Journal.js_tenants with
    | [ t ] ->
      check Alcotest.bool "breaker state survives" true
        (t.Journal.jt_breaker = Journal.B_open 2);
      check Alcotest.int "trips survive" 1 t.Journal.jt_trips
    | l -> Alcotest.failf "expected one tenant, got %d" (List.length l)));
  Unix.unlink path;
  check Alcotest.bool "a missing journal is a fresh start" true
    (Journal.replay ~path = None)

let test_journal_torn_tail () =
  let path = tmp_path "journal-torn" in
  let j = Journal.create ~path () in
  Journal.append j (Journal.Compile { jc_mode = "m"; jc_source = "one" });
  Journal.append j (Journal.Compile { jc_mode = "m"; jc_source = "two" });
  Journal.close j;
  (* a kill -9 mid-append: a record header promising bytes that never
     made it to disk *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let garbage = Bytes.of_string "\x00\x00\x00\x64\xde\xad\xbe\xef{\"t\":" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage) : int);
  Unix.close fd;
  (match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "torn tail detected" true rp.Journal.rp_torn;
    check Alcotest.int "intact records salvaged" 2 rp.Journal.rp_records;
    check Alcotest.int "state reflects the intact prefix" 2
      (List.length rp.Journal.rp_state.Journal.js_compiles));
  (* a flipped byte inside the second record: replay keeps the first
     and stops at the CRC mismatch *)
  let j = Journal.create ~path () in
  Journal.append j (Journal.Compile { jc_mode = "m"; jc_source = "one" });
  Journal.append j (Journal.Compile { jc_mode = "m"; jc_source = "two" });
  Journal.close j;
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string raw in
  (* layout: magic(8) rec1[len(4) crc(4) payload(len1)] rec2[...] *)
  let len1 =
    (Char.code raw.[8] lsl 24) lor (Char.code raw.[9] lsl 16)
    lor (Char.code raw.[10] lsl 8) lor Char.code raw.[11]
  in
  let rec2_payload = 8 + 8 + len1 + 8 + 2 in
  Bytes.set b rec2_payload
    (Char.chr (Char.code (Bytes.get b rec2_payload) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "CRC flip detected" true rp.Journal.rp_torn;
    check Alcotest.int "only the intact record replays" 1
      rp.Journal.rp_records);
  (* garbage where the magic should be: empty state, flagged torn *)
  let oc = open_out_bin path in
  output_string oc "NOTJOURN";
  close_out oc;
  (match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "bad magic flagged" true rp.Journal.rp_torn;
    check Alcotest.int "bad magic yields nothing" 0 rp.Journal.rp_records);
  Unix.unlink path

let test_journal_snapshot_rotation () =
  let path = tmp_path "journal-rotate" in
  let j = Journal.create ~snapshot_every:3 ~path () in
  for i = 1 to 7 do
    Journal.append j
      (Journal.Compile { jc_mode = "m"; jc_source = Printf.sprintf "s%d" i })
  done;
  check Alcotest.bool "rotation fired" true
    ((Journal.stats j).Journal.j_snapshots >= 2);
  Journal.close j;
  (match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "rotated log replays clean" false rp.Journal.rp_torn;
    check Alcotest.bool "rotation bounded the log" true
      (rp.Journal.rp_records <= 3);
    check Alcotest.int "nothing lost across rotations" 7
      (List.length rp.Journal.rp_state.Journal.js_compiles));
  Unix.unlink path

(* ------------------------------------------------------------------ *)
(* Crash recovery through the engine: journal, kill, replay, rebuild   *)

let test_engine_recovery () =
  let path = tmp_path "journal-recovery" in
  let j1 = Journal.create ~path () in
  let eng1 = Engine.create ~journal:j1 () in
  let src0 = Loadgen.source ~variant:0 and src1 = Loadgen.source ~variant:1 in
  check_status "first ok" Wire.Ok
    (Engine.process eng1 (request ~id:1 ~tenant:"t0" ~mode:"opt" src0));
  check_status "second ok" Wire.Ok
    (Engine.process eng1 (request ~id:2 ~tenant:"t1" ~mode:"ie" src1));
  (* trip alice's breaker so a non-trivial tenant state is journaled *)
  for id = 3 to 5 do
    check_status "poisoned run fails" Wire.Error
      (Engine.process eng1
         (request ~id ~tenant:"alice" ~faults:"7:htod%1.0,launch%1.0" src0))
  done;
  check Alcotest.bool "breaker tripped pre-crash" true
    (match Engine.breaker_of eng1 "alice" with
    | Engine.Open _ -> true
    | _ -> false);
  (* the crash: no shutdown, no farewell — the fsynced journal is all
     that survives *)
  Journal.close j1;
  match Journal.replay ~path with
  | None -> Alcotest.fail "journal vanished"
  | Some rp ->
    check Alcotest.bool "clean log replays untorn" false rp.Journal.rp_torn;
    let j2 = Journal.create ~initial:rp.Journal.rp_state ~path () in
    let eng2 = Engine.create ~journal:j2 () in
    let r = Engine.recover eng2 rp in
    check Alcotest.bool "both modules recompiled" true (r.Engine.rec_compiled >= 2);
    check Alcotest.bool "warm manifest re-established" true
      (r.Engine.rec_rewarmed >= 1);
    check Alcotest.bool "tenant state restored" true (r.Engine.rec_tenants >= 1);
    check Alcotest.int "no records skipped" 0 r.Engine.rec_skipped;
    check Alcotest.bool "breaker still open after recovery" true
      (match Engine.breaker_of eng2 "alice" with
      | Engine.Open _ -> true
      | _ -> false);
    (* every pre-crash module answers from cache, bit-identical *)
    let want_out0, want_exit0 = reference ~mode:"opt" src0 in
    let r0 = Engine.process eng2 (request ~id:10 ~tenant:"t0" ~mode:"opt" src0) in
    check_status "recovered opt request ok" Wire.Ok r0;
    check Alcotest.string "recovered module is a cache hit" "hit"
      r0.Wire.rp_cache;
    check Alcotest.string "post-recovery output bit-identical" want_out0
      r0.Wire.rp_output;
    check Alcotest.int "post-recovery exit code" want_exit0 r0.Wire.rp_exit_code;
    let want_out1, want_exit1 = reference ~mode:"ie" src1 in
    let r1 = Engine.process eng2 (request ~id:11 ~tenant:"t1" ~mode:"ie" src1) in
    check_status "recovered ie request ok" Wire.Ok r1;
    check Alcotest.string "second recovered module hits" "hit" r1.Wire.rp_cache;
    check Alcotest.string "second output bit-identical" want_out1
      r1.Wire.rp_output;
    check Alcotest.int "second exit code" want_exit1 r1.Wire.rp_exit_code;
    check Alcotest.int "recovered engine tears down leak-free" 0
      (Engine.shutdown eng2);
    Unix.unlink path

(* ------------------------------------------------------------------ *)
(* Graceful drain: SIGTERM semantics without the signal                *)

let test_shed_draining_reply () =
  let eng = Engine.create () in
  let reply = ref None in
  Engine.shed_request eng
    (request ~id:9 (Loadgen.source ~variant:0))
    (fun r -> reply := Some r)
    ~reason:"draining";
  (match !reply with
  | None -> Alcotest.fail "draining shed delivered no reply"
  | Some r ->
    check_status "draining shed is typed" Wire.Overloaded r;
    check Alcotest.int "draining shed exit code" Diagnostics.exit_overloaded
      r.Wire.rp_exit_code;
    check Alcotest.bool "shed reason names the drain" true
      (contains ~affix:"draining" r.Wire.rp_error));
  check Alcotest.int "clean shutdown" 0 (Engine.shutdown eng)

let test_graceful_drain () =
  let path = tmp_path "drain.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Server.create ~log:(fun _ -> ()) ~socket_path:path () in
  let result = ref None in
  let daemon = Thread.create (fun () -> result := Some (Server.run srv)) () in
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  let src = Loadgen.source ~variant:0 in
  let want_output, want_exit = reference ~mode:"opt" src in
  (* queue two requests on one connection: a deadline-bombed spin and a
     real one, then stop the daemon while they are in flight *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Wire.write_frame fd
        (Wire.request_to_json
           (request ~id:1 ~deadline:200_000 Loadgen.spin_source));
      Wire.write_frame fd (Wire.request_to_json (request ~id:2 src));
      (* wait until both frames are admitted, then trigger the drain *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (Engine.stats (Server.engine srv)).Engine.received < 2
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done;
      check Alcotest.int "both requests admitted" 2
        (Engine.stats (Server.engine srv)).Engine.received;
      Server.stop srv;
      (* in-flight work finishes and its replies reach us *)
      let r1 = Wire.reply_of_json (Wire.read_frame fd) in
      check_status "in-flight spin answered during drain" Wire.Deadline_exceeded
        r1;
      let r2 = Wire.reply_of_json (Wire.read_frame fd) in
      check_status "in-flight request completed" Wire.Ok r2;
      check Alcotest.string "drained reply bit-identical" want_output
        r2.Wire.rp_output;
      check Alcotest.int "drained exit code" want_exit r2.Wire.rp_exit_code);
  Thread.join daemon;
  check Alcotest.bool "daemon reports draining" true (Server.draining srv);
  check Alcotest.bool "socket unlinked by the drain" false
    (Sys.file_exists path);
  (* new connects are refused outright *)
  let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd2 (Unix.ADDR_UNIX path) with
  | () ->
    Unix.close fd2;
    Alcotest.fail "connected to a drained daemon"
  | exception Unix.Unix_error _ -> Unix.close fd2);
  match !result with
  | Some (line, residual) ->
    check Alcotest.int "drain tears down leak-free" 0 residual;
    check Alcotest.bool "final line reports no leaks" true
      (contains ~affix:"device_leaks=0" line)
  | None -> Alcotest.fail "daemon thread returned nothing"

(* ------------------------------------------------------------------ *)
(* Startup: stale sockets are reclaimed, live ones are refused         *)

let test_stale_socket () =
  let path = tmp_path "stale.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* a crashed daemon's leftover: a bound socket file nobody answers *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.listen dead 1;
  Unix.close dead;
  check Alcotest.bool "stale file present" true (Sys.file_exists path);
  let logged = Buffer.create 64 in
  let srv =
    Server.create
      ~log:(fun s -> Buffer.add_string logged (s ^ "\n"))
      ~socket_path:path ()
  in
  check Alcotest.bool "reclamation logged" true
    (contains ~affix:"reclaiming stale socket" (Buffer.contents logged));
  let daemon = Thread.create (fun () -> ignore (Server.run srv : string * int)) () in
  check Alcotest.bool "daemon up on the reclaimed socket" true
    (Client.wait_ready ~socket_path:path ());
  (* a second daemon must refuse the live socket with the typed error *)
  (match Server.create ~log:ignore ~socket_path:path () with
  | (_ : Server.t) -> Alcotest.fail "second daemon bound a busy socket"
  | exception Errors.Serve_socket_busy { sb_path } ->
    check Alcotest.string "busy error names the path" path sb_path);
  check Alcotest.bool "first daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path);
  Thread.join daemon

(* ------------------------------------------------------------------ *)
(* Client timeouts: a wedged daemon costs the timeout, not forever     *)

let test_client_timeout () =
  let path = tmp_path "wedged.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* a listener that banks connections and never answers *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      (match
         Client.request ~timeout_ms:300 ~socket_path:path
           (request ~id:1 (Loadgen.source ~variant:0))
       with
      | (_ : Wire.reply) -> Alcotest.fail "a wedged daemon replied"
      | exception Errors.Serve_request_timeout { rt_socket; rt_timeout_ms } ->
        check Alcotest.string "timeout names the socket" path rt_socket;
        check Alcotest.int "timeout names the budget" 300 rt_timeout_ms);
      check Alcotest.bool "timeout honored promptly" true
        (Unix.gettimeofday () -. t0 < 5.0))

(* ------------------------------------------------------------------ *)
(* Sharding: tenant placement, stats aggregation, batching, and the    *)
(* sharded daemon end to end                                           *)

(* The placement hash is a load-bearing contract: it must be a pure
   function of (name, shard count) — stable across processes, restarts
   and tenant-set growth — or journal recovery would land a tenant's
   warm state on the wrong shard. The golden values pin the algorithm
   itself (FNV-1a/32): an accidental hash change shows up here before it
   silently resharded every deployment's journals. *)
let test_tenant_shard_placement () =
  List.iter
    (fun (tenant, shards, want) ->
      check Alcotest.int
        (Printf.sprintf "placement of %s over %d" tenant shards)
        want
        (Shard.tenant_shard ~shards tenant))
    [
      ("t0", 4, 1); ("t1", 4, 2); ("t2", 4, 3); ("t3", 4, 0);
      ("t0", 2, 1); ("t1", 2, 0); ("anything", 1, 0); ("", 1, 0);
    ];
  (* stable under tenant growth: adding tenants never moves old ones *)
  let before = List.init 8 (fun i -> Shard.tenant_shard ~shards:4 (Printf.sprintf "t%d" i)) in
  let after =
    List.init 64 (fun i -> Shard.tenant_shard ~shards:4 (Printf.sprintf "t%d" i))
    |> List.filteri (fun i _ -> i < 8)
  in
  check Alcotest.(list int) "growth does not move tenants" before after;
  (* in range, and not degenerate: 64 tenants over 4 shards must touch
     every shard *)
  let used = Array.make 4 0 in
  for i = 0 to 63 do
    let s = Shard.tenant_shard ~shards:4 (Printf.sprintf "tenant-%d" i) in
    check Alcotest.bool "placement in range" true (s >= 0 && s < 4);
    used.(s) <- used.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check Alcotest.bool (Printf.sprintf "shard %d not starved" i) true (n > 0))
    used

(* Global stats must be exactly the sums of per-shard stats: each
   request is owned by one shard, so nothing is double-counted. *)
let test_sum_stats () =
  let a : Engine.stats =
    {
      received = 10; ok = 6; shed = 2; deadline_exceeded = 1;
      circuit_rejected = 1; failed = 0; degraded_runs = 3; retries = 4;
      circuit_trips = 1;
    }
  in
  let b : Engine.stats =
    {
      received = 7; ok = 5; shed = 0; deadline_exceeded = 2;
      circuit_rejected = 0; failed = 0; degraded_runs = 0; retries = 1;
      circuit_trips = 0;
    }
  in
  let s = Engine.sum_stats [ a; b ] in
  check Alcotest.int "received" 17 s.Engine.received;
  check Alcotest.int "ok" 11 s.Engine.ok;
  check Alcotest.int "shed" 2 s.Engine.shed;
  check Alcotest.int "deadline" 3 s.Engine.deadline_exceeded;
  check Alcotest.int "circuit" 1 s.Engine.circuit_rejected;
  check Alcotest.int "degraded" 3 s.Engine.degraded_runs;
  check Alcotest.int "retries" 5 s.Engine.retries;
  check Alcotest.int "trips" 1 s.Engine.circuit_trips;
  (match
     Engine.sum_recoveries
       [
         {
           Engine.rec_records = 3; rec_torn = false; rec_compiled = 2;
           rec_rewarmed = 1; rec_tenants = 0; rec_skipped = 0;
         };
         {
           Engine.rec_records = 5; rec_torn = true; rec_compiled = 1;
           rec_rewarmed = 2; rec_tenants = 1; rec_skipped = 1;
         };
       ]
   with
  | Some r ->
    check Alcotest.int "recovery records sum" 8 r.Engine.rec_records;
    check Alcotest.bool "torn if any shard torn" true r.Engine.rec_torn;
    check Alcotest.int "compiled sum" 3 r.Engine.rec_compiled;
    check Alcotest.int "rewarmed sum" 3 r.Engine.rec_rewarmed;
    check Alcotest.int "tenants sum" 1 r.Engine.rec_tenants;
    check Alcotest.int "skipped sum" 1 r.Engine.rec_skipped
  | None -> Alcotest.fail "sum of two recoveries is Some");
  check Alcotest.bool "empty recovery list is None" true
    (Engine.sum_recoveries [] = None)

(* Restart determinism: a 2-shard group journals per shard; a fresh
   group over the same segments recovers each tenant's modules on the
   shard that owned them, so the first post-restart request is a cache
   hit on its home shard. No sockets or domains involved — the group is
   driven directly. *)
let test_shard_journal_restart () =
  let base = tmp_path "shard.journal" in
  let shards = 2 in
  for i = 0 to shards - 1 do
    try Unix.unlink (Journal.segment_path base ~shards i)
    with Unix.Unix_error _ -> ()
  done;
  let tenants = [ "t0"; "t1"; "t2"; "t3" ] in
  let srcs = List.map (fun v -> Loadgen.source ~variant:v) [ 0; 1 ] in
  let g1 = Shard.create ~journal_path:base ~count:shards () in
  check Alcotest.bool "fresh group has no recovery" true
    (Shard.recovered g1 = None);
  List.iteri
    (fun i tenant ->
      List.iter
        (fun src ->
          let e = Shard.engine g1 (Shard.tenant_shard ~shards tenant) in
          let rp = Engine.process e (request ~id:i ~tenant src) in
          check_status "gen1 request ok" Wire.Ok rp)
        srcs)
    tenants;
  check Alcotest.int "gen1 leak-free" 0 (Shard.stop g1);
  for i = 0 to shards - 1 do
    check Alcotest.bool
      (Printf.sprintf "segment %d exists" i)
      true
      (Sys.file_exists (Journal.segment_path base ~shards i))
  done;
  (* restart: same base path, same shard count *)
  let g2 = Shard.create ~journal_path:base ~count:shards () in
  (match Shard.recovered g2 with
  | Some r ->
    check Alcotest.bool "recovered records" true (r.Engine.rec_records > 0);
    check Alcotest.bool "modules recompiled" true (r.Engine.rec_compiled > 0);
    check Alcotest.bool "no torn segments" false r.Engine.rec_torn
  | None -> Alcotest.fail "restarted group reports no recovery");
  List.iteri
    (fun i tenant ->
      List.iter
        (fun src ->
          let e = Shard.engine g2 (Shard.tenant_shard ~shards tenant) in
          let rp = Engine.process e (request ~id:(100 + i) ~tenant src) in
          check_status "post-restart request ok" Wire.Ok rp;
          check Alcotest.string
            (Printf.sprintf "%s hits its home shard's recovered cache" tenant)
            "hit" rp.Wire.rp_cache)
        srcs)
    tenants;
  check Alcotest.int "gen2 leak-free" 0 (Shard.stop g2);
  for i = 0 to shards - 1 do
    try Unix.unlink (Journal.segment_path base ~shards i)
    with Unix.Unix_error _ -> ()
  done

(* The sharded daemon end to end: worker domains, the reply outbox, and
   the router's aggregation — every Ok reply still bit-identical to a
   fresh single-shot run, stats global = sum of shards, clean leak-free
   teardown. *)
let test_sharded_socket_round_trip () =
  let path = tmp_path "sharded.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Server.create ~shards:2 ~log:(fun _ -> ()) ~socket_path:path () in
  check Alcotest.int "daemon reports two shards" 2 (Server.shards srv);
  let result = ref None in
  let daemon = Thread.create (fun () -> result := Some (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  let cases =
    (* t0 and t1 land on different shards (see the placement test) *)
    [
      (1, "t0", "opt", 0); (2, "t1", "opt", 1); (3, "t0", "seq", 2);
      (4, "t1", "unopt", 3); (5, "t0", "opt", 0); (6, "t1", "opt", 1);
    ]
  in
  List.iter
    (fun (id, tenant, mode, variant) ->
      let src = Loadgen.source ~variant in
      let want_output, want_exit = reference ~mode src in
      let rp =
        Client.request ~socket_path:path (request ~id ~tenant ~mode src)
      in
      check_status (Printf.sprintf "request %d ok" id) Wire.Ok rp;
      check Alcotest.int (Printf.sprintf "request %d id echo" id) id
        rp.Wire.rp_id;
      check Alcotest.string
        (Printf.sprintf "request %d bit-identical" id)
        want_output rp.Wire.rp_output;
      check Alcotest.int
        (Printf.sprintf "request %d exit code" id)
        want_exit rp.Wire.rp_exit_code)
    cases;
  (* repeats hit each shard's own cache *)
  let rp =
    Client.request ~socket_path:path
      (request ~id:7 ~tenant:"t0" (Loadgen.source ~variant:0))
  in
  check Alcotest.string "t0 repeat hits shard cache" "hit" rp.Wire.rp_cache;
  let st = Client.stats ~socket_path:path in
  check Alcotest.int "stats report the shard count" 2
    (Json.int_field "shards" st);
  check Alcotest.int "aggregated received covers every request" 7
    (Json.int_field "received" st);
  check Alcotest.int "aggregated ok covers every request" 7
    (Json.int_field "ok" st);
  check Alcotest.bool "daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path);
  Thread.join daemon;
  match !result with
  | Some (line, residual) ->
    check Alcotest.int "leak-free teardown across shards" 0 residual;
    check Alcotest.bool "final line reports no leaks" true
      (contains ~affix:"device_leaks=0" line);
    (* the aggregated final line must account for every request *)
    check Alcotest.bool "final line sums the shards" true
      (contains ~affix:"received=7 ok=7" line)
  | None -> Alcotest.fail "daemon thread returned nothing"

(* Cold requests on both shards at once: two client threads, one tenant
   per shard, each request made unique by a nonce comment so every one
   misses the cache and both shard domains compile and run at the same
   time. Every reply must still be bit-identical to a fresh single-shot
   run, and teardown leak-free. *)
let test_sharded_concurrent_cold () =
  let path = tmp_path "sharded-cold.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Server.create ~shards:2 ~log:(fun _ -> ()) ~socket_path:path () in
  let result = ref None in
  let daemon = Thread.create (fun () -> result := Some (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  let per_client = 6 in
  (* t0 and t1 land on different shards (see the placement test) *)
  let tenants = [| "t0"; "t1" |] in
  let sent = Array.make (Array.length tenants) [] in
  let client i () =
    sent.(i) <-
      List.init per_client (fun k ->
          let id = (i * per_client) + k + 1 in
          let mode = if k mod 2 = 0 then "opt" else "unopt" in
          let src =
            Printf.sprintf "// nonce %d\n%s" id
              (Loadgen.source ~variant:(k mod 4))
          in
          let rp =
            Client.request ~socket_path:path
              (request ~id ~tenant:tenants.(i) ~mode src)
          in
          (id, mode, src, rp))
  in
  let threads = Array.mapi (fun i _ -> Thread.create (client i) ()) tenants in
  Array.iter Thread.join threads;
  Array.iter
    (List.iter (fun (id, mode, src, rp) ->
         let want_output, want_exit = reference ~mode src in
         check_status (Printf.sprintf "request %d ok" id) Wire.Ok rp;
         check Alcotest.string
           (Printf.sprintf "request %d is cold" id)
           "miss" rp.Wire.rp_cache;
         check Alcotest.string
           (Printf.sprintf "request %d bit-identical" id)
           want_output rp.Wire.rp_output;
         check Alcotest.int
           (Printf.sprintf "request %d exit code" id)
           want_exit rp.Wire.rp_exit_code))
    sent;
  let total = Array.length tenants * per_client in
  check Alcotest.int "every request answered" total
    (Array.fold_left (fun n l -> n + List.length l) 0 sent);
  check Alcotest.bool "daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path);
  Thread.join daemon;
  match !result with
  | Some (line, residual) ->
    check Alcotest.int "leak-free teardown across shards" 0 residual;
    check Alcotest.bool "final line reports no leaks" true
      (contains ~affix:"device_leaks=0" line)
  | None -> Alcotest.fail "daemon thread returned nothing"

(* ------------------------------------------------------------------ *)
(* The router's read deadline: a peer that stalls mid-frame loses its  *)
(* connection, and only its connection                                  *)

let test_read_deadline () =
  let path = Printf.sprintf "/tmp/cgcm-test-loris-%d.sock" (Unix.getpid ()) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv =
    Server.create ~read_deadline_s:0.2 ~log:(fun _ -> ()) ~socket_path:path ()
  in
  let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  Client.with_conn path (fun fd ->
      (* two bytes of a four-byte frame header, then silence *)
      check Alcotest.int "partial header written" 2
        (Unix.write_substring fd "\x00\x00" 0 2);
      check Alcotest.bool "a stalled peer does not block others" true
        (Client.ping ~socket_path:path);
      let reply =
        Client.read_frame_deadline fd ~socket_path:path ~timeout_ms:10_000
      in
      check Alcotest.string "error frame" "error"
        (Json.str_field ~default:"" "status" reply);
      check Alcotest.bool "names the read deadline" true
        (contains ~affix:"read deadline exceeded"
           (Json.str_field ~default:"" "error" reply));
      (match Unix.select [ fd ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "peer not dropped after the error frame"
      | _ ->
        check Alcotest.int "then EOF" 0 (Unix.read fd (Bytes.create 16) 0 16));
      check Alcotest.bool "other connections still answered" true
        (Client.ping ~socket_path:path))

(* ------------------------------------------------------------------ *)
(* Router accounting: in-flight requests and overload                   *)

(* A request that runs tens of milliseconds and finishes [Ok]. *)
let slow_source =
  "int main() { int s = 0; for (int i = 0; i < 1000000; i++) { s = s + i; } \
   print(s); return 0; }"

(* A daemon on a thread for [f path], shut down through the socket;
   returns [f]'s value after checking a leak-free teardown. *)
let with_daemon ?engine_config ?(shards = 1) name f =
  let path = tmp_path name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv =
    Server.create ?engine_config ~shards ~log:ignore ~socket_path:path ()
  in
  let result = ref None in
  let daemon = Thread.create (fun () -> result := Some (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  check Alcotest.int "shard count" shards (Server.shards srv);
  let v = f path in
  check Alcotest.bool "daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path);
  Thread.join daemon;
  (match !result with
  | Some (line, residual) ->
    check Alcotest.int "leak-free teardown" 0 residual;
    check Alcotest.bool "final line reports no leaks" true
      (contains ~affix:"device_leaks=0" line)
  | None -> Alcotest.fail "daemon thread returned nothing");
  v

let with_conn path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      f fd)

(* [frames] in one write, so the daemon reads them together. *)
let pipeline fd frames =
  let b = Bytes.concat Bytes.empty (List.map Wire.encode_frame frames) in
  check Alcotest.int "pipelined in one write" (Bytes.length b)
    (Unix.write fd b 0 (Bytes.length b))

let read_frames fd n = List.init n (fun _ -> Wire.read_frame fd)

let slow_request id = Wire.request_to_json (request ~id ~mode:"seq" slow_source)

(* [pending] is the router's in-flight count: a request waiting in an
   engine's queue is in flight already, so it is not counted again. The
   stats frame arrives in the same read as the [k] requests, so none of
   them has a reply yet, and an inline shard has queued them all. *)
let test_stats_pending_counts_once () =
  let k = 4 in
  List.iter
    (fun shards ->
      with_daemon ~shards "pending.sock" @@ fun path ->
      let frames =
        with_conn path @@ fun fd ->
        pipeline fd
          (List.init k slow_request @ [ Obj [ ("op", Json.Str "stats") ] ]);
        read_frames fd (k + 1)
      in
      let stats, runs =
        List.partition (fun v -> Json.member "shards" v <> None) frames
      in
      (match stats with
      | [ st ] ->
        check Alcotest.int
          (Printf.sprintf "%d shard(s): pending counts each request once"
             shards)
          k
          (Json.int_field "pending" st)
      | _ -> Alcotest.fail "expected one stats reply");
      List.iter
        (fun v -> check_status "slow request ok" Wire.Ok (Wire.reply_of_json v))
        runs;
      check Alcotest.int "nothing pending once replied" 0
        (Json.int_field "pending" (Client.stats ~socket_path:path)))
    [ 1; 2 ]

(* A burst far past [max_queue] on one connection: the engine's
   admission sheds the excess on the owning shard, whether the router
   drives it inline or a worker domain does. Every request gets exactly
   one reply, [Ok] or a typed [Overloaded], and the stats count each
   once. *)
let test_overload_typed_replies () =
  let max_queue = 1 and sent = 10 in
  let engine_config = { Engine.default_config with Engine.max_queue } in
  List.iter
    (fun shards ->
      with_daemon ~engine_config ~shards "overload.sock" @@ fun path ->
      let replies =
        with_conn path @@ fun fd ->
        pipeline fd (List.init sent slow_request);
        List.map Wire.reply_of_json (read_frames fd sent)
      in
      let count st =
        List.length (List.filter (fun r -> r.Wire.rp_status = st) replies)
      in
      let ok = count Wire.Ok and shed = count Wire.Overloaded in
      let n what = Printf.sprintf "%d shard(s): %s" shards what in
      check Alcotest.int (n "every reply is ok or a typed shed") sent (ok + shed);
      check Alcotest.bool (n "the burst is shed") true (shed >= 1);
      check Alcotest.bool (n "the first request is served") true (ok >= 1);
      let st = Client.stats ~socket_path:path in
      check Alcotest.int (n "received = sent") sent (Json.int_field "received" st);
      check Alcotest.int (n "ok + shed = received") sent
        (Json.int_field "ok" st + Json.int_field "shed" st))
    [ 1; 2 ]

(* A "run" frame that is no valid request, one without a source and one
   that is not even an object, gets a typed error on its own connection;
   the daemon, that connection and every other one go on being served. *)
let test_malformed_run_frame () =
  List.iter
    (fun shards ->
      with_daemon ~shards "malformed.sock" @@ fun path ->
      with_conn path @@ fun fd ->
      let roundtrip frame =
        Wire.write_frame fd frame;
        Client.read_frame_deadline fd ~socket_path:path ~timeout_ms:5_000
      in
      List.iter
        (fun (what, frame) ->
          let reply = roundtrip frame in
          let n s = Printf.sprintf "%d shard(s), %s: %s" shards what s in
          check Alcotest.string (n "typed error") "error"
            (Json.str_field ~default:"" "status" reply);
          check Alcotest.bool (n "names the protocol error") true
            (contains ~affix:"protocol error: bad request"
               (Json.str_field ~default:"" "error" reply)))
        [
          ( "no source",
            Obj [ ("op", Json.Str "run"); ("tenant", Json.Str "x") ] );
          ("not an object", Json.List [ Json.Int 1 ]);
        ];
      check Alcotest.string "the same connection still answers" "ok"
        (Json.str_field ~default:""
           "status"
           (roundtrip (Obj [ ("op", Json.Str "ping") ])));
      check Alcotest.bool "other connections still answered" true
        (Client.ping ~socket_path:path))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Request-path allocation: a cache hit must not allocate on the major  *)
(* heap, where every collection stops every domain                      *)

let test_hot_requests_off_major_heap () =
  let path = tmp_path "hot-gc.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Server.create ~log:(fun _ -> ()) ~socket_path:path () in
  let daemon = Thread.create (fun () -> ignore (Server.run srv)) () in
  let finally () =
    Server.stop srv;
    Thread.join daemon;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  check Alcotest.bool "daemon came up" true
    (Client.wait_ready ~socket_path:path ());
  let modes = [| "opt"; "unopt"; "opt+paged"; "seq" |] in
  let src = Loadgen.source ~variant:2 in
  let send id mode =
    Client.request ~socket_path:path (request ~id ~tenant:"hot" ~mode src)
  in
  Array.iteri
    (fun i mode -> check_status (mode ^ " warm-up ok") Wire.Ok (send i mode))
    modes;
  let requests = 200 in
  let major_words () =
    Json.int_field "gc_major_words" (Client.stats ~socket_path:path)
  in
  let before = major_words () in
  for k = 1 to requests do
    let mode = modes.(k mod Array.length modes) in
    let rp = send (100 + k) mode in
    check_status (Printf.sprintf "hot request %d ok" k) Wire.Ok rp;
    check Alcotest.string (Printf.sprintf "hot request %d hits" k) "hit"
      rp.Wire.rp_cache
  done;
  let per_request = (major_words () - before) / requests in
  (* the counters are process-wide: this bounds the client too *)
  check Alcotest.bool
    (Printf.sprintf "at most 256 major words per request (read %d)"
       per_request)
    true (per_request <= 256);
  check Alcotest.bool "daemon acknowledged shutdown" true
    (Client.shutdown ~socket_path:path)

let tests =
  [
    Alcotest.test_case "wire messages round-trip" `Quick test_wire_round_trip;
    Alcotest.test_case "decoder reassembles split frames" `Quick
      test_wire_decoder_reassembles;
    Alcotest.test_case "oversized frames are rejected" `Quick
      test_wire_frame_cap;
    Alcotest.test_case "compiled-module LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache shared across tenants and plans" `Quick
      test_cache_shared_across_tenants_and_plans;
    Alcotest.test_case "admission sheds on queue overflow" `Quick
      test_admission_queue_shed;
    Alcotest.test_case "admission sheds on device-mem pressure and relieves"
      `Quick test_admission_device_mem_shed_and_relief;
    Alcotest.test_case "deadlines become typed replies" `Quick test_deadline;
    Alcotest.test_case "retries preserve fault-free output" `Quick
      test_retry_preserves_output;
    Alcotest.test_case "circuit breaker trips, degrades and heals" `Quick
      test_circuit_breaker_lifecycle;
    Alcotest.test_case "cross-tenant eviction writes back byte-exactly" `Quick
      test_cross_tenant_eviction_write_back;
    Alcotest.test_case "shared audit: 300 warm entries audit clean" `Quick
      test_shared_audit_many_entries;
    Alcotest.test_case "shared audit: unowned dev block is an orphan" `Quick
      test_shared_audit_orphan;
    Alcotest.test_case "shared audit: freed warm block is a dangling devptr"
      `Quick test_shared_audit_dangling;
    Alcotest.test_case "shared audit: sibling run-times own their blocks"
      `Quick test_check_owned_siblings;
    Alcotest.test_case "engine audit over a growing residency" `Quick
      test_engine_audit_growing_residency;
    Alcotest.test_case "soak: faults, sheds, deadlines, bit-identity" `Slow
      test_soak;
    Alcotest.test_case "live daemon round-trip on the socket" `Quick
      test_socket_round_trip;
    Alcotest.test_case "hostile frame headers are rejected before buffering"
      `Quick test_wire_hostile_headers;
    Alcotest.test_case "journal appends replay to the same state" `Quick
      test_journal_round_trip;
    Alcotest.test_case "journal tolerates torn tails and CRC flips" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal snapshot rotation bounds the log" `Quick
      test_journal_snapshot_rotation;
    Alcotest.test_case "engine recovers caches, warmth and breakers" `Quick
      test_engine_recovery;
    Alcotest.test_case "draining shed is a typed reply" `Quick
      test_shed_draining_reply;
    Alcotest.test_case "graceful drain finishes in-flight work" `Quick
      test_graceful_drain;
    Alcotest.test_case "stale sockets reclaimed, live ones refused" `Quick
      test_stale_socket;
    Alcotest.test_case "client timeout on a wedged daemon" `Quick
      test_client_timeout;
    Alcotest.test_case "tenant placement is deterministic and stable" `Quick
      test_tenant_shard_placement;
    Alcotest.test_case "global stats are the sum of shard stats" `Quick
      test_sum_stats;
    Alcotest.test_case "shard journals recover on the owning shard" `Quick
      test_shard_journal_restart;
    Alcotest.test_case "sharded daemon round-trip on the socket" `Quick
      test_sharded_socket_round_trip;
    Alcotest.test_case "sharded daemon: concurrent cold requests" `Quick
      test_sharded_concurrent_cold;
    Alcotest.test_case "cache hits reuse prepared programs" `Quick
      test_hits_reuse_programs;
    Alcotest.test_case "read deadline drops a stalled peer" `Quick
      test_read_deadline;
    Alcotest.test_case "hot requests stay off the major heap" `Quick
      test_hot_requests_off_major_heap;
    Alcotest.test_case "stats pending counts each request once" `Quick
      test_stats_pending_counts_once;
    Alcotest.test_case "overload: one typed reply per request at 1 and 2 shards"
      `Quick test_overload_typed_replies;
    Alcotest.test_case "malformed run frames get a typed error at 1 and 2 shards"
      `Quick test_malformed_run_frame;
  ]
