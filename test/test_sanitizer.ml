(* The shadow-memory coherence sanitizer: direct hook-level unit tests
   for each violation class, cleanliness over the whole benchmark suite
   at both optimization levels, cleanliness under the fault-soak plans,
   and the mutation test — a deliberately dropped unmap must be caught
   as a stale host read naming the unit and the offending instruction. *)

module Sanitizer = Cgcm_sanitizer.Sanitizer
module Errors = Cgcm_support.Errors
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Runtime = Cgcm_runtime.Runtime
module Faults = Cgcm_gpusim.Faults
module Ir = Cgcm_ir.Ir

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let dev_lo = 0x40_0000
let mk () = Sanitizer.create ~dev_lo ()

let expect_violation kind f =
  match f () with
  | () -> Alcotest.failf "expected %s" (Errors.violation_kind_name kind)
  | exception Errors.Coherence_violation v ->
    check Alcotest.string "violation kind"
      (Errors.violation_kind_name kind)
      (Errors.violation_kind_name v.Errors.v_kind);
    v

(* ------------------------------------------------------------------ *)
(* Hook-level unit tests. The shadow is driven directly, with no
   run-time underneath: the sanitizer must judge coherence from its own
   byte maps alone. *)

let base = 0x1000
let dp = dev_lo + 0x100

let test_stale_device_read () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  (* mapped but never transferred: every byte of the device copy is
     stale until an HtoD covers it *)
  let v =
    expect_violation Errors.Stale_device_read (fun () ->
        Sanitizer.on_load s ~addr:(dp + 8) ~len:8 ~fn:"k" ~kernel:true)
  in
  check Alcotest.int "offset" 8 v.Errors.v_offset;
  check Alcotest.int "unit base" base v.Errors.v_unit.Errors.u_base;
  (* after the transfer the same read is clean *)
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  Sanitizer.on_load s ~addr:(dp + 8) ~len:8 ~fn:"k" ~kernel:true;
  (* ...until the host writes the byte again *)
  Sanitizer.on_store s ~addr:(base + 8) ~len:8 ~fn:"main" ~kernel:false;
  ignore
    (expect_violation Errors.Stale_device_read (fun () ->
         Sanitizer.on_load s ~addr:(dp + 8) ~len:8 ~fn:"k" ~kernel:true));
  (* a kernel *store* to the stale byte is fine (blind overwrite) *)
  Sanitizer.on_store s ~addr:(dp + 8) ~len:8 ~fn:"k" ~kernel:true;
  Sanitizer.on_load s ~addr:(dp + 8) ~len:8 ~fn:"k" ~kernel:true

let test_stale_host_read () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  Sanitizer.on_store s ~addr:dp ~len:8 ~fn:"k" ~kernel:true;
  (* the device copy is newer and was never written back *)
  let v =
    expect_violation Errors.Stale_host_read (fun () ->
        Sanitizer.on_load s ~addr:base ~len:8 ~fn:"main" ~kernel:false)
  in
  check Alcotest.bool "mentions the missing unmap" true
    (contains ~sub:"unmap" v.Errors.v_detail)

let test_lost_host_update () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  (* host updates a byte, then a whole-unit write-back clobbers it *)
  Sanitizer.on_store s ~addr:(base + 16) ~len:8 ~fn:"main" ~kernel:false;
  let v =
    expect_violation Errors.Lost_host_update (fun () ->
        Sanitizer.on_dtoh s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"unmap")
  in
  check Alcotest.int "first clobbered byte" 16 v.Errors.v_offset

let test_premature_release_and_double_free () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  (* freeing the device copy while the unit is still mapped *)
  ignore
    (expect_violation Errors.Premature_release (fun () ->
         Sanitizer.on_dev_free s ~addr:dp ~op:"cuMemFree"));
  (* after release the free is legitimate; a second free is not *)
  Sanitizer.on_release s ~base ~op:"release";
  Sanitizer.on_dev_free s ~addr:dp ~op:"cuMemFree";
  ignore
    (expect_violation Errors.Double_free (fun () ->
         Sanitizer.on_dev_free s ~addr:dp ~op:"cuMemFree"))

let test_unregister_while_mapped () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"alloca" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  ignore
    (expect_violation Errors.Premature_release (fun () ->
         Sanitizer.on_unregister s ~base ~op:"expireAlloca"))

let test_dead_device_value_is_lost () =
  (* device holds the freshest value, release path frees it without a
     write-back: the value is destroyed, and the next host read of those
     bytes must flag *)
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  Sanitizer.on_store s ~addr:(dp + 24) ~len:8 ~fn:"k" ~kernel:true;
  Sanitizer.on_release s ~base ~op:"release";
  Sanitizer.on_dev_free s ~addr:dp ~op:"cuMemFree";
  (* untouched bytes are still fine *)
  Sanitizer.on_load s ~addr:base ~len:8 ~fn:"main" ~kernel:false;
  let v =
    expect_violation Errors.Stale_host_read (fun () ->
        Sanitizer.on_load s ~addr:(base + 24) ~len:8 ~fn:"main" ~kernel:false)
  in
  check Alcotest.bool "mentions the value dying on the device" true
    (contains ~sub:"died on the device" v.Errors.v_detail)

let test_redundant_transfers_are_stats_not_errors () =
  let s = mk () in
  Sanitizer.on_register s ~base ~size:64 ~kind:"heap" ();
  Sanitizer.on_map s ~base ~devptr:dp;
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  (* nothing changed on the host: the second copy is provably redundant
     but legal (the whole-unit protocol does this constantly) *)
  Sanitizer.on_htod s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"map";
  let r = Sanitizer.report s in
  check Alcotest.int "redundant htod" 1 r.Sanitizer.r_redundant_htod;
  check Alcotest.int "redundant bytes" 64 r.Sanitizer.r_redundant_htod_bytes;
  (* an untouched write-back is redundant too *)
  Sanitizer.on_dtoh s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"unmap";
  Sanitizer.on_dtoh s ~host_addr:base ~dev_addr:dp ~len:64 ~label:"unmap";
  let r = Sanitizer.report s in
  check Alcotest.int "redundant dtoh" 2 r.Sanitizer.r_redundant_dtoh

(* ------------------------------------------------------------------ *)
(* Whole-suite cleanliness: every benchmark at both levels, sanitizer
   armed, output identical to the unsanitized run. *)

let test_suite_clean () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (lname, exec) ->
          let _, plain = Pipeline.run exec src in
          match Pipeline.run ~sanitize:true exec src with
          | exception Errors.Coherence_violation v ->
            Alcotest.failf "%s/%s: %s" name lname (Errors.render_violation v)
          | _, r ->
            check Alcotest.string
              (Printf.sprintf "%s/%s: output" name lname)
              plain.Interp.output r.Interp.output;
            let rep =
              match r.Interp.san_report with
              | Some rep -> rep
              | None -> Alcotest.failf "%s/%s: no sanitizer report" name lname
            in
            check Alcotest.bool
              (Printf.sprintf "%s/%s: checked accesses" name lname)
              true
              (rep.Sanitizer.r_checks > 0))
        (List.filter
           (fun (_, e) ->
             (Pipeline.shape e).Pipeline.interp_mode = Interp.Split)
           Pipeline.executions))
    Test_pipeline.small_suite

(* Both engines must sanitize identically (the hooks sit on different
   decode paths). *)
let test_engines_agree_under_sanitizer () =
  List.iter
    (fun (name, src) ->
      let _, a =
        Pipeline.run ~sanitize:true ~engine:Interp.Closures
          Pipeline.Cgcm_optimized src
      in
      let _, b =
        Pipeline.run ~sanitize:true ~engine:Interp.Tree_walk
          Pipeline.Cgcm_optimized src
      in
      check Alcotest.string (name ^ ": output") a.Interp.output b.Interp.output;
      (* the closure engine promotes unregistered scalar allocas to
         registers, so raw access counts legitimately differ — but the
         driver-side view (transfers, redundancy) must be identical *)
      let ra = Option.get a.Interp.san_report
      and rb = Option.get b.Interp.san_report in
      check Alcotest.int (name ^ ": transfers") ra.Sanitizer.r_transfers
        rb.Sanitizer.r_transfers;
      check Alcotest.int
        (name ^ ": redundant htod")
        ra.Sanitizer.r_redundant_htod rb.Sanitizer.r_redundant_htod;
      check Alcotest.int
        (name ^ ": redundant dtoh")
        ra.Sanitizer.r_redundant_dtoh rb.Sanitizer.r_redundant_dtoh)
    [ List.nth Test_pipeline.small_suite 0; List.nth Test_pipeline.small_suite 5 ]

(* Sanitizer under the fault-soak plans: recovery (eviction, retry, CPU
   fallback) must also be coherent, not just output-correct. *)
let test_soak_clean () =
  List.iter
    (fun (name, src) ->
      let _, base = Pipeline.run Pipeline.Cgcm_optimized src in
      List.iter
        (fun seed ->
          let faults =
            Faults.parse
              (Printf.sprintf "%d:alloc@1,htod@2,dtoh%%0.1,launch@1,launch%%0.05"
                 seed)
          in
          let caps =
            let p = base.Interp.dev_peak_bytes in
            [ (p * 6 / 10) + 1; (p * 8 / 10) + 1; p ]
          in
          let rec attempt = function
            | [] -> Alcotest.failf "%s/seed %d: no cap succeeded" name seed
            | cap :: rest -> (
              match
                Pipeline.run ~sanitize:true ~faults ~device_mem:cap
                  Pipeline.Cgcm_optimized src
              with
              | exception Runtime.Runtime_error _ -> attempt rest
              | exception Errors.Device_error _ -> attempt rest
              | exception Errors.Coherence_violation v ->
                Alcotest.failf "%s/seed %d/cap %d: %s" name seed cap
                  (Errors.render_violation v)
              | _, r ->
                check Alcotest.string
                  (Printf.sprintf "%s/seed %d: output" name seed)
                  base.Interp.output r.Interp.output)
          in
          attempt caps)
        [ 1; 7; 42 ])
    (* a representative slice: one comm-bound, one gpu-bound, one jagged *)
    (List.filter
       (fun (n, _) -> List.mem n [ "atax"; "gemm"; "srad"; "nw"; "hotspot" ])
       Test_pipeline.small_suite)

(* ------------------------------------------------------------------ *)
(* The mutation test: drop one compiler-inserted unmap and the
   sanitizer must name the unit and the offending host instruction. *)

let mutation_src =
  "global float X[512];\n\
   global float Y[512];\n\
   void init() {\n\
  \  for (int i = 0; i < 512; i++) { X[i] = i * 0.5; Y[i] = 512 - i; }\n\
   }\n\
   void saxpy(float a) {\n\
  \  for (int t = 0; t < 5; t++) {\n\
  \    for (int i = 0; i < 512; i++) { Y[i] = a * X[i] + Y[i]; }\n\
  \  }\n\
   }\n\
   int main() {\n\
  \  init();\n\
  \  saxpy(2.0);\n\
  \  float sum = 0.0;\n\
  \  for (int i = 0; i < 512; i++) { sum = sum + Y[i]; }\n\
  \  print(sum);\n\
  \  return 0;\n\
   }"

let test_dropped_unmap_detected () =
  (* try every unmap site; at least one drop must surface as a stale
     host read naming the unit (the others may be healed by the next
     map's epoch check — that's the run-time doing its job) *)
  let caught = ref None in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let c = Pipeline.compile ~level:Pipeline.Managed mutation_src in
    if
      Cgcm_transform.Comm_mgmt.drop_nth_call c.Pipeline.modul
        ~intrinsic:Ir.Intrinsic.unmap ~n:!n
    then begin
      (match
         Interp.run
           ~config:{ Interp.default_config with Interp.sanitize = true }
           c.Pipeline.modul
       with
      | exception Errors.Coherence_violation v -> caught := Some v
      | _ -> ());
      incr n
    end
    else continue_ := false
  done;
  check Alcotest.bool "several unmap sites exist" true (!n >= 2);
  match !caught with
  | None -> Alcotest.fail "no dropped unmap was detected"
  | Some v ->
    check Alcotest.string "kind" "stale-host-read"
      (Errors.violation_kind_name v.Errors.v_kind);
    check (Alcotest.option Alcotest.string) "unit named" (Some "Y")
      v.Errors.v_unit.Errors.u_global;
    check Alcotest.bool "offending instruction is the host load" true
      (contains ~sub:"load" v.Errors.v_instr
      && contains ~sub:"main" v.Errors.v_instr);
    check Alcotest.bool "history is populated" true
      (List.length v.Errors.v_history > 0)

(* A dropped map on a heap unit: the kernel dereferences the raw host
   pointer, which the split model must reject one way or another — but
   never silently compute with. *)
let test_dropped_map_not_silent () =
  let src =
    "int main() {\n\
    \  int* p = (int*) malloc(64 * sizeof(int));\n\
    \  for (int i = 0; i < 64; i++) { p[i] = i; }\n\
    \  parallel for (int i = 0; i < 64; i++) { p[i] = p[i] * 3; }\n\
    \  int s = 0;\n\
    \  for (int i = 0; i < 64; i++) { s = s + p[i]; }\n\
    \  print(s);\n\
    \  return 0;\n\
     }"
  in
  let _, plain = Pipeline.run Pipeline.Cgcm_unoptimized src in
  let c = Pipeline.compile ~level:Pipeline.Managed src in
  check Alcotest.bool "dropped a map" true
    (Cgcm_transform.Comm_mgmt.drop_nth_call c.Pipeline.modul
       ~intrinsic:Ir.Intrinsic.map ~n:0);
  match
    Interp.run
      ~config:{ Interp.default_config with Interp.sanitize = true }
      c.Pipeline.modul
  with
  | exception Errors.Coherence_violation _ -> ()
  | exception Runtime.Runtime_error _ -> ()
  | exception Errors.Device_error _ -> ()
  | exception Cgcm_memory.Memspace.Fault _ -> ()
  | exception Interp.Exec_error _ -> ()
  | r ->
    if r.Interp.output = plain.Interp.output then
      Alcotest.fail "dropped map went unnoticed and computed the right answer"

let tests =
  [
    Alcotest.test_case "stale device read" `Quick test_stale_device_read;
    Alcotest.test_case "stale host read" `Quick test_stale_host_read;
    Alcotest.test_case "lost host update" `Quick test_lost_host_update;
    Alcotest.test_case "premature release / double free" `Quick
      test_premature_release_and_double_free;
    Alcotest.test_case "unregister while mapped" `Quick
      test_unregister_while_mapped;
    Alcotest.test_case "dead device value flags on host read" `Quick
      test_dead_device_value_is_lost;
    Alcotest.test_case "redundant transfers are statistics" `Quick
      test_redundant_transfers_are_stats_not_errors;
    Alcotest.test_case "benchmark suite sanitizes clean" `Slow test_suite_clean;
    Alcotest.test_case "engines agree under the sanitizer" `Quick
      test_engines_agree_under_sanitizer;
    Alcotest.test_case "fault soak sanitizes clean" `Slow test_soak_clean;
    Alcotest.test_case "dropped unmap is named" `Quick
      test_dropped_unmap_detected;
    Alcotest.test_case "dropped map is not silent" `Quick
      test_dropped_map_not_silent;
  ]
