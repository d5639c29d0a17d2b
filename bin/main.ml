(* cgcm — command-line driver for the CGCM reproduction.

     cgcm run prog.cgc [--mode seq|unopt|opt|ie|unified] [--trace]
     cgcm ir prog.cgc [--level unmanaged|managed|optimized]
     cgcm ast prog.cgc [--no-doall]
     cgcm report prog.cgc        compare all execution modes
*)

open Cmdliner
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Trace = Cgcm_gpusim.Trace
module Faults = Cgcm_gpusim.Faults
module Errors = Cgcm_support.Errors
module Runtime = Cgcm_runtime.Runtime
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged
module Bytesize = Cgcm_support.Bytesize
module Pass = Cgcm_transform.Pass

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Distinct exit codes per failure class, with the rendered diagnostic on
   stderr instead of an OCaml backtrace. The code/message mapping lives in
   Cgcm_core.Diagnostics, shared with the golden diagnostics tests. *)
let guarded f =
  try f ()
  with e -> (
    match Cgcm_core.Diagnostics.classify e with
    | Some (code, msg) ->
      Fmt.epr "%s@." msg;
      exit code
    | None -> raise e)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"CGC source file")

let mode_conv = Arg.enum Pipeline.executions

let mode_arg =
  Arg.(
    value
    & opt mode_conv Pipeline.Cgcm_optimized
    & info [ "mode"; "m" ]
        ~doc:
          "Execution mode: seq, unopt, opt, ie, unified. Note that \
           $(b,unified) is the paper's unified address-space $(i,oracle) — \
           one flat memory, zero-cost intrinsics, used for differential \
           testing — not a managed-memory model; for on-demand paging with \
           migration costs, use $(b,--mem-backend paged) with a split-memory \
           mode (unopt, opt).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Render the execution schedule")

let engine_arg =
  Arg.(
    value
    & opt (some (enum [ ("closures", Interp.Closures);
                        ("tree", Interp.Tree_walk);
                        ("parallel", Interp.Parallel) ])) None
    & info [ "engine" ]
        ~doc:
          "Interpreter engine: closures (default), tree, or parallel (the \
           closure engine sharding kernel launches across a domain pool). \
           $(b,--jobs) implies parallel.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for the parallel engine; selects $(b,--engine parallel) \
           unless an engine is given explicitly. 0 picks an automatic count \
           (the CGCM_JOBS environment variable when set, otherwise the \
           machine's recommended domain count); 1 is the exact sequential \
           closure path.")

(* --jobs without --engine means the parallel engine; CGCM_JOBS alone
   only sizes the pool once that engine is selected. *)
let resolve_engine engine jobs =
  let engine =
    match (engine, jobs) with
    | Some e, _ -> e
    | None, Some _ -> Interp.Parallel
    | None, None -> Interp.default_config.Interp.engine
  in
  (engine, Option.value jobs ~default:0)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ] ~doc:"Print per-function dynamic instruction counts")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SEED[:SPEC]"
        ~doc:
          "Arm a deterministic driver fault plan. SPEC is comma-separated \
           clauses op@N (fail the N-th call) or op%P (fail with probability \
           P), op one of alloc|htod|dtoh|launch; without SPEC every \
           operation fails with probability 0.05.")

(* Byte counts accept KiB/MiB/GiB suffixes; the parse error message is
   pinned by a golden test (Bytesize.error_message). *)
let bytes_conv =
  let parse s =
    match Bytesize.parse s with Ok n -> Ok n | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"BYTES"
    (parse, fun ppf n -> Format.pp_print_string ppf (Bytesize.to_string n))

let device_mem_arg =
  Arg.(
    value
    & opt (some bytes_conv) None
    & info [ "device-mem" ] ~docv:"BYTES"
        ~doc:
          "Cap the simulated device memory (default: unbounded). Accepts \
           KiB/MiB/GiB suffixes, e.g. 64KiB.")

let backend_arg =
  Arg.(
    value
    & opt (enum Mem_backend.all) Mem_backend.Explicit
    & info [ "mem-backend" ] ~docv:"BACKEND"
        ~doc:
          "Memory backend for the split-memory modes: $(b,explicit) (the \
           CGCM-managed explicit-copy model, the default) or $(b,paged) (a \
           single shared address space charging touch-driven page-granular \
           migration; cgcm.* intrinsics become no-ops and all communication \
           cost comes from page faults).")

let page_bytes_arg =
  Arg.(
    value
    & opt (some bytes_conv) None
    & info [ "page-bytes" ] ~docv:"BYTES"
        ~doc:
          "Migration granularity for $(b,--mem-backend paged) (default: \
           4KiB). Accepts KiB/MiB/GiB suffixes.")

(* The flags run, report and suite share: which interpreter engine and
   memory backend execute the program. *)
type run_opts = {
  engine : Interp.engine;
  jobs : int;
  backend : Mem_backend.kind;
  page_bytes : int option;
}

let run_opts_term =
  let make engine jobs backend page_bytes =
    let engine, jobs = resolve_engine engine jobs in
    { engine; jobs; backend; page_bytes }
  in
  Term.(const make $ engine_arg $ jobs_arg $ backend_arg $ page_bytes_arg)

let config_of o ?trace ?faults ?device_mem ?sanitize exec =
  Pipeline.config ?trace ?faults ?device_mem ?sanitize ~engine:o.engine
    ~jobs:o.jobs ~backend:o.backend ?page_bytes:o.page_bytes exec

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Arm the shadow-memory coherence sanitizer: every allocation unit \
           is mirrored with an independent byte-version map and stale reads, \
           lost updates, premature releases and double frees abort with a \
           diagnostic (exit code 8). Split-memory modes only.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"MUTATION"
        ~doc:
          "Break the compiled program on purpose before running it: \
           drop-map@N, drop-unmap@N or drop-release@N deletes the N-th \
           (0-based) inserted management call. Combine with $(b,--sanitize) \
           to watch the sanitizer name the bug.")

let parse_chaos spec =
  let fail () =
    failwith
      (Fmt.str
         "bad --chaos %S (expected drop-map@N, drop-unmap@N or drop-release@N)"
         spec)
  in
  match String.index_opt spec '@' with
  | None -> fail ()
  | Some i ->
    let which = String.sub spec 0 i in
    let n =
      match
        int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
      with
      | Some n when n >= 0 -> n
      | _ -> fail ()
    in
    let intrinsic =
      match which with
      | "drop-map" -> Cgcm_ir.Ir.Intrinsic.map
      | "drop-unmap" -> Cgcm_ir.Ir.Intrinsic.unmap
      | "drop-release" -> Cgcm_ir.Ir.Intrinsic.release
      | _ -> fail ()
    in
    (intrinsic, n)

let parse_faults = Option.map Faults.parse

(* --- pass-pipeline surfaces (shared by run and ir) ------------------- *)

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"SPEC"
        ~doc:
          "Run a custom pass plan instead of the one the level/mode \
           implies: comma-separated pass names with $(b,fixpoint(...)) \
           sub-plans, e.g. \
           $(b,simplify,comm-mgmt,fixpoint(map-promotion)). The named \
           plans unmanaged, managed and optimized are accepted as items.")

let dump_ir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-ir" ] ~docv:"after:PASS"
        ~doc:
          "Print the IR after every execution of PASS \
           ($(b,after:all) dumps after every pass execution)")

let pass_stats_arg =
  Arg.(
    value
    & opt
        ~vopt:(Some `Table)
        (some (enum [ ("table", `Table); ("json", `Json) ]))
        None
    & info [ "pass-stats" ] ~docv:"FORMAT"
        ~doc:
          "Print per-pass statistics (wall time; instruction, launch and \
           run-time-call deltas). FORMAT is table (default) or json.")

let parse_passes = function
  | None -> None
  | Some spec -> (
    match Pass.parse_plan spec with
    | Ok plan -> Some plan
    | Error e -> failwith (Fmt.str "bad --passes: %s" e))

let parse_dump_ir = function
  | None -> None
  | Some spec ->
    let n = String.length spec in
    if n > 6 && String.sub spec 0 6 = "after:" then begin
      let name = String.sub spec 6 (n - 6) in
      if name <> "all" && Pass.find name = None then
        failwith
          (Fmt.str "bad --dump-ir: unknown pass %S (available: %s)" name
             (String.concat ", " (List.map (fun p -> p.Pass.name) Pass.all)));
      Some name
    end
    else
      failwith
        (Fmt.str "bad --dump-ir %S (expected after:PASS or after:all)" spec)

let dump_hooks = function
  | None -> Pass.default_hooks
  | Some sel ->
    {
      Pass.default_hooks with
      Pass.after_pass =
        (fun name m ->
          if sel = "all" || sel = name then begin
            Fmt.pr ";; === IR after %s ===@." name;
            print_string (Cgcm_ir.Printer.modul_to_string m)
          end);
    }

let print_pass_stats format (c : Pipeline.compiled) =
  match format with
  | `Table ->
    Fmt.pr "--- pass statistics:@.";
    Fmt.pr "    %-18s %9s %8s %7s %8s %8s@." "pass" "ms" "changed" "dinstr"
      "dlaunch" "drtcall";
    List.iter
      (fun (s : Pass.pass_stat) ->
        Fmt.pr "    %-18s %9.2f %8s %+7d %+8d %+8d@." s.Pass.ps_pass
          s.Pass.ps_wall_ms
          (if s.Pass.ps_changed then "yes" else "-")
          (s.Pass.ps_instrs_after - s.Pass.ps_instrs_before)
          (s.Pass.ps_launches_after - s.Pass.ps_launches_before)
          (s.Pass.ps_rtcalls_after - s.Pass.ps_rtcalls_before))
      c.Pipeline.pass_stats
  | `Json ->
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n  \"passes\": [";
    List.iteri
      (fun i (s : Pass.pass_stat) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\n    {\"pass\": %S, \"wall_ms\": %.3f, \"changed\": %b, \
              \"instrs\": [%d, %d], \"launches\": [%d, %d], \
              \"runtime_calls\": [%d, %d]}"
             s.Pass.ps_pass s.Pass.ps_wall_ms s.Pass.ps_changed
             s.Pass.ps_instrs_before s.Pass.ps_instrs_after
             s.Pass.ps_launches_before s.Pass.ps_launches_after
             s.Pass.ps_rtcalls_before s.Pass.ps_rtcalls_after))
      c.Pipeline.pass_stats;
    Buffer.add_string b "\n  ]\n}\n";
    print_string (Buffer.contents b)

let print_result (r : Interp.result) ~trace =
  print_string r.Interp.output;
  Fmt.pr "--- exit code   : %Ld@." r.Interp.exit_code;
  Fmt.pr "--- wall cycles : %.0f@." r.Interp.wall;
  Fmt.pr "--- cpu compute : %.0f@." r.Interp.cpu_compute;
  Fmt.pr "--- gpu kernels : %.0f (%d launches, %d insts)@." r.Interp.gpu
    r.Interp.dev_stats.Cgcm_gpusim.Device.launches r.Interp.kernel_insts;
  Fmt.pr "--- comm        : %.0f (HtoD %d B in %d, DtoH %d B in %d)@."
    r.Interp.comm r.Interp.dev_stats.Cgcm_gpusim.Device.htod_bytes
    r.Interp.dev_stats.Cgcm_gpusim.Device.htod_count
    r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_bytes
    r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count;
  (match r.Interp.page_stats with
  | Some ps ->
    Fmt.pr
      "--- page faults : %d to-dev (%d B), %d to-host (%d B), %d pages \
       touched@."
      ps.Paged.faults_to_dev ps.Paged.bytes_to_dev ps.Paged.faults_to_host
      ps.Paged.bytes_to_host ps.Paged.touched_pages
  | None -> ());
  let rs = r.Interp.rt_stats in
  if
    rs.Runtime.evictions > 0 || rs.Runtime.retries > 0
    || rs.Runtime.cpu_fallbacks > 0
  then
    Fmt.pr "--- recovery    : %d evictions, %d retries, %d cpu fallbacks@."
      rs.Runtime.evictions rs.Runtime.retries rs.Runtime.cpu_fallbacks;
  let leaks = r.Interp.leaks in
  if leaks.Runtime.resident_nonglobal > 0 || leaks.Runtime.leaked_dev_blocks > 0
  then
    Fmt.pr "--- LEAKS       : %d resident units, %d device blocks (%d B)@."
      leaks.Runtime.resident_nonglobal leaks.Runtime.leaked_dev_blocks
      leaks.Runtime.leaked_dev_bytes;
  (match r.Interp.san_report with
  | Some rep ->
    Fmt.pr "--- sanitizer   : %s@." (Cgcm_sanitizer.Sanitizer.render_report rep)
  | None -> ());
  if trace then print_string (Trace.render r.Interp.trace)

let run_cmd =
  let doc = "Compile and run a CGC program under a given execution mode" in
  let f file mode trace profile faults device_mem o sanitize chaos passes
      dump_ir pass_stats =
    guarded @@ fun () ->
    let src = read_file file in
    let faults = parse_faults faults in
    let plan = parse_passes passes in
    let hooks = dump_hooks (parse_dump_ir dump_ir) in
    let c = Pipeline.compile_for ?plan ~hooks mode src in
    (match chaos with
    | Some spec ->
      let intrinsic, n = parse_chaos spec in
      if
        not
          (Cgcm_transform.Comm_mgmt.drop_nth_call c.Pipeline.modul ~intrinsic
             ~n)
      then
        failwith
          (Fmt.str
             "--chaos %s: the module has no such call (try a smaller N, or \
              --mode unopt/opt)"
             spec)
    | None -> ());
    let config = config_of o ~trace ?faults ?device_mem ~sanitize mode in
    let config = { config with Interp.profile } in
    let r = Interp.run ~config c.Pipeline.modul in
    print_result r ~trace;
    Option.iter (fun format -> print_pass_stats format c) pass_stats;
    if profile then begin
      Fmt.pr "--- per-function dynamic instructions:@.";
      List.iter
        (fun (name, n) -> Fmt.pr "    %-30s %12d@." name n)
        r.Interp.profile
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const f $ file_arg $ mode_arg $ trace_arg $ profile_arg $ faults_arg
      $ device_mem_arg $ run_opts_term $ sanitize_arg $ chaos_arg $ passes_arg
      $ dump_ir_arg $ pass_stats_arg)

let level_conv =
  Arg.enum
    [
      ("unmanaged", Pipeline.Unmanaged);
      ("managed", Pipeline.Managed);
      ("optimized", Pipeline.Optimized);
    ]

let level_arg =
  Arg.(
    value
    & opt level_conv Pipeline.Optimized
    & info [ "level"; "l" ] ~doc:"Pipeline level: unmanaged, managed, optimized")

let ir_cmd =
  let doc = "Dump the IR after the selected pipeline level (or pass plan)" in
  let f file level passes dump_ir pass_stats =
    guarded @@ fun () ->
    let plan = parse_passes passes in
    let dump = parse_dump_ir dump_ir in
    let c =
      Pipeline.compile ~level ?plan ~hooks:(dump_hooks dump) (read_file file)
    in
    print_string (Cgcm_ir.Printer.modul_to_string c.Pipeline.modul);
    match pass_stats with
    | Some format -> print_pass_stats format c
    | None -> ()
  in
  Cmd.v (Cmd.info "ir" ~doc)
    Term.(
      const f $ file_arg $ level_arg $ passes_arg $ dump_ir_arg
      $ pass_stats_arg)

let ast_cmd =
  let doc = "Dump the AST (after DOALL outlining unless --no-doall)" in
  let no_doall =
    Arg.(value & flag & info [ "no-doall" ] ~doc:"Skip the DOALL outliner")
  in
  let f file no_doall =
    guarded @@ fun () ->
    let ast = Cgcm_frontend.Parser.parse_string (read_file file) in
    let ast =
      if no_doall then ast
      else fst (Cgcm_frontend.Doall.transform ~mode:Cgcm_frontend.Doall.Auto ast)
    in
    print_string (Cgcm_frontend.Ast.program_to_string ast)
  in
  Cmd.v (Cmd.info "ast" ~doc) Term.(const f $ file_arg $ no_doall)

let fmt_cmd =
  let doc = "Pretty-print a CGC program (parse + print; output re-parses)" in
  let f file =
    guarded @@ fun () ->
    print_string
      (Cgcm_frontend.Ast.program_to_string
         (Cgcm_frontend.Parser.parse_string (read_file file)))
  in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const f $ file_arg)

let report_cmd =
  let doc = "Run all execution modes and report speedups over sequential" in
  let f file faults device_mem o =
    guarded @@ fun () ->
    let src = read_file file in
    let faults = parse_faults faults in
    (* The sequential baseline never touches the device, so faults, the
       memory cap and the backend only shape the managed configurations. *)
    let _, seq = Pipeline.run Pipeline.Sequential src in
    Fmt.pr "%-22s %14s %9s@." "mode" "wall cycles" "speedup";
    let show name (r : Interp.result) =
      Fmt.pr "%-22s %14.0f %8.2fx@." name r.Interp.wall
        (seq.Interp.wall /. r.Interp.wall)
    in
    show "sequential" seq;
    let mismatched = ref false in
    List.iter
      (fun (name, mode) ->
        let r =
          Interp.run
            ~config:(config_of o ?faults ?device_mem mode)
            (Pipeline.compile_for mode src).Pipeline.modul
        in
        if r.Interp.output <> seq.Interp.output then begin
          mismatched := true;
          Fmt.pr "!! %s: OUTPUT MISMATCH vs sequential@." name
        end;
        show name r)
      [
        ("inspector-executor", Pipeline.Inspector_executor_exec);
        ("cgcm-unoptimized", Pipeline.Cgcm_unoptimized);
        ("cgcm-optimized", Pipeline.Cgcm_optimized);
      ];
    if !mismatched then exit 1
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const f $ file_arg $ faults_arg $ device_mem_arg $ run_opts_term)

let suite_cmd =
  let doc = "Run the 24-program suite and print the paper's artifacts" in
  let what_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~doc:"Run a single named program")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some (enum [ ("source", `Source); ("ir", `Ir) ])) None
      & info [ "dump" ] ~doc:"With --only: dump the program source or optimized IR")
  in
  let f only dump o =
    guarded @@ fun () ->
    let module E = Cgcm_core.Experiments in
    let { engine; jobs; backend; page_bytes } = o in
    let usage msg =
      Fmt.epr "cgcm suite: %s@." msg;
      exit Cgcm_core.Diagnostics.exit_usage
    in
    match only with
    | Some name -> begin
      match Cgcm_progs.Registry.find name with
      | None -> usage ("unknown program " ^ name)
      | Some p when dump = Some `Source ->
        print_string p.Cgcm_progs.Registry.source
      | Some p when dump = Some `Ir ->
        let c =
          Pipeline.compile ~level:Pipeline.Optimized
            p.Cgcm_progs.Registry.source
        in
        print_string (Cgcm_ir.Printer.modul_to_string c.Pipeline.modul)
      | Some p ->
        let r = E.run_program ~engine ~jobs ~backend ?page_bytes p in
        Fmt.pr "%s: seq=%.0f ie=%.2fx unopt=%.2fx opt=%.2fx kernels=%d %s@."
          name r.E.seq.Interp.wall
          (E.speedup ~seq:r.E.seq r.E.ie)
          (E.speedup ~seq:r.E.seq r.E.unopt)
          (E.speedup ~seq:r.E.seq r.E.opt)
          r.E.kernels
          (if r.E.outputs_match then "outputs-ok" else "OUTPUT MISMATCH")
    end
    | None when dump <> None -> usage "--dump needs --only"
    | None ->
      let results =
        E.run_suite ~engine ~jobs ~backend ?page_bytes
          ~progress:(fun name -> Fmt.epr "running %s...@." name)
          ()
      in
      Fmt.pr "%s@." (E.figure4 results);
      Fmt.pr "%s@." (E.table3 results);
      Fmt.pr "%s@." (E.applicability results);
      List.iter
        (fun (r : E.prog_result) ->
          if not r.E.outputs_match then
            Fmt.pr "!! %s: OUTPUT MISMATCH@." r.E.prog.Cgcm_progs.Registry.name)
        results
  in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(const f $ what_arg $ dump_arg $ run_opts_term)

let run_ir_cmd =
  let doc = "Execute a textual IR module (as produced by 'cgcm ir')" in
  let unified =
    Arg.(value & flag & info [ "unified" ] ~doc:"Run in unified memory")
  in
  let f file unified trace =
    guarded @@ fun () ->
    let m = Cgcm_ir.Reader.parse_verified (read_file file) in
    let config =
      {
        Interp.default_config with
        Interp.mode = (if unified then Interp.Unified else Interp.Split);
        trace;
      }
    in
    print_result (Interp.run ~config m) ~trace
  in
  Cmd.v (Cmd.info "run-ir" ~doc) Term.(const f $ file_arg $ unified $ trace_arg)

let fuzz_cmd =
  let doc =
    "Fuzz the whole pipeline: random CGC programs run under every \
     optimization level and both engines with the coherence sanitizer \
     armed; failures are shrunk to minimal counterexamples"
  in
  let count_arg =
    Arg.(
      value & opt int 50
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of programs to generate")
  in
  let seed_arg =
    Arg.(
      value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Campaign seed")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also write the failure reports to FILE (for CI artifacts)")
  in
  let fuzz_jobs_arg =
    Arg.(
      value & opt int 4
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains for the parallel-engine configuration of each \
             differential check (default 4 so kernels shard even on \
             single-core hosts)")
  in
  let plan_rounds_arg =
    Arg.(
      value & opt int 1
      & info [ "plan-rounds" ] ~docv:"N"
          ~doc:
            "Rounds of fuzzed pass plans per program (each round adds a \
             schedule-ordered subset plan run under split memory and a \
             random subset/permutation plan run in unified memory); 0 \
             disables pass-plan fuzzing")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt float 60_000.0
      & info [ "shrink-budget-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for shrinking each failing program; when \
             it lapses the smallest counterexample found so far is \
             reported")
  in
  let wire_arg =
    Arg.(
      value & opt int 0
      & info [ "wire" ] ~docv:"N"
          ~doc:
            "Also fuzz the serve wire protocol with N cases: random frame \
             streams — pristine and corrupted (bit flips, truncation, \
             hostile length headers, injected garbage) — fed to the \
             incremental decoder in random chunks; the decoder must \
             decode pristine streams exactly and reject hostile ones \
             with nothing but a protocol error")
  in
  let f count seed out jobs plan_rounds shrink_budget_ms wire =
    guarded @@ fun () ->
    let wire_reports =
      if wire <= 0 then []
      else
        Cgcm_fuzz.Wire_fuzz.campaign
          ~progress:(fun k ->
            if k mod 100 = 0 then Fmt.epr "fuzz: wire case %d/%d...@." k wire)
          ~count:wire ~seed ()
    in
    List.iter
      (fun r -> Fmt.pr "%s@." (Cgcm_fuzz.Wire_fuzz.render_report r))
      wire_reports;
    if wire > 0 && wire_reports = [] then
      Fmt.pr "fuzz: %d wire cases clean (seed %d)@." wire seed;
    let reports =
      Cgcm_fuzz.Fuzz.campaign
        ~progress:(fun k ->
          if k mod 10 = 0 then Fmt.epr "fuzz: program %d/%d...@." k count)
        ~jobs ~plan_rounds ~shrink_budget_ms ~count ~seed ()
    in
    let rendered = List.map Cgcm_fuzz.Fuzz.render_report reports in
    List.iter (Fmt.pr "%s@.") rendered;
    (match out with
    | Some path ->
      let oc = open_out path in
      List.iter (fun r -> output_string oc (r ^ "\n")) rendered;
      close_out oc
    | None -> ());
    if reports = [] then Fmt.pr "fuzz: %d programs clean (seed %d)@." count seed
    else
      Fmt.epr "fuzz: %d of %d programs failed@." (List.length reports) count;
    if reports <> [] || wire_reports <> [] then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const f $ count_arg $ seed_arg $ out_arg $ fuzz_jobs_arg
      $ plan_rounds_arg $ shrink_budget_arg $ wire_arg)

let figure2_cmd =
  let doc = "Render the Figure 2 execution schedules" in
  let f () = print_string (Cgcm_core.Experiments.figure2 ()) in
  Cmd.v (Cmd.info "figure2" ~doc) Term.(const f $ const ())

(* --- the serve daemon and its client -------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/cgcm-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path of the daemon")

let serve_cmd =
  let doc =
    "Run the compile-and-run daemon: a unix-socket service accepting \
     requests from named tenants, with a cross-request compilation cache, \
     per-tenant warm device residency, admission control, per-request \
     deadlines, transient-fault retry and per-tenant circuit breakers"
  in
  let max_queue_arg =
    Arg.(
      value & opt int Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission bound: shed requests beyond this queue depth")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int
          Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.default_deadline
      & info [ "deadline" ] ~docv:"FUEL"
          ~doc:
            "Default per-request deadline, in interpreter fuel \
             (instructions); a request's own deadline overrides it")
  in
  let max_retries_arg =
    Arg.(
      value
      & opt int Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Extra attempts for injected (transient) driver faults")
  in
  let backoff_arg =
    Arg.(
      value
      & opt float Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.backoff_ms
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff between retry attempts; doubles per attempt")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int
          Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.circuit_threshold
      & info [ "circuit-threshold" ] ~docv:"N"
          ~doc:
            "Consecutive device-path failures that trip a tenant's \
             circuit breaker (degrading it to CPU-only execution)")
  in
  let cache_arg =
    Arg.(
      value
      & opt int
          Cgcm_serve.Engine.default_config.Cgcm_serve.Engine.cache_capacity
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Compiled-module LRU cache capacity")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead journal of recoverable state (compiled modules, \
             warm residency, circuit breakers). If the file already holds \
             records from a previous run — crashed or clean — the daemon \
             replays them on startup and rebuilds its warm state before \
             accepting connections. With --shards N > 1 each shard keeps \
             its own segment at PATH.shardI.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Worker shards: each owns a full engine (compiled-module \
             cache, warm residency, breakers, journal segment) on its own \
             domain, with tenants hashed to shards deterministically. 1 \
             (the default) keeps the original single-threaded loop.")
  in
  let f socket max_queue device_mem deadline max_retries backoff threshold
      cache_entries faults journal_path shards =
    guarded @@ fun () ->
    let config =
      {
        Cgcm_serve.Engine.default_config with
        Cgcm_serve.Engine.max_queue;
        device_mem = Option.value device_mem ~default:max_int;
        default_deadline = deadline;
        max_retries;
        backoff_ms = backoff;
        circuit_threshold = threshold;
        cache_capacity = cache_entries;
        faults = parse_faults faults;
      }
    in
    let server =
      Cgcm_serve.Server.create ~engine_config:config ?journal_path ~shards
        ~log:(fun s -> Fmt.epr "%s@." s)
        ~socket_path:socket ()
    in
    Option.iter
      (fun r ->
        Fmt.epr
          "cgcm serve: recovered %d journal records (%d modules recompiled, \
           %d rewarmed, %d tenants%s%s)@."
          r.Cgcm_serve.Engine.rec_records r.Cgcm_serve.Engine.rec_compiled
          r.Cgcm_serve.Engine.rec_rewarmed r.Cgcm_serve.Engine.rec_tenants
          (if r.Cgcm_serve.Engine.rec_torn then ", torn tail dropped" else "")
          (if r.Cgcm_serve.Engine.rec_skipped > 0 then
             Printf.sprintf ", %d stale records skipped"
               r.Cgcm_serve.Engine.rec_skipped
           else ""))
      (Cgcm_serve.Server.recovered server);
    let stop _ = Cgcm_serve.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Fmt.epr "cgcm serve: listening on %s (%d shard%s)@." socket shards
      (if shards = 1 then "" else "s");
    let line, residual = Cgcm_serve.Server.run server in
    Fmt.pr "%s@." line;
    if residual <> 0 then exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const f $ socket_arg $ max_queue_arg $ device_mem_arg $ deadline_arg
      $ max_retries_arg $ backoff_arg $ threshold_arg $ cache_arg $ faults_arg
      $ journal_arg $ shards_arg)

let request_cmd =
  let doc =
    "Send one request to a running serve daemon and print the program \
     output; typed rejections exit with their own codes (overloaded 9, \
     deadline exceeded 10, circuit open 11, reply timeout 13)"
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"CGC source file (omit for --ping etc.)")
  in
  let tenant_arg =
    Arg.(
      value & opt string "anonymous"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant this request bills to")
  in
  let smode_arg =
    Arg.(
      value
      & opt
          (enum (List.map (fun m -> (m, m)) Pipeline.mode_names))
          "opt"
      & info [ "mode"; "m" ]
          ~doc:
            "Execution mode: seq, unopt, opt, ie, unified; the split modes \
             take an optional memory-backend suffix, e.g. $(b,opt+paged). \
             As with $(b,cgcm run), $(b,unified) is the paper's unified \
             address-space oracle, not a managed-memory model.")
  in
  let req_deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"FUEL"
          ~doc:"Per-request deadline in interpreter fuel")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail with exit code 11 when the tenant's circuit breaker is \
             open, instead of degrading to CPU-only execution")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just check the daemon is alive")
  in
  let stats_arg =
    Arg.(
      value & flag & info [ "stats" ] ~doc:"Print the daemon's stats as JSON")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:
            "Give up waiting for the reply after this many milliseconds \
             (exit code 13) instead of hanging on a wedged daemon")
  in
  let f socket file tenant mode deadline strict faults ping stats shutdown
      timeout_ms =
    guarded @@ fun () ->
    if ping then begin
      if Cgcm_serve.Client.ping ~socket_path:socket then Fmt.pr "pong@."
      else begin
        Fmt.epr "cgcm request: no daemon at %s@." socket;
        exit 1
      end
    end
    else if stats then
      Fmt.pr "%s@."
        (Cgcm_serve.Json.print (Cgcm_serve.Client.stats ~socket_path:socket))
    else if shutdown then begin
      if not (Cgcm_serve.Client.shutdown ~socket_path:socket) then begin
        Fmt.epr "cgcm request: no daemon at %s@." socket;
        exit 1
      end
    end
    else begin
      let file =
        match file with
        | Some f -> f
        | None -> failwith "cgcm request: FILE required (or --ping/--stats/--shutdown)"
      in
      let req =
        {
          Cgcm_serve.Wire.rq_id = Unix.getpid ();
          rq_tenant = tenant;
          rq_source = read_file file;
          rq_mode = mode;
          rq_deadline = deadline;
          rq_strict = strict;
          rq_faults = faults;
        }
      in
      let reply =
        Cgcm_serve.Client.request ?timeout_ms ~socket_path:socket req
      in
      print_string reply.Cgcm_serve.Wire.rp_output;
      Fmt.epr "--- status : %s (cache %s%s%s)@."
        (Cgcm_serve.Wire.status_name reply.Cgcm_serve.Wire.rp_status)
        reply.Cgcm_serve.Wire.rp_cache
        (if reply.Cgcm_serve.Wire.rp_degraded then ", degraded" else "")
        (if reply.Cgcm_serve.Wire.rp_retries > 0 then
           Printf.sprintf ", %d retries" reply.Cgcm_serve.Wire.rp_retries
         else "");
      match reply.Cgcm_serve.Wire.rp_status with
      | Cgcm_serve.Wire.Ok -> ()
      | _ ->
        Fmt.epr "%s@." reply.Cgcm_serve.Wire.rp_error;
        exit reply.Cgcm_serve.Wire.rp_exit_code
    end
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      const f $ socket_arg $ file_opt_arg $ tenant_arg $ smode_arg
      $ req_deadline_arg $ strict_arg $ faults_arg $ ping_arg $ stats_arg
      $ shutdown_arg $ timeout_arg)

let chaos_cmd =
  let doc =
    "Kill-restart chaos harness for the serve daemon: fork a journal-armed \
     daemon, drive a seeded request burst, kill -9 it mid-burst (optionally \
     tearing the journal tail), restart it with recovery, and gate on \
     bit-identical replies, journal durability, zero invariant violations \
     and zero device leaks; failing schedules are shrunk to a minimal \
     reproduction"
  in
  let seeds_arg =
    Arg.(
      value
      & opt (list ~sep:',' int) [ 1; 7; 42 ]
      & info [ "seeds" ] ~docv:"A,B,C" ~doc:"Comma-separated schedule seeds")
  in
  let requests_arg =
    Arg.(
      value & opt int 30
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per schedule")
  in
  let dir_arg =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "cgcm-chaos")
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Working directory for sockets, journals and daemon logs")
  in
  let no_torn_arg =
    Arg.(
      value & flag
      & info [ "no-torn-tail" ]
          ~doc:"Skip the injected torn journal record before the restart")
  in
  let chaos_shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the daemons under test with N shards: the kill lands while \
             several shard journal segments are live, and recovery must \
             reassemble all of them")
  in
  let f seeds requests dir no_torn shards =
    guarded @@ fun () ->
    let failed = ref false in
    List.iter
      (fun seed ->
        let cfg =
          {
            (Cgcm_serve.Chaos.default_config ~seed ~dir) with
            Cgcm_serve.Chaos.ch_requests = requests;
            ch_torn_tail = not no_torn;
            ch_shards = shards;
          }
        in
        let outcome = Cgcm_serve.Chaos.run cfg in
        Fmt.pr "%s@." (Cgcm_serve.Chaos.render_outcome outcome);
        if outcome.Cgcm_serve.Chaos.oc_violations <> [] then begin
          failed := true;
          Fmt.epr "chaos seed=%d: shrinking the failing schedule...@." seed;
          let sched, shrunk =
            Cgcm_serve.Chaos.shrink
              ~run:(Cgcm_serve.Chaos.run_schedule cfg)
              outcome.Cgcm_serve.Chaos.oc_schedule outcome
          in
          Fmt.epr "%s@." (Cgcm_serve.Chaos.render_schedule sched);
          Fmt.epr "%s@." (Cgcm_serve.Chaos.render_outcome shrunk);
          let art = Filename.concat dir (Printf.sprintf "repro-%d.txt" seed) in
          let oc = open_out art in
          output_string oc (Cgcm_serve.Chaos.render_schedule sched);
          output_string oc (Cgcm_serve.Chaos.render_outcome shrunk);
          output_string oc "\n";
          close_out oc;
          Fmt.epr "chaos seed=%d: minimal reproduction written to %s@." seed
            art
        end)
      seeds;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const f $ seeds_arg $ requests_arg $ dir_arg $ no_torn_arg
      $ chaos_shards_arg)

let main_cmd =
  let doc = "CGCM: automatic CPU-GPU communication management (PLDI 2011)" in
  Cmd.group (Cmd.info "cgcm" ~version:"0.1.0" ~doc)
    [
      run_cmd; run_ir_cmd; ir_cmd; ast_cmd; fmt_cmd; report_cmd; suite_cmd;
      fuzz_cmd; figure2_cmd; serve_cmd; request_cmd; chaos_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
