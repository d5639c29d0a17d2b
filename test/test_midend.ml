(* Tests for the mid-end: golden per-pass IR dumps, digests of the IR
   the pipeline emits for the whole suite, and a qcheck property that
   legal pass subsets/orders preserve program output. *)

module Pass = Cgcm_transform.Pass
module Pipeline = Cgcm_core.Pipeline
module Fuzz = Cgcm_fuzz.Fuzz

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Golden per-pass IR dumps *)

let golden_programs =
  [
    ("gemm-n6", Cgcm_progs.Polybench.gemm ~n:6 ());
    ("atax-n8", Cgcm_progs.Polybench.atax ~n:8 ());
    ("gemver-n8", Cgcm_progs.Polybench.gemver ~n:8 ());
  ]

let dump_passes src =
  let buf = Buffer.create 4096 in
  let hooks =
    {
      Pass.default_hooks with
      Pass.after_pass =
        (fun name m ->
          Buffer.add_string buf (Printf.sprintf ";; === after %s ===\n" name);
          Buffer.add_string buf (Cgcm_ir.Printer.modul_to_string m));
    }
  in
  ignore (Pipeline.compile ~hooks src);
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_dump (name, src) () =
  let got = dump_passes src in
  let file = name ^ ".passes.ir" in
  match Sys.getenv_opt "CGCM_UPDATE_GOLDEN" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir file) in
    output_string oc got;
    close_out oc
  | None ->
    (* dune runtest runs in the test directory with golden/ staged as a
       dep; dune exec from the repo root sees the source tree instead *)
    let path =
      List.find_opt Sys.file_exists
        [ Filename.concat "golden" file;
          Filename.concat (Filename.concat "test" "golden") file ]
    in
    (match path with
    | None ->
      Alcotest.fail
        (Printf.sprintf
           "golden file %s missing — regenerate with \
            CGCM_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- \
            test midend"
           file)
    | Some path ->
      check Alcotest.string ("per-pass IR dump: " ^ name) (read_file path) got)

(* ------------------------------------------------------------------ *)
(* Suite IR identity *)

(* One line per suite program x level x DOALL mode: the MD5 of the
   printed module the mid-end emits. Pins the compiler's output across
   refactors of the pass framework, over the whole suite rather than
   the three per-pass dumps above. *)
let suite_ir_digests () =
  let levels =
    [ ("managed", Pipeline.Managed); ("optimized", Pipeline.Optimized) ]
  in
  let doalls =
    [ ("auto", Cgcm_frontend.Doall.Auto); ("off", Cgcm_frontend.Doall.Off) ]
  in
  List.concat_map
    (fun (p : Cgcm_progs.Registry.program) ->
      List.concat_map
        (fun (lname, level) ->
          List.map
            (fun (dname, parallel) ->
              let c = Pipeline.compile ~parallel ~level p.source in
              Printf.sprintf "%s %s %s %s\n" p.name lname dname
                (Digest.to_hex
                   (Digest.string
                      (Cgcm_ir.Printer.modul_to_string c.Pipeline.modul))))
            doalls)
        levels)
    Cgcm_progs.Registry.all
  |> String.concat ""

let test_suite_ir_identity () =
  let got = suite_ir_digests () in
  let file = "suite-ir.digest" in
  match Sys.getenv_opt "CGCM_UPDATE_GOLDEN" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir file) in
    output_string oc got;
    close_out oc
  | None ->
    let path =
      List.find_opt Sys.file_exists
        [ Filename.concat "golden" file;
          Filename.concat (Filename.concat "test" "golden") file ]
    in
    (match path with
    | None -> Alcotest.fail ("golden file missing: " ^ file)
    | Some path ->
      check Alcotest.string "suite IR digests" (read_file path) got)

(* ------------------------------------------------------------------ *)
(* Pass subset/order property *)

(* Any legal plan preserves program output: schedule-ordered subsets
   containing comm-mgmt run under split memory, arbitrary permutations
   of arbitrary subsets run against the unified-memory oracle. Plans
   derive from the program seed; compilation verifies the module after
   every pass (the default policy), so a plan that produces ill-formed
   IR also fails here. *)
let prop_pass_orders_preserve_output =
  QCheck.Test.make ~count:10 ~name:"legal pass subsets/orders preserve output"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = Fuzz.generate ~seed in
      match Fuzz.check_plans ~rounds:2 ~seed (Fuzz.render p) with
      | None -> true
      | Some f ->
        QCheck.Test.fail_reportf "seed %d, %s: %s\n%s" seed f.Fuzz.f_config
          f.Fuzz.f_kind f.Fuzz.f_detail)

(* ------------------------------------------------------------------ *)
(* Pass statistics: the counts [Pass.run_plan] reports for each pass
   execution carry over from one execution to the next instead of being
   recounted. Recount from scratch after every execution, through the
   [after_pass] hook, for the whole suite under every named plan. *)

let test_pass_stats_recount () =
  List.iter
    (fun (p : Cgcm_progs.Registry.program) ->
      List.iter
        (fun (plan_name, plan) ->
          let recount m =
            (Pass.instr_count m, Pass.launch_count m, Pass.runtime_call_count m)
          in
          (* the counts of the lowered module, before the first pass *)
          let prev =
            ref (recount (Pipeline.compile ~plan:[] p.source).Pipeline.modul)
          in
          let last = ref None in
          let hooks =
            {
              Pass.on_stat = (fun s -> last := Some s);
              after_pass =
                (fun pass m ->
                  let what = Printf.sprintf "%s/%s/%s" p.name plan_name pass in
                  let s = Option.get !last in
                  let triple = Alcotest.(triple int int int) in
                  check triple (what ^ ": counts before")
                    !prev
                    ( s.Pass.ps_instrs_before,
                      s.Pass.ps_launches_before,
                      s.Pass.ps_rtcalls_before );
                  let now = recount m in
                  check triple (what ^ ": counts after") now
                    ( s.Pass.ps_instrs_after,
                      s.Pass.ps_launches_after,
                      s.Pass.ps_rtcalls_after );
                  prev := now);
            }
          in
          ignore (Pipeline.compile ~plan ~hooks p.source))
        Pass.named_plans)
    Cgcm_progs.Registry.all

(* ------------------------------------------------------------------ *)
(* Compile allocation budget *)

(* Minor-heap words per compile of the 16 PolyBench generators at n = 8,
   by mode. The count is deterministic for one binary. Measured before
   the lexer, verifier, pass-statistics and type-inference rewrites:
   seq 50131, unopt 88481, opt and unified 173406, ie 60764; after them
   as below. The bound is that measurement plus a third, below every
   earlier one. *)
let compile_words =
  [
    ("seq", 22_520.);
    ("unopt", 51_060.);
    ("opt", 96_026.);
    ("ie", 33_729.);
    ("unified", 96_031.);
  ]

let compile_words_headroom = 1.33

let test_compile_allocation_budget () =
  let module P = Cgcm_progs.Polybench in
  let sources =
    [
      P.adi ~n:8 (); P.atax ~n:8 (); P.bicg ~n:8 (); P.correlation ~n:8 ();
      P.covariance ~n:8 (); P.doitgen ~n:8 (); P.gemm ~n:8 ();
      P.gemver ~n:8 (); P.gesummv ~n:8 (); P.gramschmidt ~n:8 ();
      P.jacobi_2d ~n:8 (); P.seidel ~n:8 (); P.lu ~n:8 (); P.ludcmp ~n:8 ();
      P.twomm ~n:8 (); P.threemm ~n:8 ();
    ]
  in
  List.iter
    (fun (mode, execution) ->
      let w0 = Gc.minor_words () in
      List.iter (fun src -> ignore (Pipeline.compile_for execution src)) sources;
      let per = (Gc.minor_words () -. w0) /. float_of_int (List.length sources) in
      let bound = compile_words_headroom *. List.assoc mode compile_words in
      if per > bound then
        Alcotest.failf "%s: %.0f minor words per compile (bound %.0f)" mode per
          bound)
    Pipeline.executions

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("golden per-pass IR: " ^ name) `Quick
        (test_golden_dump (name, src)))
    golden_programs
  @ [
      Alcotest.test_case "suite IR identity" `Quick test_suite_ir_identity;
      QCheck_alcotest.to_alcotest prop_pass_orders_preserve_output;
      Alcotest.test_case "pass statistics equal a recount" `Quick
        test_pass_stats_recount;
      Alcotest.test_case "compile allocation budget (words per compile)"
        `Quick test_compile_allocation_budget;
    ]
