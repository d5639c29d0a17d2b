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

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("golden per-pass IR: " ^ name) `Quick
        (test_golden_dump (name, src)))
    golden_programs
  @ [
      Alcotest.test_case "suite IR identity" `Quick test_suite_ir_identity;
      QCheck_alcotest.to_alcotest prop_pass_orders_preserve_output;
    ]
