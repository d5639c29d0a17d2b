(* The cgcm performance ledger.

     dune exec -- ./ledger/main.exe ledger [--workload NAME] [--seed N]
         [--seconds S] [--trace 0|1] [--out FILE]
     dune exec -- ./ledger/main.exe diff OLD.json NEW.json

   [ledger --workload NAME] runs one workload in this process, prints its
   metrics by name with their units, and ends its output with one JSON
   line: {"correct", "attempted", "failed", "metrics"} -- the end-to-end
   metrics with [--trace 0], the per-layer metrics of a traced run with
   [--trace 1]. Without [--workload] it runs every workload, untraced
   and traced, each in a freshly exec'd process, and writes the merged
   result file. Run and trace files go under .ledger_out/. *)

module Json = Cgcm_serve.Json
module Ledger = Cgcm_ledger

let out_dir = ".ledger_out"

let usage () =
  prerr_string
    "usage: main.exe ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE]\n\
    \       main.exe diff OLD.json NEW.json\n";
  exit 2

(* [--flag value] pairs, in any order, after the positional arguments. *)
let rec flags = function
  | [] -> []
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
    (String.sub k 2 (String.length k - 2), v) :: flags rest
  | _ -> usage ()

let int_flag fs k default =
  match List.assoc_opt k fs with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

(* ------------------------------------------------------------------ *)
(* The environment every result file records                           *)

(* Read from .git directly: a checkout without git history reports
   "unknown". *)
let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    (match read (".git/" ^ ref_) with
     | Some rev -> rev
     | None ->
       Option.value ~default:"unknown"
         (Option.bind (read ".git/packed-refs") (fun packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; r ] when r = ref_ -> Some rev
                     | _ -> None))))
  | Some rev -> rev
  | None -> "unknown"

let env ~seed ~seconds : Json.t =
  let cores = Domain.recommended_domain_count () in
  Obj
    ([
       ("host_cores", Json.Int cores);
       ("git_rev", Str (git_rev ()));
       ("ocaml_version", Str Sys.ocaml_version);
       ("seed", Int seed);
       ("seconds", Int seconds);
     ]
    @ if cores < 2 then [ ("degraded", Json.Bool true) ] else [])

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

let run_workload w ~seed ~seconds ~trace =
  let trace_file =
    Printf.sprintf "%s/trace-%s-seed%d.json" out_dir (Ledger.Workload.name w) seed
  in
  match (w, trace) with
  | (Ledger.Workload.Suite_explicit | Suite_paged), false ->
    Ledger.Suite.run_untraced ~workload:w ~seed ~seconds:(float_of_int seconds)
  | (Suite_explicit | Suite_paged), true ->
    Ledger.Suite.run_traced ~workload:w ~seed ~trace_file
  | (Serve_hot | Serve_cold), false ->
    Ledger.Serve.run_untraced ~workload:w ~seed ~seconds:(float_of_int seconds) ~dir:out_dir
  | (Serve_hot | Serve_cold), true ->
    Ledger.Serve.run_traced ~workload:w ~seed ~dir:out_dir ~trace_file

let part_json ~seed (o : Ledger.Harness.outcome) : Json.t =
  Obj
    [
      ("seed", Int seed);
      ("correct", Bool o.correct);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ("failed_ratio", Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
      ("metrics", Obj (List.map (fun m -> (m.Ledger.Metric.name, Ledger.Metric.full_json m)) o.metrics));
      ("notes", Obj o.notes);
    ]

let result_json ~seed ~seconds workloads : Json.t =
  Obj
    [
      ("schema", Str "cgcm-ledger-1");
      ("env", env ~seed ~seconds);
      ("workloads", Obj workloads);
    ]

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let ledger_one w ~seed ~seconds ~trace ~out =
  let o = run_workload w ~seed ~seconds ~trace in
  let names = if trace then Ledger.Metric.per_layer else Ledger.Metric.end_to_end in
  let selected = Ledger.Metric.select names o.metrics in
  List.iter
    (fun (m : Ledger.Metric.t) ->
      Printf.printf "%-16s %-26s %.6g %s\n" (Ledger.Workload.name w) m.name m.value m.unit_)
    selected;
  List.iter
    (fun (k, v) ->
      match v with
      | Json.List [] -> ()
      | v -> Printf.printf "%-16s note %s = %s\n" (Ledger.Workload.name w) k (Json.print v))
    o.notes;
  Option.iter
    (fun path ->
      write_file path
        (Json.print
           (result_json ~seed ~seconds
              [
                ( Ledger.Workload.name w,
                  Obj [ ((if trace then "traced" else "untraced"), part_json ~seed o) ] );
              ])
        ^ "\n"))
    out;
  print_endline
    (Json.print
       (Obj
          [
            ("correct", Bool o.correct);
            ("attempted", Int o.attempted);
            ("failed", Int o.failed);
            ( "metrics",
              Obj (List.map (fun m -> (m.Ledger.Metric.name, Ledger.Metric.value_json m)) selected) );
          ]))

(* Every workload, untraced then traced, each in a fresh process; the
   parts merge into one result file. *)
let ledger_all ~seed ~seconds ~out =
  let exe = Sys.executable_name in
  let workloads =
    List.map
      (fun w ->
        let name = Ledger.Workload.name w in
        let parts =
          List.map
            (fun trace ->
              let part = Printf.sprintf "%s/part-%s-%d.json" out_dir name trace in
              let args =
                [| exe; "ledger"; "--workload"; name; "--seed"; string_of_int seed;
                   "--seconds"; string_of_int seconds; "--trace"; string_of_int trace;
                   "--out"; part |]
              in
              flush_all ();
              let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
              (match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _ ->
                Printf.eprintf "ledger: %s (trace %d) failed\n" name trace;
                exit 1);
              let r = Json.parse (In_channel.with_open_text part In_channel.input_all) in
              match Json.member "workloads" r with
              | Some (Obj [ (_, Obj fields) ]) -> fields
              | _ -> failwith ("ledger: malformed part " ^ part))
            [ 0; 1 ]
        in
        (name, Json.Obj (List.concat parts)))
      Ledger.Workload.all
  in
  write_file out (Json.print (result_json ~seed ~seconds workloads) ^ "\n");
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "ledger" :: rest ->
    let fs = flags rest in
    let seed = int_flag fs "seed" 1 and seconds = int_flag fs "seconds" 20 in
    let trace =
      match List.assoc_opt "trace" fs with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some _ -> usage ()
    in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    (match List.assoc_opt "workload" fs with
    | Some name -> (
      match Ledger.Workload.of_name name with
      | Some w -> ledger_one w ~seed ~seconds ~trace ~out:(List.assoc_opt "out" fs)
      | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2)
    | None ->
      ledger_all ~seed ~seconds
        ~out:(Option.value ~default:(out_dir ^ "/ledger.json") (List.assoc_opt "out" fs)))
  | [ "diff"; old_path; new_path ] ->
    let load path = Json.parse (In_channel.with_open_text path In_channel.input_all) in
    let bounds = Ledger.Diff.bounds_of_benchmark (load "BENCHMARK.json") in
    let rows, failing =
      Ledger.Diff.compare ~bounds ~old_result:(load old_path) ~new_result:(load new_path)
    in
    print_string (Ledger.Diff.render rows);
    if failing then exit 1
  | [ "daemon"; "--socket"; socket; "--shards"; shards ] ->
    Ledger.Serve.daemon_main ~socket ~shards:(int_of_string shards)
  | _ -> usage ()
