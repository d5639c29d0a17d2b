(* The suite workloads: the 24 programs, in seeded order, each run under
   every mode of the workload, one after another in this process -- what
   [Experiments.run_program] does for [cgcm suite], timed per run. *)

module Registry = Cgcm_progs.Registry
module Json = Cgcm_serve.Json

type op = {
  program : string;
  mode : string;
  ms : float;
  result : (Runner.facts, string) result;
}

let run_pass order modes =
  let t0 = Span.now_ns () in
  let ops =
    List.concat_map
      (fun (p : Registry.program) ->
        List.map
          (fun mode ->
            let s = Span.now_ns () in
            let result = Harness.attempt (fun () -> Runner.run ~mode p.source) in
            { program = p.name; mode; ms = Harness.ms_since s; result })
          modes)
      order
  in
  (ops, Harness.seconds_since t0)

(* Every op's output must equal its program's sequential run, leak
   nothing, and (where [expected] knows the op) repeat [expected]'s
   facts bit for bit. *)
let check ~reference ~expected { program; mode; result; _ } =
  match result with
  | Error e -> Error e
  | Ok f -> (
    match reference program with
    | None -> Error "no sequential reference"
    | Some (r : Runner.facts) ->
      if f.Runner.leaked then Error "leak report"
      else if f.output <> r.output || f.exit_code <> r.exit_code then
        Error "output differs from the sequential run"
      else
        match expected program mode with
        | Some e when e <> f -> Error "simulated results differ between passes"
        | _ -> Ok ())

let failures checks =
  List.filter_map
    (fun (op, c) ->
      match c with
      | Ok () -> None
      | Error e -> Some (Printf.sprintf "%s/%s: %s" op.program op.mode e))
    checks

let facts_table ops =
  let t = Hashtbl.create 128 in
  List.iter
    (fun op ->
      match op.result with
      | Ok f -> Hashtbl.replace t (op.program, op.mode) f
      | Error _ -> ())
    ops;
  t

(* The sequential run of each program, in process, after the timed
   passes. *)
let references order =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (p : Registry.program) ->
      match Harness.attempt (fun () -> Runner.run ~mode:"seq" p.source) with
      | Ok f -> Hashtbl.replace t p.name f
      | Error _ -> ())
    order;
  Hashtbl.find_opt t

let sim_runs ops =
  List.filter_map
    (fun op ->
      match op.result with Ok f -> Some (op.program, op.mode, f) | Error _ -> None)
    ops

let setup ~seed modes () =
  let order = Workload.suite_order ~seed in
  List.iter
    (fun (p : Registry.program) ->
      List.iter (fun mode -> Runner.compile ~mode p.source) modes)
    order;
  order

(* At least four passes. Each op's best pass is its time: a pass runs
   for seconds, longer than the shared host stays quiet, but every op
   meets a quiet moment in one of four. *)
let run_untraced ~workload ~seed ~seconds =
  let modes = Workload.suite_modes workload in
  let setup_s, passes =
    Harness.timed_run ~min_passes:4 ~fresh:false ~seconds
      ~setup:(setup ~seed modes) ~teardown:ignore (fun order _ ->
        let ops, wall = run_pass order modes in
        ((ops, wall), wall))
  in
  let order = Workload.suite_order ~seed in
  let rss_mb = Harness.peak_rss_mb 0 in
  let reference = references order in
  let first = fst (List.hd passes) in
  let first_facts = facts_table first in
  let expected program mode = Hashtbl.find_opt first_facts (program, mode) in
  let checked =
    List.map
      (fun (ops, wall) ->
        (wall, List.map (fun op -> (op, check ~reference ~expected op)) ops))
      passes
  in
  let all_checks = List.concat_map snd checked in
  let bad = failures all_checks in
  let best = Hashtbl.create 64 in
  List.iter
    (fun (op, _) ->
      let key = (op.program, op.mode) in
      Hashtbl.replace best key
        (Float.min op.ms (Option.value ~default:infinity (Hashtbl.find_opt best key))))
    all_checks;
  let best_ms = Hashtbl.fold (fun _ ms acc -> ms :: acc) best [] in
  let wall = List.fold_left ( +. ) 0.0 best_ms /. 1000.0 in
  let ok_ops =
    Hashtbl.length best
    - List.length
        (List.sort_uniq compare
           (List.filter_map
              (fun (op, c) -> if c = Ok () then None else Some (op.program, op.mode))
              all_checks))
  in
  let per f = List.map f checked in
  let latencies checks = List.map (fun (op, _) -> op.ms) checks in
  let seq_cycles p =
    match reference p with Some f -> f.Runner.cycles | None -> nan
  in
  {
    Harness.correct = bad = [];
    attempted = List.length all_checks;
    failed = List.length bad;
    metrics =
      [
        setup_s;
        Metric.best ~value:wall ~higher:false "wall_s" "s" (per fst);
        Metric.best ~value:(float_of_int ok_ops /. wall) ~higher:true "ops_per_s" "1/s"
          (per (fun (w, checks) ->
               float_of_int (List.length (List.filter (fun (_, c) -> c = Ok ()) checks)) /. w));
        Metric.best ~value:(Stat.median best_ms) ~higher:false "latency_p50_ms" "ms"
          (per (fun (_, checks) -> Stat.median (latencies checks)));
        Metric.best
          ~value:(fst (Harness.tail best_ms))
          ~higher:false "latency_tail_ms" "ms"
          (per (fun (_, checks) -> fst (Harness.tail (latencies checks))));
        Metric.make "peak_rss_mb" "MB" rss_mb;
      ]
      @ Harness.sim_metrics ~seq_cycles (sim_runs first);
    notes =
      [
        ("passes", Json.Int (List.length passes));
        ("tail_percentile", Json.Float (snd (Harness.tail best_ms)));
        ("failures", Json.List (List.map (fun s -> Json.Str s) bad));
      ];
  }

(* Each op runs untraced and traced back to back, in alternating order,
   so slow spells of the host fall on both sides alike; the traced run
   must repeat the untraced one bit for bit. *)
let run_traced ~workload ~seed ~trace_file =
  let modes = Workload.suite_modes workload in
  let order = setup ~seed modes () in
  let spans = Span.create () in
  let next = ref 0 in
  let pairs =
    List.concat_map
      (fun (p : Registry.program) ->
        List.map
          (fun mode ->
            let op = !next in
            incr next;
            let timed f =
              let s = Span.now_ns () in
              let r = Harness.attempt f in
              (r, Harness.ms_since s)
            in
            let untraced () = timed (fun () -> Runner.run ~mode p.source) in
            let traced () =
              timed (fun () -> Runner.run_traced spans ~lane:1 ~op ~mode p.source)
            in
            let (u, u_ms), (t, t_ms) =
              if op mod 2 = 0 then
                let u = untraced () in
                (u, traced ())
              else
                let t = traced () in
                (untraced (), t)
            in
            ( { program = p.name; mode; ms = u_ms; result = u },
              { program = p.name; mode; ms = t_ms; result = Result.map fst t },
              t ))
          modes)
      order
  in
  let untraced = List.map (fun (u, _, _) -> u) pairs in
  let reference = references order in
  let untraced_facts = facts_table untraced in
  let expected program mode = Hashtbl.find_opt untraced_facts (program, mode) in
  let checks =
    List.concat_map
      (fun (u, t, _) -> [ (u, check ~reference ~expected u); (t, check ~reference ~expected t) ])
      pairs
  in
  let bad = failures checks in
  let runs =
    List.filter_map
      (fun (_, (t : op), result) ->
        match result with
        | Ok (facts, compile) -> Some { Layers.mode = t.mode; facts; compile }
        | Error _ -> None)
      pairs
  in
  let all_spans = Span.spans spans in
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc (Json.print (Span.to_chrome all_spans)));
  let exec_ms, overhead_ms = Layers.op_split all_spans in
  let total side = List.fold_left (fun acc (o : op) -> acc +. o.ms) 0.0 side in
  let traced_ms = total (List.map (fun (_, t, _) -> t) pairs) in
  (* the traced ops' spans, end to end, are the traced pass *)
  let wall_ns =
    List.fold_left
      (fun acc (s : Span.span) ->
        if s.name = "op" then acc + (s.stop_ns - s.start_ns) else acc)
      0 all_spans
  in
  {
    Harness.correct = bad = [];
    attempted = List.length checks;
    failed = List.length bad;
    metrics =
      Layers.metrics ~spans:all_spans ~wall_ns ~exec_ms ~overhead_ms
        ~trace_overhead:(traced_ms /. total untraced)
        ~serve:Layers.no_serve runs;
    notes =
      [
        ("untraced_ms", Json.Float (total untraced));
        ("traced_ms", Json.Float traced_ms);
        ("trace_file", Json.Str trace_file);
        ("failures", Json.List (List.map (fun s -> Json.Str s) bad));
      ];
  }
