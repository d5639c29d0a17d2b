(* What every workload shares: the timed-pass loop, the outcome it
   reports, the simulated-result summary, and peak-memory readings. *)

module Json = Cgcm_serve.Json

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Metric.t list;
  notes : (string * Json.t) list;
      (** workload-specific facts for the result file only *)
}

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let seconds_since ns = float_of_int (Span.now_ns () - ns) /. 1e9
let ms_since ns = float_of_int (Span.now_ns () - ns) /. 1e6

(* A run's set-up and timed passes. Passes do fixed work: at least
   [min_passes] run, then more while the next one still fits in
   [seconds] (judged by the last pass's wall time); [pass state k] runs
   pass [k] and returns it with its wall seconds.

   [setup] is timed at least 9 times, spread across the run so that one
   slow spell of the host cannot hold every sample; their median is
   [setup_s]. The first sample runs before the first pass and serves the
   passes. With [fresh], every pass gets its own set-up, timed as a
   sample, and tears it down after. Otherwise more samples run (and are
   torn down) before later passes, [seconds / 9] apart, and any still
   missing after the last pass. Returns the [setup_s] metric and the
   passes. *)
let timed_run ?(min_passes = 1) ~fresh ~seconds ~setup ~teardown pass =
  let reps = 9 in
  let samples = ref [] in
  let sample () =
    let t0 = Span.now_ns () in
    let v = setup () in
    samples := seconds_since t0 :: !samples;
    v
  in
  let t0 = Span.now_ns () in
  let current = ref (sample ()) in
  let due () =
    let n = List.length !samples in
    n < reps && seconds_since t0 >= float_of_int n *. seconds /. float_of_int reps
  in
  let rec passes k acc =
    if k > 0 && fresh then current := sample ()
    else
      while k > 0 && due () do
        teardown (sample ())
      done;
    let p, wall = pass !current k in
    if fresh then teardown !current;
    if k + 1 < min_passes || seconds_since t0 +. wall <= seconds then
      passes (k + 1) (p :: acc)
    else List.rev (p :: acc)
  in
  let passes = passes 0 [] in
  if not fresh then teardown !current;
  while List.length !samples < reps do
    teardown (sample ())
  done;
  (Metric.median "setup_s" "s" (List.rev !samples), passes)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
               Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:0.0

(* The simulated results of one pass's runs [(program, mode, facts)]:
   geomean cycles of the optimized runs, their geomean speedup over the
   sequential run of the same program (Figure 4), and all bytes moved
   between host and device. *)
let sim_summary ~seq_cycles runs =
  let opt = List.filter (fun (_, mode, _) -> Workload.is_opt mode) runs in
  (* sorted first, so the seeded run order cannot reach the last bits *)
  let geomean xs = Cgcm_support.Stats.geomean (List.sort Float.compare xs) in
  ( geomean (List.map (fun (_, _, f) -> f.Runner.cycles) opt),
    geomean (List.map (fun (p, _, f) -> seq_cycles p /. f.Runner.cycles) opt),
    List.fold_left (fun acc (_, _, f) -> acc + f.Runner.comm_bytes) 0 runs )

let sim_metrics ~seq_cycles runs =
  let cycles, speedup, bytes = sim_summary ~seq_cycles runs in
  [
    Metric.make "sim_cycles_geomean" "cycles" cycles;
    Metric.make "sim_speedup_geomean" "ratio" speedup;
    Metric.make "sim_comm_bytes" "bytes" (float_of_int bytes);
  ]

let tail lat =
  match Stat.tail lat with
  | Some t -> t
  | None -> failwith "ledger: a pass has too few ops for a tail percentile"
