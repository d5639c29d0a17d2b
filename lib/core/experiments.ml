(* Drivers that regenerate the paper's tables and figures (the
   per-experiment index lives in DESIGN.md). *)

module Interp = Cgcm_interp.Interp
module Registry = Cgcm_progs.Registry
module Doall = Cgcm_frontend.Doall
module Table = Cgcm_report.Table
module Chart = Cgcm_report.Chart
module Stats = Cgcm_support.Stats
module Trace = Cgcm_gpusim.Trace

type prog_result = {
  prog : Registry.program;
  seq : Interp.result;
  ie : Interp.result;
  unopt : Interp.result;
  opt : Interp.result;
  kernels : int;  (* kernels created by the DOALL parallelizer *)
  baseline_applicable : int;  (* named-regions / inspector-executor *)
  outputs_match : bool;
}

let speedup ~(seq : Interp.result) (r : Interp.result) =
  seq.Interp.wall /. r.Interp.wall

let run_program ?(cost = Cgcm_gpusim.Cost_model.default) ?engine ?jobs
    ?backend ?page_bytes (prog : Registry.program) : prog_result =
  let src = prog.Registry.source in
  let run exec =
    Pipeline.run ~cost ?engine ?jobs ?backend ?page_bytes exec src
  in
  let cseq, seq = run Pipeline.Sequential in
  let _, ie = run Pipeline.Inspector_executor_exec in
  let _, unopt = run Pipeline.Cgcm_unoptimized in
  let copt, opt = run Pipeline.Cgcm_optimized in
  ignore cseq;
  let kernels = List.length copt.Pipeline.doall.Doall.kernels in
  let baseline_applicable =
    List.length
      (List.filter
         (fun k -> k.Doall.k_named_applicable)
         copt.Pipeline.doall.Doall.kernels)
  in
  let outputs_match =
    ie.Interp.output = seq.Interp.output
    && unopt.Interp.output = seq.Interp.output
    && opt.Interp.output = seq.Interp.output
  in
  { prog; seq; ie; unopt; opt; kernels; baseline_applicable; outputs_match }

let run_suite ?cost ?engine ?jobs ?backend ?page_bytes
    ?(progress = fun _ -> ()) () : prog_result list =
  List.map
    (fun p ->
      progress p.Registry.name;
      run_program ?cost ?engine ?jobs ?backend ?page_bytes p)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Figure 4: whole-program speedups                                     *)

let geomeans results =
  let col f = List.map (fun r -> f r) results in
  let sp sel = List.map2 (fun s r -> speedup ~seq:s r) (col (fun r -> r.seq)) (col sel) in
  let ie = sp (fun r -> r.ie) in
  let unopt = sp (fun r -> r.unopt) in
  let opt = sp (fun r -> r.opt) in
  let clamped xs = List.map (fun x -> max 1.0 x) xs in
  ( (Stats.geomean ie, Stats.geomean unopt, Stats.geomean opt),
    ( Stats.geomean (clamped ie),
      Stats.geomean (clamped unopt),
      Stats.geomean (clamped opt) ) )

let figure4 results : string =
  let rows =
    List.map
      (fun r ->
        ( r.prog.Registry.name,
          [
            ("inspector-executor", speedup ~seq:r.seq r.ie);
            ("cgcm unoptimized", speedup ~seq:r.seq r.unopt);
            ("cgcm optimized", speedup ~seq:r.seq r.opt);
          ] ))
      results
  in
  let chart = Chart.speedups rows in
  let (g_ie, g_un, g_op), (c_ie, c_un, c_op) = geomeans results in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 4: whole-program speedup over best sequential CPU-only execution\n\n";
  Buffer.add_string buf chart;
  Buffer.add_string buf
    (Printf.sprintf
       "geomean (all 24): inspector-executor %.2fx | unoptimized CGCM %.2fx | optimized CGCM %.2fx\n"
       g_ie g_un g_op);
  Buffer.add_string buf
    (Printf.sprintf
       "geomean (clamped at 1.0x): %.2fx | %.2fx | %.2fx\n" c_ie c_un c_op);
  Buffer.add_string buf
    "paper            : inspector-executor 0.92x | unoptimized CGCM 0.71x | optimized CGCM 5.36x\n";
  Buffer.add_string buf
    "paper (clamped)  : 1.53x | 2.81x | 7.18x\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 3: program characteristics                                     *)

let percent part total = Stats.percent part total

let limiting (r : Interp.result) : Registry.limiting =
  let gpu = percent r.Interp.gpu r.Interp.wall in
  let comm = percent r.Interp.comm r.Interp.wall in
  if gpu >= 50.0 then Registry.Gpu
  else if comm >= 50.0 then Registry.Comm
  else Registry.Other

let table3 results : string =
  let header =
    [
      "Program"; "Suite"; "Limit"; "Limit(paper)";
      "GPU%un"; "GPU%opt"; "Comm%un"; "Comm%opt";
      "Kernels"; "K(paper)"; "CGCM"; "IE/NR";
    ]
  in
  let aligns =
    [
      Table.Left; Table.Left; Table.Left; Table.Left;
      Table.Right; Table.Right; Table.Right; Table.Right;
      Table.Right; Table.Right; Table.Right; Table.Right;
    ]
  in
  let rows =
    List.map
      (fun r ->
        let pc v = Printf.sprintf "%.1f" v in
        [
          r.prog.Registry.name;
          r.prog.Registry.suite;
          Registry.limiting_to_string (limiting r.opt);
          Registry.limiting_to_string r.prog.Registry.paper_limiting;
          pc (percent r.unopt.Interp.gpu r.unopt.Interp.wall);
          pc (percent r.opt.Interp.gpu r.opt.Interp.wall);
          pc (percent r.unopt.Interp.comm r.unopt.Interp.wall);
          pc (percent r.opt.Interp.comm r.opt.Interp.wall);
          string_of_int r.kernels;
          string_of_int r.prog.Registry.paper_kernels;
          string_of_int r.kernels;  (* CGCM manages every DOALL kernel *)
          string_of_int r.baseline_applicable;
        ])
      results
  in
  "Table 3: program characteristics (this reproduction vs paper)\n\n"
  ^ Table.render ~aligns ~header rows

(* ------------------------------------------------------------------ *)
(* Applicability claim of Section 6                                     *)

let applicability results : string =
  let total = List.fold_left (fun a r -> a + r.kernels) 0 results in
  let baseline =
    List.fold_left (fun a r -> a + r.baseline_applicable) 0 results
  in
  Printf.sprintf
    "Applicability: the DOALL parallelizer created %d kernels; CGCM manages %d \
     (all of them); named-regions / inspector-executor apply to %d.\n\
     Paper: 101 kernels, CGCM 101, named-regions / inspector-executor 80.\n"
    total total baseline

(* ------------------------------------------------------------------ *)
(* Time breakdown (extension): absolute cycle decomposition of the
   optimized runs — where Table 3's percentages come from. *)

let breakdown_table results : string =
  let f0 v = Printf.sprintf "%.0f" v in
  let rows =
    List.map
      (fun r ->
        let o = r.opt in
        [
          r.prog.Registry.name;
          f0 o.Interp.wall;
          f0 o.Interp.cpu_compute;
          f0 o.Interp.gpu;
          f0 o.Interp.comm;
          f0 o.Interp.sync;
          string_of_int o.Interp.dev_stats.Cgcm_gpusim.Device.launches;
        ])
      results
  in
  "Time breakdown of the optimized runs (cycles; sync = CPU stalled on
   the device; wall < cpu+gpu+comm where launches overlap CPU work)

"
  ^ Table.render
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      ~header:[ "Program"; "wall"; "cpu"; "gpu"; "comm"; "sync"; "launches" ]
      rows

(* ------------------------------------------------------------------ *)
(* Figure 1: the taxonomy of related work — parallelization and
   communication as independent axes. Our own configurations are placed
   where they demonstrably sit: the manual-driver examples do both by
   hand, CGCM automates communication for either parallelization mode. *)

let figure1 () : string =
  String.concat "
"
    [
      "Figure 1: taxonomy — parallelization vs communication management";
      "";
      "                        | manual communication | automatic communication";
      "  ----------------------+----------------------+------------------------";
      "  manual parallelization| CUDA / OpenCL        | CGCM ('parallel' loops,";
      "                        | (examples/strings,   |  examples/manual_vs_auto)";
      "                        |  Listing 1 path)     |";
      "  ----------------------+----------------------+------------------------";
      "  automatic             | C-to-CUDA, JCUDA,    | CGCM + simple DOALL";
      "  parallelization       | PGI (annotations)    |  (this system: Figure 4)";
      "";
      "No prior work fully automates communication; the semi-automatic";
      "systems (JCUDA, named regions, affine) require annotations and none";
      "optimizes the pattern to acyclic (Table 1).";
      "";
    ]

(* Figure 3: high-level overview of CGCM's transformation and run-time
   system, as a pipeline diagram annotated with the module that implements
   each box. *)

let figure3 () : string =
  String.concat "
"
    [
      "Figure 3: CGCM overview (module per stage)";
      "";
      "  CGC source";
      "      |  parse + semantic checks          lib/frontend/{lexer,parser}";
      "      v";
      "  AST --- simple DOALL parallelizer ----- lib/frontend/doall (affine test,";
      "      |    (or 'parallel' annotations)      2-D grid flattening)";
      "      v";
      "  IR (word-typed; pointer types erased)   lib/frontend/lower, lib/ir";
      "      |  use-based type inference          lib/analysis/typeinfer";
      "      |  communication management          lib/transform/comm_mgmt";
      "      |    map / unmap / release around each launch";
      "      v";
      "  IR + run-time calls (cyclic)";
      "      |  glue kernels                      lib/transform/glue_kernels";
      "      |  alloca promotion                  lib/transform/alloca_promotion";
      "      |  map promotion (to convergence)    lib/transform/map_promotion";
      "      v";
      "  IR + hoisted run-time calls (acyclic)";
      "      |  execute                           lib/interp";
      "      v";
      "  CGCM run-time library                   lib/runtime";
      "      .  allocation-unit map (greatestLTE) lib/support/avl_map";
      "      .  reference counts + epochs";
      "      |  driver calls + cost model         lib/gpusim";
      "      v";
      "  simulated GPU (separate memory, async launch queue)";
      "";
    ]

(* ------------------------------------------------------------------ *)
(* Communication volume (extension): Section 6.3 notes the idealized
   inspector-executor transfers dramatically fewer bytes yet still loses —
   sequential inspection and cyclic synchronisation dominate. This table
   makes that trade explicit. *)

let volume_table results : string =
  let bytes (r : Interp.result) =
    ( r.Interp.dev_stats.Cgcm_gpusim.Device.htod_bytes,
      r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_bytes,
      r.Interp.dev_stats.Cgcm_gpusim.Device.htod_count
      + r.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count )
  in
  let fmt_kb n =
    if n < 4096 then Printf.sprintf "%dB" n
    else Printf.sprintf "%dKiB" (n / 1024)
  in
  let rows =
    List.map
      (fun r ->
        let ih, id, ix = bytes r.ie in
        let uh, ud, ux = bytes r.unopt in
        let oh, od, ox = bytes r.opt in
        [
          r.prog.Registry.name;
          fmt_kb (ih + id); string_of_int ix;
          fmt_kb (uh + ud); string_of_int ux;
          fmt_kb (oh + od); string_of_int ox;
        ])
      results
  in
  "Communication volume: bytes moved and DMA count per configuration
   (inspector-executor moves the fewest bytes but pays a synchronous round
   trip per launch; optimized CGCM moves whole allocation units, once)

"
  ^ Table.render
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right;
        ]
      ~header:
        [
          "Program"; "IE bytes"; "DMAs"; "unopt bytes"; "DMAs"; "opt bytes";
          "DMAs";
        ]
      rows

(* ------------------------------------------------------------------ *)
(* Table 1: applicability feature matrix                                *)

(* Each feature is demonstrated by a microbenchmark that CGCM must run
   correctly on split memories (checked differentially against the
   sequential run). *)
let feature_programs =
  [
    ( "aliasing pointers",
      {|global float data[64];
int main() {
  float* p = (float*) data;
  float* q = p + 16;  // aliases the same allocation unit
  for (int i = 0; i < 64; i++) { data[i] = i * 0.5; }
  parallel for (int i = 0; i < 16; i++) { q[i] = q[i] * 2.0; }
  float s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + data[i]; }
  print(s); return 0;
}
|} );
    ( "irregular accesses",
      {|global int idx[32];
global float a[32];
global float b[32];
int main() {
  for (int i = 0; i < 32; i++) { idx[i] = (i * 7) % 32; a[i] = i * 1.5; }
  parallel for (int i = 0; i < 32; i++) { b[i] = a[idx[i]]; }
  float s = 0.0;
  for (int i = 0; i < 32; i++) { s = s + b[i]; }
  print(s); return 0;
}
|} );
    ( "weak type system",
      {|global float data[32];
int main() {
  for (int i = 0; i < 32; i++) { data[i] = i + 1.0; }
  int disguised = (int) (float*) data;  // pointer laundered through an int
  float* p = (float*) disguised;
  parallel for (int i = 0; i < 32; i++) { p[i] = p[i] * 3.0; }
  float s = 0.0;
  for (int i = 0; i < 32; i++) { s = s + data[i]; }
  print(s); return 0;
}
|} );
    ( "pointer arithmetic",
      {|global float data[64];
int main() {
  for (int i = 0; i < 64; i++) { data[i] = i * 0.25; }
  float* mid = (float*) data;
  mid = mid + 30;  // interior pointer into the middle of the unit
  parallel for (int i = 0; i < 8; i++) { mid[i] = mid[i] + 100.0; }
  float s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + data[i]; }
  print(s); return 0;
}
|} );
    ( "array of structures",
      {|struct cell { float v; int tag; };
global struct cell cells[48];
int main() {
  for (int i = 0; i < 48; i++) { cells[i].v = i * 0.25; cells[i].tag = i % 5; }
  parallel for (int i = 0; i < 48; i++) {
    cells[i].v = cells[i].v * 2.0 + cells[i].tag;
  }
  float s = 0.0;
  for (int i = 0; i < 48; i++) { s = s + cells[i].v; }
  print(s); return 0;
}
|} );
    ( "two levels of indirection",
      {|global float* rows[4];
int main() {
  for (int r = 0; r < 4; r++) {
    rows[r] = (float*) malloc(16 * sizeof(float));
    for (int c = 0; c < 16; c++) { rows[r][c] = r * 16 + c * 1.0; }
  }
  parallel for (int r = 0; r < 4; r++) {
    for (int c = 0; c < 16; c++) { rows[r][c] = rows[r][c] * 2.0; }
  }
  float s = 0.0;
  for (int r = 0; r < 4; r++) {
    for (int c = 0; c < 16; c++) { s = s + rows[r][c]; }
  }
  print(s); return 0;
}
|} );
  ]

let table1 () : string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Table 1: comparison between communication systems\n\n";
  (* the static rows from the paper *)
  Buffer.add_string buf
    (Table.render
       ~header:
         [
           "Framework"; "Opti."; "Annot."; "Aliasing"; "Irregular"; "WeakTypes";
           "PtrArith"; "MaxInd"; "Acyclic";
         ]
       [
         [ "JCUDA"; "no"; "yes"; "y"; "y"; "n"; "n"; "8"; "no" ];
         [ "Named Regions"; "no"; "yes"; "y"; "y"; "n"; "y"; "1"; "no" ];
         [ "Affine"; "no"; "yes"; "y"; "n"; "n"; "y"; "1"; "with annot." ];
         [ "Inspector-Executor"; "no"; "yes"; "n"; "n"; "y"; "y"; "1"; "no" ];
         [ "CGCM (paper)"; "yes"; "no"; "y"; "y"; "y"; "y"; "2"; "after opt." ];
       ]);
  Buffer.add_string buf
    "\nCGCM feature microbenchmarks (this reproduction, run on split memories):\n";
  List.iter
    (fun (name, src) ->
      let _, seq = Pipeline.run Pipeline.Sequential src in
      let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
      let ok = seq.Interp.output = opt.Interp.output in
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %s\n" name
           (if ok then "handled (output matches sequential)" else "FAILED")))
    feature_programs;
  (* acyclic communication after optimization *)
  let src =
    {|global float x[256];
int main() {
  for (int i = 0; i < 256; i++) { x[i] = i * 0.1; }
  for (int t = 0; t < 10; t++) {
    parallel for (int i = 0; i < 256; i++) { x[i] = x[i] * 1.01; }
  }
  float s = 0.0;
  for (int i = 0; i < 256; i++) { s = s + x[i]; }
  print(s); return 0;
}
|}
  in
  let _, opt = Pipeline.run Pipeline.Cgcm_optimized src in
  let d = opt.Interp.dev_stats.Cgcm_gpusim.Device.dtoh_count in
  Buffer.add_string buf
    (Printf.sprintf
       "  %-28s %s (%d DtoH transfers for 10 iterations)\n"
       "acyclic after optimization"
       (if d <= 2 then "handled" else "FAILED") d);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 2: execution schedules                                        *)

(* A small vector-scaling loop, rendered under the three communication
   regimes. *)
let figure2_source =
  {|global float data[2048];

void init() {
  for (int i = 0; i < 2048; i++) {
    data[i] = i * 0.25;
  }
}

void scale() {
  for (int t = 0; t < 8; t++) {
    for (int i = 0; i < 2048; i++) {
      data[i] = data[i] * 1.01 + 0.5;
    }
  }
}

int main() {
  init();
  scale();
  float sum = 0.0;
  for (int i = 0; i < 2048; i++) {
    sum = sum + data[i];
  }
  print(sum);
  return 0;
}
|}

let figure2 () : string =
  let render exec label =
    let _, r = Pipeline.run ~trace:true exec figure2_source in
    Printf.sprintf "%s (wall: %.0f cycles)\n%s\n" label r.Interp.wall
      (Trace.render r.Interp.trace)
  in
  "Figure 2: execution schedules (K = kernel, > = HtoD, < = DtoH, s = CPU stall)\n\n"
  ^ render Pipeline.Cgcm_unoptimized "naive cyclic (unoptimized CGCM)"
  ^ render Pipeline.Inspector_executor_exec "inspector-executor"
  ^ render Pipeline.Cgcm_optimized "acyclic (optimized CGCM)"

(* ------------------------------------------------------------------ *)
(* Cost-model sensitivity (extension): sweep the PCIe latency and check
   that the paper's qualitative result — optimized acyclic communication
   beats cyclic, which loses to the CPU — holds across the whole range,
   with the gap growing as transfers get more expensive. *)

let latency_sweep () : string =
  let src = Cgcm_progs.Polybench.jacobi_2d ~n:48 ~steps:24 () in
  let rows =
    List.map
      (fun lat ->
        let cost =
          { Cgcm_gpusim.Cost_model.default with
            Cgcm_gpusim.Cost_model.transfer_latency = lat }
        in
        let _, seq = Pipeline.run ~cost Pipeline.Sequential src in
        let sp exec =
          let _, r = Pipeline.run ~cost exec src in
          Printf.sprintf "%.2fx" (speedup ~seq r)
        in
        [
          Printf.sprintf "%.0f" lat;
          sp Pipeline.Inspector_executor_exec;
          sp Pipeline.Cgcm_unoptimized;
          sp Pipeline.Cgcm_optimized;
        ])
      [ 5_000.; 20_000.; 50_000.; 100_000.; 200_000. ]
  in
  "Cost-model sensitivity: jacobi-2d speedups as the per-transfer latency
   sweeps over 40x (the qualitative ordering is invariant; only the
   magnitude of the cyclic penalty moves)

"
  ^ Table.render
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:[ "latency (cycles)"; "IE"; "unopt CGCM"; "opt CGCM" ]
      rows

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each optimization pass                     *)

(* A program whose communication can only be hoisted after alloca
   promotion: a helper with an escaping local buffer, called from a
   loop. *)
let ablation_local_buffer_source =
  {|global float out[256];
void work(float seedv) {
  float tmp[256];
  parallel for (int i = 0; i < 256; i++) { tmp[i] = seedv + i * 0.5; }
  parallel for (int i = 0; i < 256; i++) { out[i] = out[i] + tmp[i]; }
}
int main() {
  for (int t = 0; t < 16; t++) { work(t * 1.0); }
  float s = 0.0;
  for (int i = 0; i < 256; i++) { s = s + out[i]; }
  print(s); return 0;
}
|}

let ablation () : string =
  let module P = Pipeline in
  (* Each configuration is the optimized schedule (Section 5.3: glue ->
     alloca promotion -> map promotion) cut down to comm-mgmt plus the
     named passes, so each optimization keeps its place and fixpoint cap;
     the enabling passes are toggled to show what they unlock. *)
  let module Pass = Cgcm_transform.Pass in
  let schedule names =
    List.filter
      (function
        | Pass.Atom p | Pass.Fixpoint { body = [ Pass.Atom p ]; _ } ->
          List.mem p.Pass.name ("comm-mgmt" :: names)
        | Pass.Fixpoint _ -> false)
      Pass.optimized_pipeline
  in
  let configs =
    [
      ("managed only", schedule []);
      ("map promo alone", schedule [ "map-promotion" ]);
      ("glue + map promo", schedule [ "glue-kernels"; "map-promotion" ]);
      ( "full (+ alloca promo)",
        schedule [ "glue-kernels"; "alloca-promotion"; "map-promotion" ] );
    ]
  in
  let row name src =
    let _, seq = P.run P.Sequential src in
    let cells =
      List.map
        (fun (_, plan) ->
          let ast = Cgcm_frontend.Parser.parse_string src in
          let ast, _ = Doall.transform ~mode:Doall.Auto ast in
          let m = Cgcm_frontend.Lower.lower_program ast in
          Pass.run_pipeline plan m;
          let r = Interp.run m in
          Printf.sprintf "%.2fx" (speedup ~seq r))
        configs
    in
    name :: cells
  in
  let rows =
    List.filter_map
      (fun name ->
        Option.map
          (fun p -> row name p.Registry.source)
          (Registry.find name))
      [ "srad"; "jacobi-2d-imper"; "hotspot"; "nw" ]
    @ [ row "local-buffer helper" ablation_local_buffer_source ]
  in
  "Ablation: speedup over sequential as optimization passes accumulate\n\
   (every column after the first also runs map promotion; glue kernels and\n\
   alloca promotion matter through what they let map promotion hoist)\n\n"
  ^ Table.render
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:("Program" :: List.map fst configs)
      rows
