(* Whole-program fuzzer with shrinking.

   Generalizes the expression-oracle tests to full CGC programs: random
   but well-formed programs exercising everything CGCM has to manage —
   global arrays, malloc'd heap blocks behind pointer globals, jagged
   double-pointer arrays, nested doall loops, pointer-taking helper
   calls, escaping allocas, host pokes between launches. Each program
   runs under every optimization level and both interpreter engines with
   the coherence sanitizer armed; all configurations must agree with the
   sequential reference bit for bit and leak nothing. A failing program
   is shrunk to a minimal counterexample before being reported.

   Generation is seeded through Cgcm_support.Rng, so a reported seed
   reproduces the exact program on any machine. *)

module Rng = Cgcm_support.Rng
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Mem_backend = Cgcm_runtime.Mem_backend

(* ------------------------------------------------------------------ *)
(* Program model. Phases reference arrays by an arbitrary int resolved
   modulo the array count at render time, so shrinking can drop arrays
   without re-indexing the phase list. *)

type arr = { a_float : bool; a_size : int (* elements, multiple of 8 *) }

type loop = {
  par : bool;  (* explicit `parallel for`; plain loops rely on auto-DOALL *)
  time : int;  (* enclosing time-loop trip count; 1 = none *)
}

type phase =
  | Fill of { g : int; mul : int; add : int }  (* host: g[i] = i*mul + add *)
  | Map1 of { l : loop; tgt : int; src : int; mul : int; add : int }
  | Stencil of { l : loop; tgt : int; src : int }  (* neighbor reads *)
  | Grid of { tgt : int; src : int }  (* nested parallel-for pair *)
  | Update of { l : loop; tgt : int; mul : int; add : int }
  | Heap_update of { l : loop; mul : int }  (* hp[i] = hp[i]*mul + i%7 *)
  | Jagged_update of { l : loop }  (* rows[r][c] through the double ptr *)
  | Helper_call of { tgt : int }  (* pointer-arg helper on a global *)
  | Alloca_mix of { l : loop; tgt : int }  (* escaping local array *)
  | Poke of { tgt : int; idx : int; v : int }  (* host single-element write *)
  | Peek of { tgt : int; idx : int }  (* print one element *)
  | Sum of { tgt : int }  (* print a weighted checksum *)

type prog = {
  seed : int;
  arrays : arr list;  (* never empty *)
  heap : int option;  (* elements of the malloc'd int block, if any *)
  jagged : int option;  (* row count of the float* table, if any *)
  phases : phase list;
}

(* ------------------------------------------------------------------ *)
(* Generation. *)

let gen_loop rng =
  { par = Rng.bool rng; time = (if Rng.int rng 3 = 0 then Rng.range rng ~lo:2 ~hi:4 else 1) }

let gen_phase rng =
  let g () = Rng.int rng 64 in
  match Rng.int rng 12 with
  | 0 -> Fill { g = g (); mul = Rng.range rng ~lo:1 ~hi:3; add = Rng.range rng ~lo:(-2) ~hi:5 }
  | 1 -> Map1 { l = gen_loop rng; tgt = g (); src = g ();
                mul = Rng.range rng ~lo:1 ~hi:3; add = Rng.range rng ~lo:(-2) ~hi:5 }
  | 2 -> Stencil { l = gen_loop rng; tgt = g (); src = g () }
  | 3 -> Grid { tgt = g (); src = g () }
  | 4 -> Update { l = gen_loop rng; tgt = g (); mul = Rng.range rng ~lo:1 ~hi:3;
                  add = Rng.range rng ~lo:(-2) ~hi:5 }
  | 5 -> Heap_update { l = gen_loop rng; mul = Rng.range rng ~lo:1 ~hi:3 }
  | 6 -> Jagged_update { l = gen_loop rng }
  | 7 -> Helper_call { tgt = g () }
  | 8 -> Alloca_mix { l = gen_loop rng; tgt = g () }
  | 9 -> Poke { tgt = g (); idx = Rng.int rng 64; v = Rng.range rng ~lo:(-9) ~hi:9 }
  | 10 -> Peek { tgt = g (); idx = Rng.int rng 64 }
  | _ -> Sum { tgt = g () }

let generate ~seed : prog =
  let rng = Rng.create seed in
  let arrays =
    List.init (Rng.range rng ~lo:1 ~hi:3) (fun _ ->
        { a_float = Rng.bool rng; a_size = 8 * Rng.range rng ~lo:1 ~hi:6 })
  in
  let heap = if Rng.bool rng then Some (8 * Rng.range rng ~lo:1 ~hi:4) else None in
  let jagged = if Rng.int rng 3 = 0 then Some (Rng.range rng ~lo:2 ~hi:4) else None in
  let phases = List.init (Rng.range rng ~lo:2 ~hi:7) (fun _ -> gen_phase rng) in
  { seed; arrays; heap; jagged; phases }

(* ------------------------------------------------------------------ *)
(* Rendering to CGC source. *)

let nth_arr p i = List.nth p.arrays (i mod List.length p.arrays)
let arr_name p i = Printf.sprintf "g%d" (i mod List.length p.arrays)

(* Resolve [src] to an array of the same element type as [tgt], so the
   generated assignments never mix int and float storage. *)
let same_type_src p ~tgt ~src =
  let want = (nth_arr p tgt).a_float in
  let cands =
    List.filteri (fun _ _ -> true) p.arrays
    |> List.mapi (fun i a -> (i, a))
    |> List.filter (fun (_, a) -> a.a_float = want)
  in
  match cands with
  | [] -> tgt mod List.length p.arrays
  | cands -> fst (List.nth cands (src mod List.length cands))

(* `parallel for` is a trusted assertion of iteration independence; the
   engines only stay differentially comparable on programs where the
   assertion is true (at jobs > 1 the closure engine really does shard
   annotated launches across domains). A phase whose resolved source
   aliases its target with a cross-iteration index pattern must drop the
   annotation — re-decided at render time, because shrinking drops
   arrays and re-resolves sources, which can introduce such aliasing. *)
let honest l ~racy = if racy then { l with par = false } else l

let render (p : prog) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let uid = ref 0 in
  let fresh () = incr uid; !uid in
  (* constants typed to the target array *)
  let lit fl n = if fl then Printf.sprintf "%d.0" n else string_of_int n in
  List.iteri
    (fun i a ->
      pf "global %s g%d[%d];\n" (if a.a_float then "float" else "int") i a.a_size)
    p.arrays;
  (match p.heap with Some _ -> pf "global int* hp;\n" | None -> ());
  (match p.jagged with Some r -> pf "global float* rows[%d];\n" r | None -> ());
  pf "\n";
  let uses_helper =
    List.exists (function Helper_call _ | Alloca_mix _ -> true | _ -> false) p.phases
  in
  if uses_helper then begin
    pf "void scale_i(int* q, int n) {\n";
    pf "  for (int i = 0; i < n; i++) { q[i] = q[i] * 3 + 1; }\n}\n";
    pf "void scale_f(float* q, int n) {\n";
    pf "  for (int i = 0; i < n; i++) { q[i] = q[i] * 1.5 + 1.0; }\n}\n\n"
  end;
  pf "int main() {\n";
  (* deterministic host-side setup for every unit *)
  List.iteri
    (fun i a ->
      let u = fresh () in
      pf "  for (int i%d = 0; i%d < %d; i%d++) { g%d[i%d] = %s; }\n" u u
        a.a_size u i u
        (if a.a_float then Printf.sprintf "i%d * 0.5 + %d.0" u i
         else Printf.sprintf "i%d * 2 - %d" u i))
    p.arrays;
  (match p.heap with
  | Some h ->
    let u = fresh () in
    pf "  hp = (int*) malloc(%d * sizeof(int));\n" h;
    pf "  for (int i%d = 0; i%d < %d; i%d++) { hp[i%d] = i%d * 3 - 7; }\n" u u h u u u
  | None -> ());
  (match p.jagged with
  | Some r ->
    let u = fresh () in
    pf "  for (int r%d = 0; r%d < %d; r%d++) {\n" u u r u;
    pf "    rows[r%d] = (float*) malloc(((r%d %% 3) + 1) * 8 * sizeof(float));\n" u u;
    pf "    for (int c%d = 0; c%d < ((r%d %% 3) + 1) * 8; c%d++) {\n" u u u u;
    pf "      rows[r%d][c%d] = r%d * 10.0 + c%d;\n" u u u u;
    pf "    }\n  }\n" | None -> ());
  (* an element loop, optionally under a time loop *)
  let loops l n body =
    let u = fresh () in
    let ind = if l.time > 1 then "    " else "  " in
    if l.time > 1 then pf "  for (int t%d = 0; t%d < %d; t%d++) {\n" u u l.time u;
    pf "%s%sfor (int i%d = 0; i%d < %d; i%d++) {\n" ind
      (if l.par then "parallel " else "") u u n u;
    body ~ind:(ind ^ "  ") ~i:(Printf.sprintf "i%d" u);
    pf "%s}\n" ind;
    if l.time > 1 then pf "  }\n"
  in
  let emit_phase = function
    | Fill { g; mul; add } ->
      let a = nth_arr p g and name = arr_name p g in
      let u = fresh () in
      pf "  for (int i%d = 0; i%d < %d; i%d++) { %s[i%d] = %s; }\n" u u a.a_size
        u name u
        (if a.a_float then Printf.sprintf "i%d * %d.0 + %s" u mul (lit true add)
         else Printf.sprintf "i%d * %d + %d" u mul add)
    | Map1 { l; tgt; src; mul; add } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      let s = same_type_src p ~tgt ~src in
      let sname = Printf.sprintf "g%d" s in
      let ssize = (List.nth p.arrays s).a_size in
      (* i %% ssize re-reads earlier-written elements when the source is
         the (shorter) target itself *)
      let l = honest l ~racy:(s = tgt mod List.length p.arrays && ssize < a.a_size) in
      loops l a.a_size (fun ~ind ~i ->
          pf "%s%s[%s] = %s[%s %% %d] * %s + %s;\n" ind name i sname i ssize
            (lit a.a_float mul) (lit a.a_float add))
    | Stencil { l; tgt; src } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      let s = same_type_src p ~tgt ~src in
      let sname = Printf.sprintf "g%d" s in
      let ssize = (List.nth p.arrays s).a_size in
      (* the (i+1) neighbour read always crosses iterations of the same
         array *)
      let l = honest l ~racy:(s = tgt mod List.length p.arrays) in
      loops l a.a_size (fun ~ind ~i ->
          pf "%s%s[%s] = %s[%s %% %d] + %s[(%s + 1) %% %d];\n" ind name i sname
            i ssize sname i ssize)
    | Grid { tgt; src } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      let s = same_type_src p ~tgt ~src in
      let sname = Printf.sprintf "g%d" s in
      let ssize = (List.nth p.arrays s).a_size in
      let rows = a.a_size / 8 in
      let u = fresh () in
      (* same aliasing hazard as Map1: drop to plain loops (auto-DOALL
         must then prove independence or keep them sequential) *)
      let par =
        if s = tgt mod List.length p.arrays && ssize < a.a_size then ""
        else "parallel "
      in
      pf "  %sfor (int r%d = 0; r%d < %d; r%d++) {\n" par u u rows u;
      pf "    %sfor (int c%d = 0; c%d < 8; c%d++) {\n" par u u u;
      pf "      %s[r%d * 8 + c%d] = %s[(r%d * 8 + c%d) %% %d] + %s;\n" name u u
        sname u u ssize
        (if a.a_float then Printf.sprintf "r%d * 1.0 + c%d" u u
         else Printf.sprintf "r%d + c%d" u u);
      pf "    }\n  }\n"
    | Update { l; tgt; mul; add } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      loops l a.a_size (fun ~ind ~i ->
          pf "%s%s[%s] = %s[%s] * %s + %s;\n" ind name i name i
            (lit a.a_float mul) (lit a.a_float add))
    | Heap_update { l; mul } -> (
      match p.heap with
      | None -> ()
      | Some h ->
        loops l h (fun ~ind ~i ->
            pf "%shp[%s] = hp[%s] * %d + %s %% 7;\n" ind i i mul i))
    | Jagged_update { l } -> (
      match p.jagged with
      | None -> ()
      | Some r ->
        let u = fresh () in
        let ind = if l.time > 1 then "    " else "  " in
        if l.time > 1 then
          pf "  for (int t%d = 0; t%d < %d; t%d++) {\n" u u l.time u;
        pf "%s%sfor (int r%d = 0; r%d < %d; r%d++) {\n" ind
          (if l.par then "parallel " else "") u u r u;
        pf "%s  for (int c%d = 0; c%d < ((r%d %% 3) + 1) * 8; c%d++) {\n" ind u
          u u u;
        pf "%s    rows[r%d][c%d] = rows[r%d][c%d] * 1.25 + 0.5;\n" ind u u u u;
        pf "%s  }\n%s}\n" ind ind;
        if l.time > 1 then pf "  }\n")
    | Helper_call { tgt } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      pf "  %s(%s, %d);\n" (if a.a_float then "scale_f" else "scale_i") name
        a.a_size
    | Alloca_mix { l; tgt } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      let u = fresh () in
      if a.a_float then begin
        pf "  float tmp%d[8];\n" u;
        pf "  for (int j%d = 0; j%d < 8; j%d++) { tmp%d[j%d] = j%d * 2.0 - 3.0; }\n"
          u u u u u u;
        pf "  scale_f(tmp%d, 8);\n" u
      end
      else begin
        pf "  int tmp%d[8];\n" u;
        pf "  for (int j%d = 0; j%d < 8; j%d++) { tmp%d[j%d] = j%d * 2 - 3; }\n" u
          u u u u u;
        pf "  scale_i(tmp%d, 8);\n" u
      end;
      loops l a.a_size (fun ~ind ~i ->
          pf "%s%s[%s] = %s[%s] + tmp%d[%s %% 8];\n" ind name i name i u i)
    | Poke { tgt; idx; v } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      pf "  %s[%d] = %s;\n" name (idx mod a.a_size) (lit a.a_float v)
    | Peek { tgt; idx } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      pf "  print(%s[%d]);\n" name (idx mod a.a_size)
    | Sum { tgt } ->
      let a = nth_arr p tgt and name = arr_name p tgt in
      let u = fresh () in
      if a.a_float then begin
        pf "  float s%d = 0.0;\n" u;
        pf "  for (int i%d = 0; i%d < %d; i%d++) { s%d = s%d + %s[i%d]; }\n" u u
          a.a_size u u u name u
      end
      else begin
        pf "  int s%d = 0;\n" u;
        pf "  for (int i%d = 0; i%d < %d; i%d++) { s%d = s%d + %s[i%d] * (i%d %% 7 + 1); }\n"
          u u a.a_size u u u name u u
      end;
      pf "  print(s%d);\n" u
  in
  List.iter emit_phase p.phases;
  (* final digest over every unit: any wrong byte anywhere shows up *)
  let u = fresh () in
  pf "  int di%d = 0;\n  float df%d = 0.0;\n" u u;
  List.iteri
    (fun i a ->
      let v = fresh () in
      if a.a_float then
        pf "  for (int i%d = 0; i%d < %d; i%d++) { df%d = df%d + g%d[i%d] * (i%d %% 5 + 1); }\n"
          v v a.a_size v u u i v v
      else
        pf "  for (int i%d = 0; i%d < %d; i%d++) { di%d = di%d + g%d[i%d] * (i%d %% 7 + 1); }\n"
          v v a.a_size v u u i v v)
    p.arrays;
  (match p.heap with
  | Some h ->
    let v = fresh () in
    pf "  for (int i%d = 0; i%d < %d; i%d++) { di%d = di%d + hp[i%d] * (i%d %% 3 + 1); }\n"
      v v h v u u v v
  | None -> ());
  (match p.jagged with
  | Some r ->
    let v = fresh () in
    pf "  for (int r%d = 0; r%d < %d; r%d++) {\n" v v r v;
    pf "    for (int c%d = 0; c%d < ((r%d %% 3) + 1) * 8; c%d++) {\n" v v v v;
    pf "      df%d = df%d + rows[r%d][c%d];\n    }\n  }\n" u u v v
  | None -> ());
  pf "  print(di%d);\n  print(df%d);\n  return 0;\n}\n" u u;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Differential check under the sanitizer. *)

type failure = {
  f_config : string;  (* which execution configuration disagreed/failed *)
  f_kind : string;  (* "output mismatch" | "leak" | "error" *)
  f_detail : string;
}

(* The paged-backend rows run the same split-memory modules under
   touch-driven page migration; the sanitizer is inert there (one memory,
   nothing to keep coherent), so their oracle is pure bit-identity plus
   the always-clean paged leak report. The last field marks the row whose
   kernel launches shard across domains. *)
let configs =
  [
    ("unopt/closures", Pipeline.Cgcm_unoptimized, Interp.Closures,
     Mem_backend.Explicit, false);
    ("unopt/tree-walk", Pipeline.Cgcm_unoptimized, Interp.Tree_walk,
     Mem_backend.Explicit, false);
    ("opt/closures", Pipeline.Cgcm_optimized, Interp.Closures,
     Mem_backend.Explicit, false);
    ("opt/tree-walk", Pipeline.Cgcm_optimized, Interp.Tree_walk,
     Mem_backend.Explicit, false);
    ("opt/parallel", Pipeline.Cgcm_optimized, Interp.Closures,
     Mem_backend.Explicit, true);
    ("unified-oracle", Pipeline.Unified_oracle Pipeline.Optimized,
     Interp.Closures, Mem_backend.Explicit, false);
    ("inspector-executor", Pipeline.Inspector_executor_exec, Interp.Closures,
     Mem_backend.Explicit, false);
    ("unopt/paged", Pipeline.Cgcm_unoptimized, Interp.Closures,
     Mem_backend.Paged, false);
    ("opt/paged", Pipeline.Cgcm_optimized, Interp.Closures, Mem_backend.Paged,
     false);
    ("opt/paged/tree-walk", Pipeline.Cgcm_optimized, Interp.Tree_walk,
     Mem_backend.Paged, false);
  ]

let check_source ?(jobs = 4) (src : string) : failure option =
  let run_one name f =
    match f () with
    | r -> Ok (r : Interp.result)
    | exception e -> (
      match Cgcm_core.Diagnostics.classify e with
      | Some (code, msg) ->
        Error { f_config = name; f_kind = Printf.sprintf "error (exit %d)" code;
                f_detail = msg }
      | None -> raise e)
  in
  match run_one "sequential" (fun () -> snd (Pipeline.run Pipeline.Sequential src)) with
  | Error f -> Some f
  | Ok reference ->
    let check_one (name, exec, engine, backend, sharded) =
      (* The sharded row runs with a forced job count (auto would be 1
         on a single-core host, never sharding) and a floor-level trip
         threshold, so the fuzzer exercises real cross-domain kernel
         execution under the sanitizer even on small generated loops. *)
      let jobs, cost =
        if sharded then
          ( jobs,
            { Cgcm_gpusim.Cost_model.default with
              Cgcm_gpusim.Cost_model.par_min_trip = 2 } )
        else (1, Cgcm_gpusim.Cost_model.default)
      in
      match
        run_one name (fun () ->
            snd (Pipeline.run ~engine ~cost ~jobs ~sanitize:true ~backend exec src))
      with
      | Error f -> Some f
      | Ok r ->
        if r.Interp.output <> reference.Interp.output
           || r.Interp.exit_code <> reference.Interp.exit_code
        then
          Some
            { f_config = name; f_kind = "output mismatch";
              f_detail =
                Printf.sprintf "sequential printed:\n%sbut %s printed:\n%s"
                  reference.Interp.output name r.Interp.output }
        else
          let leaks = r.Interp.leaks in
          if
            leaks.Cgcm_runtime.Runtime.resident_nonglobal > 0
            || leaks.Cgcm_runtime.Runtime.leaked_dev_blocks > 0
          then
            Some
              { f_config = name; f_kind = "leak";
                f_detail =
                  Printf.sprintf "%d resident units, %d device blocks leaked"
                    leaks.Cgcm_runtime.Runtime.resident_nonglobal
                    leaks.Cgcm_runtime.Runtime.leaked_dev_blocks }
          else None
    in
    List.find_map check_one configs

(* ------------------------------------------------------------------ *)
(* Pass-plan configurations: the fixed configs above always run the
   stock level pipelines; these additionally compile under fuzzed pass
   plans. Two families:

   - a schedule-ordered *subset* of the optimized pipeline that keeps
     comm-mgmt (management present exactly once — the pass is not
     idempotent), run under split memory with the sanitizer armed;
   - an arbitrary *permutation* of an arbitrary subset, run in unified
     memory where management is not needed for correctness, so any
     legal-IR ordering must preserve program output.

   Plans derive deterministically from the program seed, so shrinking
   re-checks a candidate under the exact same plans. *)

module Pass = Cgcm_transform.Pass

let split_subset_plan rng : Pass.plan =
  let maybe_fix item =
    if Rng.bool rng then [ Pass.fixpoint [ item ] ] else [ item ]
  in
  List.concat
    [
      (if Rng.bool rng then [ Pass.Atom Pass.simplify ] else []);
      [ Pass.Atom Pass.comm_mgmt ];
      (if Rng.bool rng then [ Pass.Atom Pass.glue_kernels ] else []);
      (if Rng.bool rng then maybe_fix (Pass.Atom Pass.alloca_promotion)
       else []);
      (if Rng.bool rng then maybe_fix (Pass.Atom Pass.map_promotion) else []);
    ]

let unified_perm_plan rng : Pass.plan =
  let subset = List.filter (fun _ -> Rng.bool rng) Pass.all in
  let arr = Array.of_list subset in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr |> List.map (fun p -> Pass.Atom p)

let plan_configs ~rounds ~seed =
  let rng = Rng.create (seed lxor 0x9E3779B9) in
  List.concat
    (List.init rounds (fun k ->
         [
           (Printf.sprintf "plan-split-%d" k, `Split, split_subset_plan rng);
           (Printf.sprintf "plan-unified-%d" k, `Unified, unified_perm_plan rng);
         ]))

let check_plans ~rounds ~seed (src : string) : failure option =
  if rounds <= 0 then None
  else
    let run_one name f =
      match f () with
      | r -> Ok (r : Interp.result)
      | exception e -> (
        match Cgcm_core.Diagnostics.classify e with
        | Some (code, msg) ->
          Error
            { f_config = name; f_kind = Printf.sprintf "error (exit %d)" code;
              f_detail = msg }
        | None -> raise e)
    in
    match
      run_one "sequential" (fun () -> snd (Pipeline.run Pipeline.Sequential src))
    with
    | Error f -> Some f
    | Ok reference ->
      let check_one (name, mem, plan) =
        let label =
          Printf.sprintf "%s [%s]" name (Pass.plan_to_string plan)
        in
        match
          run_one label (fun () ->
              let c = Pipeline.compile ~plan src in
              let mode =
                match mem with
                | `Split -> Interp.Split
                | `Unified -> Interp.Unified
              in
              Interp.run
                ~config:
                  { Interp.default_config with
                    Interp.mode;
                    sanitize = (mem = `Split);
                  }
                c.Pipeline.modul)
        with
        | Error f -> Some f
        | Ok r ->
          if
            r.Interp.output <> reference.Interp.output
            || r.Interp.exit_code <> reference.Interp.exit_code
          then
            Some
              { f_config = label; f_kind = "output mismatch";
                f_detail =
                  Printf.sprintf "sequential printed:\n%sbut %s printed:\n%s"
                    reference.Interp.output label r.Interp.output }
          else
            let leaks = r.Interp.leaks in
            if
              mem = `Split
              && (leaks.Cgcm_runtime.Runtime.resident_nonglobal > 0
                 || leaks.Cgcm_runtime.Runtime.leaked_dev_blocks > 0)
            then
              Some
                { f_config = label; f_kind = "leak";
                  f_detail =
                    Printf.sprintf "%d resident units, %d device blocks leaked"
                      leaks.Cgcm_runtime.Runtime.resident_nonglobal
                      leaks.Cgcm_runtime.Runtime.leaked_dev_blocks }
            else None
      in
      List.find_map check_one (plan_configs ~rounds ~seed)

(* Differential check: sequential reference vs unoptimized/optimized x
   closures/tree-walk/parallel (sanitizer armed), the unified oracle
   and the inspector-executor baseline. The parallel row runs the
   closure engine at [jobs] (default 4 — the auto count would be 1 on a
   single-core host, never sharding) and a floor-level trip threshold
   so small generated loops still shard.

   Additionally compiles the program under [plan_rounds] (default 1;
   0 disables) rounds of fuzzed pass plans derived deterministically
   from the program seed: a schedule-ordered subset of the optimized
   pipeline containing comm-mgmt (run under split memory with the
   sanitizer armed) and an arbitrary permutation of an arbitrary pass
   subset (run in unified memory, where management is unnecessary for
   correctness). [None] = all agree, leak-free, sanitize-clean. *)
let check ?jobs ?(plan_rounds = 1) (p : prog) : failure option =
  let src = render p in
  match check_source ?jobs src with
  | Some f -> Some f
  | None -> check_plans ~rounds:plan_rounds ~seed:p.seed src

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy first-improvement to a fixpoint, bounded. A
   candidate is kept when it still fails in any way — hopping between
   failure kinds is fine, smaller is what matters. *)

let simpler_loop l =
  (if l.time > 1 then [ { l with time = 1 } ] else [])
  @ if l.par then [ { l with par = false } ] else []

let simpler_phase = function
  | Fill f ->
    (if f.mul <> 1 then [ Fill { f with mul = 1 } ] else [])
    @ if f.add <> 0 then [ Fill { f with add = 0 } ] else []
  | Map1 m ->
    List.map (fun l -> Map1 { m with l }) (simpler_loop m.l)
    @ (if m.mul <> 1 then [ Map1 { m with mul = 1 } ] else [])
    @ if m.add <> 0 then [ Map1 { m with add = 0 } ] else []
  | Stencil s -> List.map (fun l -> Stencil { s with l }) (simpler_loop s.l)
  | Grid _ -> []
  | Update u ->
    List.map (fun l -> Update { u with l }) (simpler_loop u.l)
    @ (if u.mul <> 1 then [ Update { u with mul = 1 } ] else [])
    @ if u.add <> 0 then [ Update { u with add = 0 } ] else []
  | Heap_update h -> List.map (fun l -> Heap_update { h with l }) (simpler_loop h.l)
  | Jagged_update j -> List.map (fun l -> Jagged_update { l }) (simpler_loop j.l)
  | Helper_call _ -> []
  | Alloca_mix a -> List.map (fun l -> Alloca_mix { a with l }) (simpler_loop a.l)
  | Poke p -> if p.v <> 0 then [ Poke { p with v = 0 } ] else []
  | Peek _ -> []
  | Sum _ -> []

let rec drop_nth n = function
  | [] -> []
  | _ :: tl when n = 0 -> tl
  | hd :: tl -> hd :: drop_nth (n - 1) tl

let rec set_nth n v = function
  | [] -> []
  | _ :: tl when n = 0 -> v :: tl
  | hd :: tl -> hd :: set_nth (n - 1) v tl

(* Shrink candidates, most aggressive first (drop a phase, drop a
   unit, halve a size, simplify a phase). *)
let candidates (p : prog) : prog list =
  let drop_phases =
    List.mapi (fun i _ -> { p with phases = drop_nth i p.phases }) p.phases
  in
  let drop_units =
    (match p.heap with Some _ -> [ { p with heap = None } ] | None -> [])
    @ (match p.jagged with Some _ -> [ { p with jagged = None } ] | None -> [])
    @
    if List.length p.arrays > 1 then
      List.mapi (fun i _ -> { p with arrays = drop_nth i p.arrays }) p.arrays
    else []
  in
  let halve_sizes =
    List.concat
      (List.mapi
         (fun i a ->
           if a.a_size > 8 then
             [ { p with
                 arrays = set_nth i { a with a_size = max 8 (a.a_size / 2) } p.arrays
               } ]
           else [])
         p.arrays)
    @
    match p.heap with
    | Some h when h > 8 -> [ { p with heap = Some (max 8 (h / 2)) } ]
    | _ -> []
  in
  let simplify_phases =
    List.concat
      (List.mapi
         (fun i ph ->
           List.map (fun ph' -> { p with phases = set_nth i ph' p.phases })
             (simpler_phase ph))
         p.phases)
  in
  drop_phases @ drop_units @ halve_sizes @ simplify_phases

let shrink ?(budget = 200) ?(budget_ms = 60_000.0)
    ~(check : prog -> failure option) (p : prog) (f : failure) :
    prog * failure =
  (* Two bounds: a count of check evaluations, and a wall-clock budget.
     The count bounds work on fast programs; the wall clock matters when
     a counterexample's checks are individually slow (every candidate
     re-runs the whole differential harness), where 200 evaluations
     could take minutes. Both are best-so-far cutoffs: the smallest
     failing program found before the budget lapsed is returned. *)
  let deadline = Unix.gettimeofday () +. (budget_ms /. 1000.0) in
  let cur = ref p and fail = ref f and fuel = ref budget in
  let exhausted () = !fuel <= 0 || Unix.gettimeofday () >= deadline in
  let improved = ref true in
  while !improved && not (exhausted ()) do
    improved := false;
    let rec try_cands = function
      | [] -> ()
      | c :: rest ->
        if exhausted () then ()
        else begin
          decr fuel;
          match check c with
          | Some f' ->
            cur := c;
            fail := f';
            improved := true
          | None -> try_cands rest
        end
    in
    try_cands (candidates !cur)
  done;
  (!cur, !fail)

(* ------------------------------------------------------------------ *)
(* Campaign driver and reporting. *)

type report = {
  r_seed : int;  (* campaign seed *)
  r_index : int;  (* which program of the campaign failed *)
  r_failure : failure;
  r_minimal : prog;  (* the shrunk counterexample *)
}

let render_report (r : report) : string =
  Printf.sprintf
    "fuzz failure: seed %d program %d, config %s: %s\n%s\n--- minimal counterexample ---\n%s"
    r.r_seed r.r_index r.r_failure.f_config r.r_failure.f_kind
    r.r_failure.f_detail
    (render r.r_minimal)

let campaign ?(progress = fun _ -> ()) ?jobs ?plan_rounds ?shrink_budget_ms
    ~count ~seed () : report list =
  let check = check ?jobs ?plan_rounds in
  let failures = ref [] in
  for k = 0 to count - 1 do
    progress k;
    let p = generate ~seed:(Rng.int (Rng.stream ~seed k) 0x3FFFFFFF) in
    match check p with
    | None -> ()
    | Some f ->
      let minimal, f = shrink ?budget_ms:shrink_budget_ms ~check p f in
      failures := { r_seed = seed; r_index = k; r_failure = f; r_minimal = minimal } :: !failures
  done;
  List.rev !failures
