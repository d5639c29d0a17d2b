(* The ledger's four workloads and their seeded inputs. A suite seed
   shuffles program order; a serve seed orders a fixed multiset of
   requests (and for serve-cold picks their tenants and nonces), so every
   seed carries the same work and the simulated metrics do not depend on
   it. *)

module Pipeline = Cgcm_core.Pipeline
module Registry = Cgcm_progs.Registry
module Polybench = Cgcm_progs.Polybench
module Mem_backend = Cgcm_runtime.Mem_backend
module Rng = Cgcm_support.Rng
module Wire = Cgcm_serve.Wire

type t = Suite_explicit | Suite_paged | Serve_hot | Serve_cold

let all = [ Suite_explicit; Suite_paged; Serve_hot; Serve_cold ]

let name = function
  | Suite_explicit -> "suite-explicit"
  | Suite_paged -> "suite-paged"
  | Serve_hot -> "serve-hot"
  | Serve_cold -> "serve-cold"

let of_name s = List.find_opt (fun w -> name w = s) all

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)

(* A mode is a serve mode string ("opt", "unopt+paged", ...); the same
   strings name the suite's configurations, so one reference table
   serves both kinds of workload. *)
let execution mode =
  let base, backend =
    match String.index_opt mode '+' with
    | None -> (mode, Mem_backend.Explicit)
    | Some i -> (
      ( String.sub mode 0 i,
        match
          Mem_backend.of_string
            (String.sub mode (i + 1) (String.length mode - i - 1))
        with
        | Ok b -> b
        | Error e -> invalid_arg e ))
  in
  let exec =
    match base with
    | "seq" -> Pipeline.Sequential
    | "ie" -> Pipeline.Inspector_executor_exec
    | "unopt" -> Pipeline.Cgcm_unoptimized
    | "opt" -> Pipeline.Cgcm_optimized
    | m -> invalid_arg ("Workload.execution: unknown mode " ^ m)
  in
  (exec, backend)

let is_opt mode = fst (execution mode) = Pipeline.Cgcm_optimized

(* The suites time the CGCM configurations only. The sequential runs are
   the references every run checks against and divides by; they run
   once, untimed. *)
let suite_modes = function
  | Suite_explicit -> [ "unopt"; "opt" ]
  | Suite_paged -> [ "opt+paged" ]
  | Serve_hot | Serve_cold -> []

let serve_modes = [ "opt"; "unopt"; "opt+paged"; "seq" ]

(* ------------------------------------------------------------------ *)
(* Seeded shuffles                                                     *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let suite_order ~seed = shuffle (Rng.stream ~seed 0) Registry.all

(* ------------------------------------------------------------------ *)
(* Serve request streams                                               *)

(* One request and the program it runs without the nonce, which keys
   the in-process reference run that checks its reply. *)
type item = { req : Wire.request; program : string; source : string }

let tenants = [ "t0"; "t1"; "t2"; "t3" ]

let request ~id ~tenant ~mode source : Wire.request =
  {
    rq_id = id;
    rq_tenant = tenant;
    rq_source = source;
    rq_mode = mode;
    rq_deadline = None;
    rq_strict = false;
    rq_faults = None;
  }

(* serve-hot: the four load-generator variants x the serve modes x the
   four tenants, [copies] times over in seeded order. Every request hits
   a cache entry the warm-up filled. *)
let hot_combos =
  List.concat_map
    (fun variant ->
      List.concat_map
        (fun mode -> List.map (fun tenant -> (variant, mode, tenant)) tenants)
        serve_modes)
    [ 0; 1; 2; 3 ]

let hot_item ~id (variant, mode, tenant) =
  let source = Cgcm_serve.Loadgen.source ~variant in
  {
    req = request ~id ~tenant ~mode source;
    program = Printf.sprintf "loadgen-%d" variant;
    source;
  }

let hot_warmup () = List.mapi (fun id c -> hot_item ~id c) hot_combos

let hot_requests ~seed ~pass ~copies =
  List.init copies (fun _ -> hot_combos)
  |> List.concat
  |> shuffle (Rng.stream ~seed (1 + pass))
  |> List.mapi (fun id c -> hot_item ~id c)

(* serve-cold: every PolyBench generator at every n in 6..13 under every
   serve mode, in seeded order. A nonce comment makes each source unique,
   so every request misses the compiled-module cache. *)
let cold_generators : (string * (int -> string)) list =
  [
    ("adi", fun n -> Polybench.adi ~n ());
    ("atax", fun n -> Polybench.atax ~n ());
    ("bicg", fun n -> Polybench.bicg ~n ());
    ("correlation", fun n -> Polybench.correlation ~n ());
    ("covariance", fun n -> Polybench.covariance ~n ());
    ("doitgen", fun n -> Polybench.doitgen ~n ());
    ("gemm", fun n -> Polybench.gemm ~n ());
    ("gemver", fun n -> Polybench.gemver ~n ());
    ("gesummv", fun n -> Polybench.gesummv ~n ());
    ("gramschmidt", fun n -> Polybench.gramschmidt ~n ());
    ("jacobi-2d-imper", fun n -> Polybench.jacobi_2d ~n ());
    ("seidel", fun n -> Polybench.seidel ~n ());
    ("lu", fun n -> Polybench.lu ~n ());
    ("ludcmp", fun n -> Polybench.ludcmp ~n ());
    ("2mm", fun n -> Polybench.twomm ~n ());
    ("3mm", fun n -> Polybench.threemm ~n ());
  ]

let cold_sizes = [ 6; 7; 8; 9; 10; 11; 12; 13 ]

let cold_programs () =
  List.concat_map
    (fun (gen, make) ->
      List.map (fun n -> (Printf.sprintf "%s-n%d" gen n, make n)) cold_sizes)
    cold_generators

let cold_requests ~seed ~pass =
  let rng = Rng.stream ~seed (1 + pass) in
  List.concat_map
    (fun (program, source) ->
      List.map (fun mode -> (program, source, mode)) serve_modes)
    (cold_programs ())
  |> shuffle rng
  |> List.mapi (fun id (program, source, mode) ->
         let tenant = List.nth tenants (Rng.int rng (List.length tenants)) in
         let nonce =
           Printf.sprintf "// nonce %d.%d.%d.%d\n" seed pass id
             (Rng.int rng 1_000_000)
         in
         { req = request ~id ~tenant ~mode (nonce ^ source); program; source })
