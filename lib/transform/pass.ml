(* Pass framework: passes get their analyses from the analysis manager,
   are composed into plans with fixpoint iteration, and run under
   instrumentation hooks (per-pass timing, IR deltas), with the module
   verified after every pass execution. *)

module Ir = Cgcm_ir.Ir
module Manager = Cgcm_analysis.Manager

let src = Logs.Src.create "cgcm.pass" ~doc:"CGCM pass manager"

module Log = (val Logs.src_log src : Logs.LOG)

type t = { name : string; description : string; step : Manager.t -> bool }

(* The standard CGCM passes, in their §5.3 schedule order. *)
let simplify =
  {
    name = "simplify";
    description = "constant folding, algebraic identities, dead code";
    step = Simplify.step;
  }

let comm_mgmt =
  {
    name = "comm-mgmt";
    description =
      "insert map/unmap/release around every launch (use-based type \
       inference); mark escaping allocas";
    step = Comm_mgmt.step;
  }

let glue_kernels =
  {
    name = "glue-kernels";
    description = "outline small CPU regions between launches onto the GPU";
    step = Glue_kernels.step;
  }

let alloca_promotion =
  {
    name = "alloca-promotion";
    description = "preallocate escaping locals in callers' frames";
    step = Alloca_promotion.step;
  }

let map_promotion =
  {
    name = "map-promotion";
    description =
      "hoist run-time calls out of loops and up the call graph (acyclic \
       communication)";
    step = Map_promotion.step;
  }

(* The single registry: [find] and the CLI enumerate from here. *)
let all =
  [ simplify; comm_mgmt; glue_kernels; alloca_promotion; map_promotion ]

let find name = List.find_opt (fun p -> p.name = name) all

(* ------------------------------------------------------------------ *)
(* Plans *)

type plan_item = Atom of t | Fixpoint of { max_iter : int; body : plan }
and plan = plan_item list

let default_fixpoint_iters = 12

let fixpoint ?(max_iter = default_fixpoint_iters) body =
  Fixpoint { max_iter; body }

let unmanaged_plan = [ Atom simplify ]
let managed_pipeline = [ Atom simplify; Atom comm_mgmt ]

let optimized_pipeline =
  [
    Atom simplify;
    Atom comm_mgmt;
    Atom glue_kernels;
    fixpoint ~max_iter:8 [ Atom alloca_promotion ];
    fixpoint ~max_iter:12 [ Atom map_promotion ];
  ]

let named_plans =
  [
    ("unmanaged", unmanaged_plan);
    ("managed", managed_pipeline);
    ("optimized", optimized_pipeline);
  ]

(* Split [s] on commas at parenthesis depth 0. *)
let split_top s =
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
        incr depth;
        Buffer.add_char buf c
      | ')' ->
        decr depth;
        Buffer.add_char buf c
      | ',' when !depth = 0 ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev_map String.trim !parts

let rec parse_plan (s : string) : (plan, string) result =
  let items = split_top s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: _ -> Error "empty pass name in spec"
    | tok :: rest -> (
      let n = String.length tok in
      if
        n > 10
        && String.sub tok 0 9 = "fixpoint("
        && tok.[n - 1] = ')'
      then
        match parse_plan (String.sub tok 9 (n - 10)) with
        | Ok body -> go (fixpoint body :: acc) rest
        | Error e -> Error e
      else
        match find tok with
        | Some p -> go (Atom p :: acc) rest
        | None -> (
          match List.assoc_opt tok named_plans with
          | Some plan -> go (List.rev_append plan acc) rest
          | None ->
            Error
              (Fmt.str "unknown pass %S (available: %s)" tok
                 (String.concat ", " (List.map (fun p -> p.name) all)))))
  in
  go [] items

let rec plan_to_string (plan : plan) =
  String.concat ","
    (List.map
       (function
         | Atom p -> p.name
         | Fixpoint { body; _ } -> Fmt.str "fixpoint(%s)" (plan_to_string body))
       plan)

(* ------------------------------------------------------------------ *)
(* Module metrics *)

let instr_count (m : Ir.modul) =
  List.fold_left
    (fun acc f -> Ir.fold_instrs (fun n _ _ -> n + 1) acc f)
    0 m.Ir.funcs

let launch_count (m : Ir.modul) =
  List.fold_left
    (fun acc f ->
      Ir.fold_instrs
        (fun n _ i -> match i with Ir.Launch _ -> n + 1 | _ -> n)
        acc f)
    0 m.Ir.funcs

let runtime_call_count (m : Ir.modul) =
  List.fold_left
    (fun acc f ->
      Ir.fold_instrs
        (fun n _ i ->
          match i with
          | Ir.Call (_, name, _) when Ir.Intrinsic.is_cgcm name -> n + 1
          | _ -> n)
        acc f)
    0 m.Ir.funcs

(* All three counts in one walk: what a pass execution reports. *)
type counts = { instrs : int; launches : int; rtcalls : int }

let count (m : Ir.modul) =
  let instrs = ref 0 and launches = ref 0 and rtcalls = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              incr instrs;
              match i with
              | Ir.Launch _ -> incr launches
              | Ir.Call (_, name, _) when Ir.Intrinsic.is_cgcm name ->
                incr rtcalls
              | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    m.Ir.funcs;
  { instrs = !instrs; launches = !launches; rtcalls = !rtcalls }

(* ------------------------------------------------------------------ *)
(* Instrumented execution *)

type pass_stat = {
  ps_pass : string;
  ps_wall_ms : float;
  ps_changed : bool;
  ps_instrs_before : int;
  ps_instrs_after : int;
  ps_launches_before : int;
  ps_launches_after : int;
  ps_rtcalls_before : int;
  ps_rtcalls_after : int;
}

type hooks = {
  on_stat : pass_stat -> unit;
  after_pass : string -> Ir.modul -> unit;
}

let default_hooks = { on_stat = ignore; after_pass = (fun _ _ -> ()) }

(* Each pass execution counts the module once, after the pass: the
   counts before it are the previous execution's after-counts, since
   nothing else edits the module in between. *)
let run_plan ?(hooks = default_hooks) (mgr : Manager.t) (plan : plan) =
  let m = Manager.modul mgr in
  let last = ref (count m) in
  let exec_atom p =
    let cb = !last in
    (* A wall clock: CPU time would also charge this pass for work other
       domains or threads of the process do meanwhile. *)
    let t0 = Unix.gettimeofday () in
    let changed = p.step mgr in
    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Cgcm_ir.Verifier.verify_modul m;
    let ca = count m in
    last := ca;
    hooks.on_stat
      {
        ps_pass = p.name;
        ps_wall_ms = dt;
        ps_changed = changed;
        ps_instrs_before = cb.instrs;
        ps_instrs_after = ca.instrs;
        ps_launches_before = cb.launches;
        ps_launches_after = ca.launches;
        ps_rtcalls_before = cb.rtcalls;
        ps_rtcalls_after = ca.rtcalls;
      };
    hooks.after_pass p.name m;
    Log.debug (fun k ->
        k "%s: %d -> %d instructions (%.1f ms)%s" p.name cb.instrs ca.instrs
          dt
          (if changed then "" else " [no change]"));
    changed
  in
  let rec exec_item = function
    | Atom p -> exec_atom p
    | Fixpoint { max_iter; body } ->
      let any = ref false in
      let continue_ = ref true in
      let iter = ref 0 in
      while !continue_ && !iter < max_iter do
        incr iter;
        continue_ := false;
        List.iter
          (fun item ->
            if exec_item item then begin
              continue_ := true;
              any := true
            end)
          body
      done;
      !any
  in
  List.iter (fun item -> ignore (exec_item item)) plan

let run_pipeline (plan : plan) (m : Ir.modul) =
  run_plan (Manager.create m) plan
