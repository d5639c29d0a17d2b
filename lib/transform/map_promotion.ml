(* Map promotion (Section 5.1, Algorithm 4).

   Cyclic communication — map / launch / unmap / release every iteration —
   is transformed into an acyclic pattern by hoisting run-time calls out
   of loop bodies and up the call graph:

     - a map call is *copied* into the loop preheader (the in-loop calls
       stay: they still perform the CPU-to-GPU pointer translation, but
       cause no transfers because the preheader map holds a reference);
     - unmap calls inside the loop are *deleted* (the device copy is
       authoritative for the whole loop);
     - unmap + release are inserted on the loop's exit edges.

   A candidate is promotable when its pointer value provably refers to the
   same allocation unit throughout the region (pointsToChanges: the value
   is region-invariant, possibly after copying its computation into the
   preheader) and the CPU neither reads nor writes that unit inside the
   region (modOrRef, via the underlying-object alias analysis).

   Regions are loops and whole functions; iterating to convergence lets
   map operations climb from inner loops to outer loops to callers. *)

module Ir = Cgcm_ir.Ir
module Loops = Cgcm_analysis.Loops
module Alias = Cgcm_analysis.Alias
module Callgraph = Cgcm_analysis.Callgraph
module Modref = Cgcm_analysis.Modref
module Manager = Cgcm_analysis.Manager

type family = Scalar_family | Array_family

let call_kind name =
  if name = Ir.Intrinsic.map then Some (`Map, Scalar_family)
  else if name = Ir.Intrinsic.unmap then Some (`Unmap, Scalar_family)
  else if name = Ir.Intrinsic.release then Some (`Release, Scalar_family)
  else if name = Ir.Intrinsic.map_array then Some (`Map, Array_family)
  else if name = Ir.Intrinsic.unmap_array then Some (`Unmap, Array_family)
  else if name = Ir.Intrinsic.release_array then Some (`Release, Array_family)
  else None

let fns_of_family = function
  | Scalar_family ->
    (Ir.Intrinsic.map, Ir.Intrinsic.unmap, Ir.Intrinsic.release)
  | Array_family ->
    (Ir.Intrinsic.map_array, Ir.Intrinsic.unmap_array, Ir.Intrinsic.release_array)

(* ------------------------------------------------------------------ *)
(* Invariance: can [v]'s computation be replayed in the preheader?      *)

let rec invariant_chain (f : Ir.func) (alias : Alias.t) ~(in_region : int -> bool)
    ~(def_block : int array) (memo : (int, Ir.value) Hashtbl.t)
    (acc : Ir.instr list ref) (v : Ir.value) : Ir.value option =
  match v with
  | Ir.Imm_int _ | Ir.Imm_float _ | Ir.Global _ -> Some v
  | Ir.Reg r when r < f.Ir.nargs -> Some v  (* parameters are invariant *)
  | Ir.Reg r when not (in_region def_block.(r)) -> Some v
  | Ir.Reg r -> (
    match Hashtbl.find_opt memo r with
    | Some v' -> Some v'
    | None -> (
      match alias.Alias.defs.(r) with
      | Some (Ir.Binop (_, op, a, b)) -> (
        let ca = invariant_chain f alias ~in_region ~def_block memo acc a in
        let cb = invariant_chain f alias ~in_region ~def_block memo acc b in
        match (ca, cb) with
        | Some a', Some b' ->
          let d = Ir.fresh_reg f in
          acc := !acc @ [ Ir.Binop (d, op, a', b') ];
          Hashtbl.replace memo r (Ir.Reg d);
          Some (Ir.Reg d)
        | _ -> None)
      | Some (Ir.Unop (_, op, a)) -> (
        match invariant_chain f alias ~in_region ~def_block memo acc a with
        | Some a' ->
          let d = Ir.fresh_reg f in
          acc := !acc @ [ Ir.Unop (d, op, a') ];
          Hashtbl.replace memo r (Ir.Reg d);
          Some (Ir.Reg d)
        | None -> None)
      | Some (Ir.Load (_, ty, addr)) -> (
        (* Loads are invariant only from private slots not stored to in
           the region. *)
        match addr with
        | Ir.Reg s
          when Hashtbl.find_opt alias.Alias.slots s = Some true
               && not (in_region def_block.(s)) ->
          let stored_in_region =
            Ir.fold_instrs
              (fun acc bi i ->
                acc
                ||
                match i with
                | Ir.Store (_, Ir.Reg s', _) when s' = s -> in_region bi
                | _ -> false)
              false f
          in
          if stored_in_region then None
          else begin
            let d = Ir.fresh_reg f in
            acc := !acc @ [ Ir.Load (d, ty, addr) ];
            Hashtbl.replace memo r (Ir.Reg d);
            Some (Ir.Reg d)
          end
        | _ -> None)
      | _ -> None))

(* ------------------------------------------------------------------ *)
(* modOrRef: does CPU code in the region touch [obj]?                   *)

let call_mod_or_ref (alias : Alias.t) (modref : Modref.t) obj name args =
  match name with
  | _ when Ir.Intrinsic.is_cgcm name -> (
    (* run-time calls synchronise host/device copies; they never make the
       host copy wrong. free, however, kills the unit. *)
    false)
  | "print_i64" | "print_f64" | "malloc" | "calloc" -> false
  | _ when Ir.Intrinsic.is_pure_math name -> false
  | "prints" | "strlen" | "free" | "realloc" ->
    List.exists (fun a -> Alias.may_alias (Alias.underlying alias a) obj) args
  | _ ->
    (* user-defined function: consult the interprocedural summary *)
    Modref.call_may_touch modref ~callee:name obj

let mod_or_ref (f : Ir.func) (alias : Alias.t) (modref : Modref.t)
    ~(in_region : int -> bool) obj =
  Ir.fold_instrs
    (fun acc bi i ->
      acc
      || in_region bi
         &&
         match i with
         | Ir.Load (_, _, addr) | Ir.Store (_, addr, _) ->
           Alias.access_may_alias alias
             ~access:(Alias.underlying alias addr)
             ~target:obj
         | Ir.Call (_, name, args) -> call_mod_or_ref alias modref obj name args
         | Ir.Launch _ | Ir.Alloca _ | Ir.Binop _ | Ir.Unop _ -> false)
    false f

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)

type candidate = {
  value : Ir.value;
  family : family;
  has_unmap : bool;
}

let candidates_in (f : Ir.func) ~(in_region : int -> bool) : candidate list =
  let tbl = Hashtbl.create 8 in
  Ir.iter_instrs
    (fun bi i ->
      if in_region bi then
        match i with
        | Ir.Call (_, name, [ v ]) -> (
          match call_kind name with
          | Some (kind, family) ->
            let key = v in
            let cur =
              Option.value ~default:(family, false, true)
                (Hashtbl.find_opt tbl key)
            in
            let fam0, unm, consistent = cur in
            Hashtbl.replace tbl key
              ( fam0,
                unm || kind = `Unmap,
                consistent && fam0 = family )
          | None -> ())
        | _ -> ())
    f;
  Hashtbl.fold
    (fun value (family, has_unmap, consistent) acc ->
      if consistent then { value; family; has_unmap } :: acc else acc)
    tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Loop promotion                                                      *)

let def_blocks (f : Ir.func) =
  let db = Array.make f.Ir.nregs (-1) in
  Ir.iter_instrs
    (fun bi i ->
      match Ir.def_of_instr i with Some d -> db.(d) <- bi | None -> ())
    f;
  db

let delete_unmaps (f : Ir.func) ~in_region ~value ~family =
  let _, unmapf, _ = fns_of_family family in
  Rewrite.expand_instrs f (fun bi i ->
      match i with
      | Ir.Call (_, name, [ v ]) when in_region bi && name = unmapf && v = value
        ->
        []
      | i -> [ i ])

(* Try to promote one candidate out of loop [li]; returns true on
   change. [loops] and [alias] stay valid across the candidates of one
   restart: a candidate that fails inserts no instruction. *)
let promote_loop_candidate (f : Ir.func) (modref : Modref.t) (loops : Loops.t)
    (alias : Alias.t Lazy.t) ~li (c : candidate) : bool =
  let l = loops.Loops.loops.(li) in
  if not c.has_unmap then false
  else begin
    let alias = Lazy.force alias in
    let in_region bi = Loops.in_loop l bi in
    let db = def_blocks f in
    let chain = ref [] in
    let memo = Hashtbl.create 4 in
    match
      invariant_chain f alias ~in_region ~def_block:db memo chain c.value
    with
    | None -> false
    | Some v' ->
      let obj = Alias.underlying alias c.value in
      if mod_or_ref f alias modref ~in_region obj then false
      else begin
        match Rewrite.make_preheader f loops ~li with
        | None -> false
        | Some ph ->
          let mapf, unmapf, releasef = fns_of_family c.family in
          let d = Ir.fresh_reg f in
          Rewrite.append_instrs f ph
            (!chain @ [ Ir.Call (Some d, mapf, [ v' ]) ]);
          delete_unmaps f ~in_region ~value:c.value ~family:c.family;
          (* place unmap + release on every exit edge *)
          List.iter
            (fun (from_, to_) ->
              ignore
                (Rewrite.split_edge f ~from_ ~to_
                   ~instrs:
                     [
                       Ir.Call (None, unmapf, [ v' ]);
                       Ir.Call (None, releasef, [ v' ]);
                     ]))
            (Loops.exit_edges f l);
          true
      end
  end

(* One pass over all loops of a function, innermost first; restarts from
   fresh loop and alias analyses after each change (the CFG mutates). *)
let promote_loops (mgr : Manager.t) (f : Ir.func) (modref : Modref.t) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let loops = Manager.loops mgr f in
    let alias = lazy (Manager.alias mgr f) in
    let order = Loops.innermost_first loops in
    let try_one li =
      let l = loops.Loops.loops.(li) in
      let in_region bi = Loops.in_loop l bi in
      let cands = candidates_in f ~in_region in
      List.exists
        (fun c -> promote_loop_candidate f modref loops alias ~li c)
        cands
    in
    match List.find_opt try_one order with
    | Some _ ->
      changed := true;
      continue_ := true
    | None -> ()
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Function-level promotion: hoist into callers                        *)

(* A pointer value usable at the call site: either a global (available
   anywhere) or one of the callee's parameters. Lowering spills parameters
   into stack slots and reloads them, so we look through a load from a
   private slot whose only store is the entry-block parameter spill. *)
type site_expr = Site_param of int | Site_global of string

let resolve_to_entry (f : Ir.func) (alias : Alias.t) (v : Ir.value) :
    site_expr option =
  match v with
  | Ir.Global g -> Some (Site_global g)
  | Ir.Reg r when r < f.Ir.nargs -> Some (Site_param r)
  | Ir.Reg r -> (
    match alias.Alias.defs.(r) with
    | Some (Ir.Load (_, _, Ir.Reg s))
      when Hashtbl.find_opt alias.Alias.slots s = Some true -> (
      match Option.value ~default:[] (Hashtbl.find_opt alias.Alias.stored s) with
      | [ Ir.Reg p ] when p < f.Ir.nargs -> Some (Site_param p)
      | [ Ir.Global g ] -> Some (Site_global g)
      | _ -> None)
    | _ -> None)
  | _ -> None

let promote_function (mgr : Manager.t) (m : Ir.modul) (modref : Modref.t)
    (cg : Callgraph.t) (f : Ir.func) : bool =
  if f.Ir.fname = "main" || f.Ir.fkind = Ir.Kernel then false
  else if Callgraph.is_recursive cg f.Ir.fname then false
  else begin
    let sites = Callgraph.call_sites cg f.Ir.fname in
    if sites = [] then false
    else begin
      let in_region _ = true in
      let alias = Manager.alias mgr f in
      let cands =
        candidates_in f ~in_region
        |> List.filter_map (fun c ->
               if not c.has_unmap then None
               else
                 match resolve_to_entry f alias c.value with
                 | Some site ->
                   let obj = Alias.underlying alias c.value in
                   if mod_or_ref f alias modref ~in_region obj then None
                   else Some (c, site)
                 | None -> None)
      in
      if cands = [] then false
      else begin
        (* Delete the callee's unmaps for every promotable candidate. *)
        List.iter
          (fun (c, _) ->
            delete_unmaps f ~in_region ~value:c.value ~family:c.family)
          cands;
        (* Wrap each call site once per distinct (site expression, family). *)
        let keys =
          List.sort_uniq compare (List.map (fun (c, s) -> (s, c.family)) cands)
        in
        let caller_names =
          List.sort_uniq compare (List.map fst sites)
        in
        List.iter
          (fun caller_name ->
            let caller = Ir.find_func_exn m caller_name in
            Rewrite.expand_instrs caller (fun _ i ->
                match i with
                | Ir.Call (_, name, args) when name = f.Ir.fname ->
                  let pre = ref [] and post = ref [] in
                  List.iter
                    (fun (site, family) ->
                      let mapf, unmapf, releasef = fns_of_family family in
                      let site_value =
                        match site with
                        | Site_param p -> List.nth args p
                        | Site_global g -> Ir.Global g
                      in
                      let d = Ir.fresh_reg caller in
                      pre := !pre @ [ Ir.Call (Some d, mapf, [ site_value ]) ];
                      post :=
                        !post
                        @ [
                            Ir.Call (None, unmapf, [ site_value ]);
                            Ir.Call (None, releasef, [ site_value ]);
                          ])
                    keys;
                  !pre @ [ i ] @ !post
                | i -> [ i ]))
          caller_names;
        true
      end
    end
  end

(* ------------------------------------------------------------------ *)

(* The pass step: one round of loop- plus function-level promotion. The
   pass framework's fixpoint combinator iterates it so map operations
   climb from inner loops to outer loops to callers. One mod/ref summary
   serves the whole round: promotions only add or delete management
   intrinsics and replay private-slot loads, which the summary ignores. *)
let step (mgr : Manager.t) : bool =
  let m = Manager.modul mgr in
  let changed = ref false in
  let modref = Manager.modref mgr in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then
        if promote_loops mgr f modref then changed := true)
    m.Ir.funcs;
  let cg = Manager.callgraph mgr in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then
        if promote_function mgr m modref cg f then changed := true)
    m.Ir.funcs;
  !changed
