(* Glue kernels (Section 5.3).

   A small straight-line CPU region sandwiched between two kernel launches
   blocks map promotion: its loads and stores force the data back to the
   host every iteration even though its performance contribution is
   negligible. The pass outlines such regions into single-threaded GPU
   kernels, so the data can stay on the device and the surrounding map
   operations can rise.

   A region is outlined when:
     - it sits between two launches in the same basic block (run-time
       calls inserted by communication management may intervene);
     - it consists only of arithmetic, loads and stores (no calls, allocas
       or launches) and is short (default at most 40 instructions);
     - no register it defines is used outside the region (values flow
       through memory, which is on the device anyway).

   The new launch is immediately wrapped in management calls; map
   promotion then treats it like any other kernel. *)

module Ir = Cgcm_ir.Ir
module Typeinfer = Cgcm_analysis.Typeinfer

let default_max_insts = 40

let is_simple = function
  | Ir.Binop _ | Ir.Unop _ | Ir.Load _ | Ir.Store _ -> true
  | Ir.Call _ | Ir.Launch _ | Ir.Alloca _ -> false

let is_runtime_call = function
  | Ir.Call (_, name, _) -> Ir.Intrinsic.is_cgcm name
  | _ -> false

let is_launch = function Ir.Launch _ -> true | _ -> false

(* Registers used by an instruction/terminator. *)
let regs_used_instr i =
  List.filter_map
    (function Ir.Reg r -> Some r | _ -> None)
    (Ir.uses_of_instr i)

(* Partition [region] into the instructions that can move to the GPU and
   those that must stay: an instruction stays if its defined register is
   used by anything outside the moved set (the launches' trip operands,
   run-time calls, later code, other blocks, terminators). Pure arithmetic
   may stay behind; a load or store whose def escapes makes the region
   un-outlineable (reordering memory operations would be unsound).
   Returns the moved instructions, or None. *)
let partition_region (f : Ir.func) ~(bi : int) ~(region : Ir.instr list)
    ~(stays : Ir.instr list) : Ir.instr list option =
  let used_outside moved r =
    let in_moved i = List.memq i moved in
    let use_in i = List.mem r (regs_used_instr i) in
    List.exists use_in stays
    || List.exists (fun i -> (not (in_moved i)) && use_in i) region
    || Ir.fold_instrs
         (fun acc bj i -> acc || (bj <> bi && use_in i))
         false f
    || Array.exists
         (fun (b : Ir.block) ->
           List.exists
             (function Ir.Reg r' -> r' = r | _ -> false)
             (Ir.uses_of_term b.Ir.term))
         f.Ir.blocks
  in
  let rec fixpoint moved =
    let moved', kicked =
      List.partition
        (fun i ->
          match Ir.def_of_instr i with
          | Some r -> not (used_outside moved r)
          | None -> true)
        moved
    in
    if kicked = [] then moved' else fixpoint moved'
  in
  let moved = fixpoint region in
  let kept = List.filter (fun i -> not (List.memq i moved)) region in
  (* A kept load is sound only if no moved store can write what it reads
     (its effective position moves from after the glue region to before). *)
  let alias = Cgcm_analysis.Alias.analyze f in
  let moved_store_objs =
    List.filter_map
      (function
        | Ir.Store (_, addr, _) ->
          Some (Cgcm_analysis.Alias.underlying alias addr)
        | _ -> None)
      moved
  in
  let kept_ok =
    List.for_all
      (function
        | Ir.Binop _ | Ir.Unop _ -> true
        | Ir.Load (_, _, addr) ->
          let o = Cgcm_analysis.Alias.underlying alias addr in
          not
            (List.exists
               (fun o' -> Cgcm_analysis.Alias.may_alias o o')
               moved_store_objs)
        | _ -> false)
      kept
  in
  let moved_has_memory =
    List.exists (function Ir.Load _ | Ir.Store _ -> true | _ -> false) moved
  in
  if kept_ok && moved_has_memory && moved <> [] then Some moved else None

(* Free values of the region: used but not defined inside. *)
let region_live_ins (region : Ir.instr list) : Ir.value list =
  let defs = List.filter_map Ir.def_of_instr region in
  let acc = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun v ->
          match v with
          | Ir.Reg r when List.mem r defs -> ()
          | Ir.Imm_int _ | Ir.Imm_float _ -> ()
          | v -> if not (List.mem v !acc) then acc := !acc @ [ v ])
        (Ir.uses_of_instr i))
    region;
  !acc

(* Outline [region] as a single-threaded kernel; returns the kernel. *)
let outline_region (m : Ir.modul) ~(host : Ir.func) ~(name : string)
    (region : Ir.instr list) (live_ins : Ir.value list) : Ir.func =
  ignore host;
  let nargs = 1 + List.length live_ins in
  let k =
    {
      Ir.fname = name;
      nargs;
      nregs = nargs;
      blocks = [| { Ir.instrs = []; term = Ir.Ret None } |];
      fkind = Ir.Kernel;
    }
  in
  (* map live-in value -> parameter register (0 is the thread id) *)
  let mapping = List.mapi (fun i v -> (v, Ir.Reg (i + 1))) live_ins in
  (* defined registers get fresh registers in the kernel *)
  let def_map = Hashtbl.create 8 in
  List.iter
    (fun i ->
      match Ir.def_of_instr i with
      | Some d -> Hashtbl.replace def_map d (Ir.fresh_reg k)
      | None -> ())
    region;
  let subst v =
    match List.assoc_opt v mapping with
    | Some p -> p
    | None -> (
      match v with
      | Ir.Reg r when Hashtbl.mem def_map r -> Ir.Reg (Hashtbl.find def_map r)
      | v -> v)
  in
  let remap_def i =
    match i with
    | Ir.Binop (d, op, a, b) -> Ir.Binop (Hashtbl.find def_map d, op, a, b)
    | Ir.Unop (d, op, a) -> Ir.Unop (Hashtbl.find def_map d, op, a)
    | Ir.Load (d, ty, a) -> Ir.Load (Hashtbl.find def_map d, ty, a)
    | i -> i
  in
  let body = List.map (fun i -> remap_def (Ir.map_uses_instr subst i)) region in
  k.Ir.blocks.(0).Ir.instrs <- body;
  Ir.add_func m k;
  k

(* Scan one block for an outlining opportunity. Returns true on change. *)
let try_block (mgr : Cgcm_analysis.Manager.t) (m : Ir.modul) (f : Ir.func)
    (bi : int) : bool =
  let b = f.Ir.blocks.(bi) in
  let instrs = Array.of_list b.Ir.instrs in
  let n = Array.length instrs in
  (* positions of launches *)
  let launch_positions = ref [] in
  Array.iteri (fun i ins -> if is_launch ins then launch_positions := i :: !launch_positions) instrs;
  let launches = List.rev !launch_positions in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  let candidate_between (l1, l2) =
    (* region = simple instrs strictly between, skipping runtime calls *)
    let region = ref [] in
    let ok = ref true in
    for i = l1 + 1 to l2 - 1 do
      let ins = instrs.(i) in
      if is_runtime_call ins then ()
      else if is_simple ins then region := ins :: !region
      else ok := false
    done;
    let region = List.rev !region in
    let has_memory_op =
      List.exists (function Ir.Load _ | Ir.Store _ -> true | _ -> false) region
    in
    if
      !ok && region <> []
      && has_memory_op
      && List.length region <= default_max_insts
    then Some (l1, l2, region)
    else None
  in
  match List.find_map candidate_between (pairs launches) with
  | None -> false
  | Some (l1, l2, region) -> begin
    (* Anything that stays in the block and could use a region-defined
       register: the launches, the run-time calls between them, and
       everything after l2. *)
    let stays = ref [] in
    Array.iteri
      (fun i ins ->
        if (i > l1 && i < l2 && is_runtime_call ins) || i >= l2 then
          stays := ins :: !stays)
      instrs;
    ignore n;
    match partition_region f ~bi ~region ~stays:(List.rev !stays) with
    | None -> false
    | Some moved ->
      let name = Fmt.str "__glue_%s_%d" f.Ir.fname bi in
      let name =
        if Ir.find_func m name = None then name
        else Fmt.str "%s_%d" name (List.length m.Ir.funcs)
      in
      let live_ins = region_live_ins moved in
      let k = outline_region m ~host:f ~name moved live_ins in
      (* Wrap the new launch in management calls right away. *)
      let types = Cgcm_analysis.Manager.kernel_types mgr k in
      let managed =
        Comm_mgmt.manage_launch f types ~kernel:name ~trip:(Ir.imm 1)
          ~args:live_ins
      in
      (* Rebuild the block: drop the moved instructions and place the
         managed glue launch directly before l2. *)
      let out = ref [] in
      Array.iteri
        (fun i ins ->
          if i > l1 && i < l2 && List.memq ins moved then ()
          else if i = l2 then begin
            out := List.rev_append managed !out;
            out := ins :: !out
          end
          else out := ins :: !out)
        instrs;
      b.Ir.instrs <- List.rev !out;
      true
  end

(* The pass step: outline to convergence, per CPU function. *)
let step (mgr : Cgcm_analysis.Manager.t) : bool =
  let m = Cgcm_analysis.Manager.modul mgr in
  let any = ref false in
  List.iter
    (fun (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu then begin
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun bi _ ->
              if bi < Array.length f.Ir.blocks then
                if try_block mgr m f bi then begin
                  changed := true;
                  any := true
                end)
            f.Ir.blocks
        done
      end)
    m.Ir.funcs;
  !any
