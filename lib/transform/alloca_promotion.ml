(* Alloca promotion (Section 5.2).

   Map promotion cannot hoist a mapping above the function that owns the
   local variable being mapped: the allocation unit dies with the frame.
   Alloca promotion preallocates such locals in the *caller's* stack frame
   and passes their address down as an extra parameter, so the map
   operations can climb higher in the call graph.

   Like the paper's implementation we only promote out of non-recursive
   functions, and only fixed-size stack slots that escape to kernels (the
   ones communication management flagged for declareAlloca). As in C, a
   program that relied on its locals being fresh garbage per call could
   observe the reuse; CGC programs initialise locals before use. *)

module Ir = Cgcm_ir.Ir
module Callgraph = Cgcm_analysis.Callgraph

(* Append one parameter to [f]; the new parameter's register is the old
   [nargs], so every existing register >= nargs is shifted up by one. *)
let add_param (f : Ir.func) : int =
  let shift_reg r = if r >= f.Ir.nargs then r + 1 else r in
  let shift_val = function Ir.Reg r -> Ir.Reg (shift_reg r) | v -> v in
  let shift_def i =
    match i with
    | Ir.Binop (d, op, a, b) -> Ir.Binop (shift_reg d, op, a, b)
    | Ir.Unop (d, op, a) -> Ir.Unop (shift_reg d, op, a)
    | Ir.Load (d, ty, a) -> Ir.Load (shift_reg d, ty, a)
    | Ir.Alloca (d, size, info) -> Ir.Alloca (shift_reg d, size, info)
    | Ir.Call (d, name, args) -> Ir.Call (Option.map shift_reg d, name, args)
    | Ir.Store _ | Ir.Launch _ -> i
  in
  Array.iter
    (fun (b : Ir.block) ->
      b.Ir.instrs <-
        List.map (fun i -> shift_def (Ir.map_uses_instr shift_val i)) b.Ir.instrs;
      b.Ir.term <-
        (match b.Ir.term with
        | Ir.Br t -> Ir.Br t
        | Ir.Cbr (v, t1, t2) -> Ir.Cbr (shift_val v, t1, t2)
        | Ir.Ret v -> Ir.Ret (Option.map shift_val v)))
    f.Ir.blocks;
  let p = f.Ir.nargs in
  f.Ir.nargs <- f.Ir.nargs + 1;
  f.Ir.nregs <- f.Ir.nregs + 1;
  p

(* Promote one registered fixed-size alloca of [f] into all callers.
   Returns true on change. *)
let promote_one (m : Ir.modul) (cg : Callgraph.t) (f : Ir.func) : bool =
  if f.Ir.fname = "main" || f.Ir.fkind = Ir.Kernel then false
  else if Callgraph.is_recursive cg f.Ir.fname then false
  else begin
    let sites = Callgraph.call_sites cg f.Ir.fname in
    if sites = [] then false
    else begin
      (* find a registered, constant-size alloca *)
      let found = ref None in
      Ir.iter_instrs
        (fun _ i ->
          match i with
          | Ir.Alloca (d, (Ir.Imm_int _ as size), info)
            when info.Ir.aregistered && !found = None ->
            found := Some (d, size, info)
          | _ -> ())
        f;
      match !found with
      | None -> false
      | Some (d, size, info) ->
        (* remove the alloca from f *)
        Rewrite.expand_instrs f (fun _ i ->
            match i with
            | Ir.Alloca (d', _, _) when d' = d -> []
            | i -> [ i ]);
        (* add the parameter and redirect uses of the old register *)
        let p = add_param f in
        let d = if d >= f.Ir.nargs - 1 then d + 1 else d in
        Rewrite.substitute_values f (function
          | Ir.Reg r when r = d -> Ir.Reg p
          | v -> v);
        (* each caller: preallocate in its entry block, extend call sites *)
        let caller_names = List.sort_uniq compare (List.map fst sites) in
        List.iter
          (fun caller_name ->
            let caller = Ir.find_func_exn m caller_name in
            let slot = Ir.fresh_reg caller in
            let entry = caller.Ir.blocks.(0) in
            entry.Ir.instrs <-
              entry.Ir.instrs
              @ [
                  Ir.Alloca
                    ( slot,
                      size,
                      {
                        Ir.aname = info.Ir.aname ^ ".promoted";
                        aregistered = true;
                      } );
                ];
            Rewrite.expand_instrs caller (fun _ i ->
                match i with
                | Ir.Call (dst, name, args) when name = f.Ir.fname ->
                  [ Ir.Call (dst, name, args @ [ Ir.Reg slot ]) ]
                | i -> [ i ]))
          caller_names;
        true
    end
  end

(* The pass step: one sweep over the module. The pass framework's
   fixpoint combinator iterates it to convergence so promoted slots keep
   climbing the call graph. *)
let step (mgr : Cgcm_analysis.Manager.t) : bool =
  let open Cgcm_analysis in
  let m = Manager.modul mgr in
  let cg = Manager.callgraph mgr in
  List.fold_left
    (fun acc (f : Ir.func) ->
      if f.Ir.fkind = Ir.Cpu && promote_one m cg f then true else acc)
    false m.Ir.funcs
