(* Small IR rewriting helpers shared by the transformation passes. *)

module Ir = Cgcm_ir.Ir
module Loops = Cgcm_analysis.Loops

(* Replace instruction lists block by block; [f] maps one instruction to a
   sequence. *)
let expand_instrs (func : Ir.func) f =
  Array.iteri
    (fun bi (b : Ir.block) -> b.Ir.instrs <- List.concat_map (f bi) b.Ir.instrs)
    func.Ir.blocks

(* Substitute values (e.g. redirect a register) everywhere. *)
let substitute_values (func : Ir.func) subst =
  Array.iter
    (fun (b : Ir.block) ->
      b.Ir.instrs <- List.map (Ir.map_uses_instr subst) b.Ir.instrs;
      b.Ir.term <-
        (match b.Ir.term with
        | Ir.Br t -> Ir.Br t
        | Ir.Cbr (v, t1, t2) -> Ir.Cbr (subst v, t1, t2)
        | Ir.Ret v -> Ir.Ret (Option.map subst v)))
    func.Ir.blocks

(* Redirect an edge [from_ -> to_] to [to_'] in the terminator. *)
let redirect_edge (func : Ir.func) ~from_ ~to_ ~to_' =
  let b = func.Ir.blocks.(from_) in
  b.Ir.term <-
    (match b.Ir.term with
    | Ir.Br t when t = to_ -> Ir.Br to_'
    | Ir.Cbr (v, t1, t2) ->
      Ir.Cbr (v, (if t1 = to_ then to_' else t1), if t2 = to_ then to_' else t2)
    | t -> t)

(* Split the edge [from_ -> to_] with a fresh block holding [instrs]. *)
let split_edge (func : Ir.func) ~from_ ~to_ ~instrs =
  let nb = Ir.add_block func { Ir.instrs; term = Ir.Br to_ } in
  redirect_edge func ~from_ ~to_ ~to_':nb;
  nb

(* Create a preheader: a block that is the unique non-loop predecessor
   of loop [li]'s header. Returns its index, or None if the header is
   the function entry. *)
let make_preheader (func : Ir.func) (loops : Loops.t) ~li =
  let l = loops.Loops.loops.(li) in
  if l.Loops.header = 0 then None
  else begin
    let entries = Loops.entry_edges func l in
    match entries with
    | [] -> None  (* unreachable loop *)
    | _ ->
      let header = l.Loops.header in
      let ph = Ir.add_block func { Ir.instrs = []; term = Ir.Br header } in
      List.iter
        (fun p -> redirect_edge func ~from_:p ~to_:header ~to_':ph)
        entries;
      Some ph
  end

(* Append instructions at the end of a block (before the terminator). *)
let append_instrs (func : Ir.func) b instrs =
  let blk = func.Ir.blocks.(b) in
  blk.Ir.instrs <- blk.Ir.instrs @ instrs
