(* Classic backward liveness over virtual registers. The communication-
   management pass derives kernel live-ins directly from launch operands
   (the DOALL outliner made them explicit), but glue-kernel outlining and
   several tests need real liveness information. *)

module Ir = Cgcm_ir.Ir

module ISet = Set.Make (Int)

type t = { live_in : ISet.t array; live_out : ISet.t array }

let regs_of_values vs =
  List.fold_left
    (fun acc v -> match v with Ir.Reg r -> ISet.add r acc | _ -> acc)
    ISet.empty vs

let compute (f : Ir.func) : t =
  let n = Array.length f.Ir.blocks in
  (* use/def per block *)
  let use = Array.make n ISet.empty in
  let def = Array.make n ISet.empty in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let u = ref ISet.empty and d = ref ISet.empty in
      List.iter
        (fun i ->
          let uses = regs_of_values (Ir.uses_of_instr i) in
          u := ISet.union !u (ISet.diff uses !d);
          match Ir.def_of_instr i with
          | Some r -> d := ISet.add r !d
          | None -> ())
        b.Ir.instrs;
      let tuses = regs_of_values (Ir.uses_of_term b.Ir.term) in
      u := ISet.union !u (ISet.diff tuses !d);
      use.(bi) <- !u;
      def.(bi) <- !d)
    f.Ir.blocks;
  let live_in = Array.make n ISet.empty in
  let live_out = Array.make n ISet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> ISet.union acc live_in.(s))
          ISet.empty
          (Cgcm_ir.Cfg.succs f bi)
      in
      let inn = ISet.union use.(bi) (ISet.diff out def.(bi)) in
      if not (ISet.equal out live_out.(bi) && ISet.equal inn live_in.(bi))
      then begin
        live_out.(bi) <- out;
        live_in.(bi) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

let live_in t b = t.live_in.(b)

let live_out t b = t.live_out.(b)
