(* Structural well-formedness checks for IR modules. Run after the frontend
   and after every transformation pass; a pass that produces ill-formed IR
   is a compiler bug, so failures raise.

   Global and function names are resolved through tables built once per
   module, and each function is checked over flat arrays, so a check
   allocates per function, not per block or per instruction. *)

open Ir

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

module Names = Hashtbl.Make (String)

(* Names resolve to their first occurrence, as [Ir.find_global] and
   [Ir.find_func] do; each table maps a name to its first index. *)
type tables = { globals : int Names.t; funcs : (int * fkind) Names.t }

let tables (m : modul) =
  let globals = Names.create 16 and funcs = Names.create 16 in
  List.iteri
    (fun k (g : global) ->
      if not (Names.mem globals g.gname) then Names.add globals g.gname k)
    m.globals;
  List.iteri
    (fun k (f : func) ->
      if not (Names.mem funcs f.fname) then
        Names.add funcs f.fname (k, f.fkind))
    m.funcs;
  { globals; funcs }

(* The register an instruction defines, or [no_def]: [Ir.def_of_instr]
   without the option. No register index can be [min_int]. *)
let no_def = min_int

let def_reg = function
  | Binop (d, _, _, _) | Unop (d, _, _) | Load (d, _, _) | Alloca (d, _, _) -> d
  | Call (Some d, _, _) -> d
  | Call (None, _, _) | Store _ | Launch _ -> no_def

let check_func tbl (f : func) =
  let nblocks = Array.length f.blocks in
  if nblocks = 0 then fail "%s: no blocks" f.fname;
  (* Branch targets in range. *)
  Array.iteri
    (fun bi block ->
      let target s =
        if s < 0 || s >= nblocks then
          fail "%s: block b%d branches to nonexistent b%d" f.fname bi s
      in
      match block.term with
      | Br s -> target s
      | Cbr (_, s1, s2) ->
        target s1;
        if s2 <> s1 then target s2
      | Ret _ -> ())
    f.blocks;
  (* Single assignment, register indices in range. *)
  let defined = Array.make f.nregs false in
  for a = 0 to f.nargs - 1 do
    defined.(a) <- true
  done;
  let def_block = Array.make f.nregs (-1) in
  let launches = ref false in
  Array.iteri
    (fun bi block ->
      List.iter
        (fun i ->
          (match i with Launch _ -> launches := true | _ -> ());
          let d = def_reg i in
          if d <> no_def then begin
            if d < 0 || d >= f.nregs then
              fail "%s: register %%r%d out of range" f.fname d;
            if defined.(d) then fail "%s: %%r%d defined twice" f.fname d;
            defined.(d) <- true;
            def_block.(d) <- bi
          end)
        block.instrs)
    f.blocks;
  (* Every used register has a reaching definition: its defining block
     dominates the use (same-block ordering is checked separately). Each
     register has one defining block, walked once, so [passed] marks the
     definitions already seen in the block being walked. Only a use in
     another block than its definition asks the dominator tree, which
     many functions never build. *)
  let reach = Cfg.reachable f in
  let dom = lazy (Dominance.compute f) in
  let passed = Array.make f.nregs false in
  let bi = ref 0 in
  let check_use where v =
    let bi = !bi in
    match v with
    | Reg r ->
      if r < 0 || r >= f.nregs then
        fail "%s: use of out-of-range %%r%d in %s" f.fname r where;
      if not defined.(r) then
        fail "%s: use of undefined %%r%d in %s" f.fname r where;
      if r >= f.nargs then begin
        let db = def_block.(r) in
        if db = bi then begin
          if not passed.(r) then
            fail "%s: %%r%d used before its definition in b%d" f.fname r bi
        end
        else if not (Dominance.dominates (Lazy.force dom) db bi) then
          fail "%s: def of %%r%d (b%d) does not dominate use in b%d" f.fname
            r db bi
      end
    | Imm_int _ | Imm_float _ -> ()
    | Global g ->
      if not (Names.mem tbl.globals g) then
        fail "%s: reference to unknown global @%s" f.fname g
  in
  let instr_use = check_use "instr" in
  Array.iteri
    (fun b block ->
      bi := b;
      if reach.(b) then begin
        List.iter
          (fun i ->
            iter_uses_instr instr_use i;
            (match i with
            | Call (_, name, _) -> (
              match Names.find tbl.funcs name with
              | _, Kernel -> fail "%s: direct call to kernel %s" f.fname name
              | _, Cpu -> ()
              | exception Not_found ->
                ()  (* intrinsics are resolved by the interpreter *))
            | Launch { kernel; _ } -> (
              match Names.find tbl.funcs kernel with
              | _, Kernel -> ()
              | _, Cpu -> fail "%s: launch of non-kernel %s" f.fname kernel
              | exception Not_found ->
                fail "%s: launch of unknown kernel %s" f.fname kernel)
            | _ -> ());
            let d = def_reg i in
            if d <> no_def then passed.(d) <- true)
          block.instrs;
        match block.term with
        | Cbr (v, _, _) | Ret (Some v) -> check_use "terminator" v
        | Br _ | Ret None -> ()
      end)
    f.blocks;
  (* Kernels must not launch other kernels and must not contain allocas
     whose address could be stored (the paper forbids storing pointers in
     GPU functions; the frontend enforces the source-level restriction,
     here we only forbid nested launches). *)
  if f.fkind = Kernel && !launches then
    fail "%s: kernel launches a kernel" f.fname

let verify_func (m : modul) (f : func) = check_func (tables m) f

let verify_modul (m : modul) =
  let tbl = tables m in
  List.iteri
    (fun k (g : global) ->
      if Names.find tbl.globals g.gname <> k then
        fail "duplicate global %s" g.gname;
      let isz = init_size g.ginit in
      if isz > g.gsize then
        fail "global %s: initialiser (%d bytes) larger than size (%d)" g.gname
          isz g.gsize;
      match g.ginit with
      | Ptrs names ->
        Array.iter
          (fun n ->
            (* "" initialises to null *)
            if n <> "" && not (Names.mem tbl.globals n) then
              fail "global %s: initialiser references unknown global %s" g.gname n)
          names
      | _ -> ())
    m.globals;
  List.iteri
    (fun k (f : func) ->
      if fst (Names.find tbl.funcs f.fname) <> k then
        fail "duplicate function %s" f.fname;
      check_func tbl f)
    m.funcs
