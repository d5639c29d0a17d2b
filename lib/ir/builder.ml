(* Imperative function builder used by the frontend lowering and by tests
   that construct IR by hand. Instructions accumulate per block (in
   reverse); [finish] writes them into the function. The insertion point
   may move freely between blocks. *)

open Ir

type t = {
  func : func;
  mutable cur : int;  (* current block index *)
  mutable rev : instr list array;  (* per-block instructions, reversed *)
}

let create ~name ~nargs ~kind =
  let entry = { instrs = []; term = Ret None } in
  let func =
    { fname = name; nargs; nregs = nargs; blocks = [| entry |]; fkind = kind }
  in
  { func; cur = 0; rev = [| [] |] }

let func t = t.func

let fresh t = fresh_reg t.func

let new_block t =
  let b = add_block t.func { instrs = []; term = Ret None } in
  t.rev <- Array.append t.rev [| [] |];
  b

let position_at t b = t.cur <- b

let insert t i = t.rev.(t.cur) <- i :: t.rev.(t.cur)

let binop t op a b =
  let d = fresh t in
  insert t (Binop (d, op, a, b));
  Reg d

let unop t op a =
  let d = fresh t in
  insert t (Unop (d, op, a));
  Reg d

let load t ty a =
  let d = fresh t in
  insert t (Load (d, ty, a));
  Reg d

let store t ty a v = insert t (Store (ty, a, v))

let alloca t ?(name = "tmp") size =
  let d = fresh t in
  insert t (Alloca (d, size, { aname = name; aregistered = false }));
  Reg d

let call t name args =
  let d = fresh t in
  insert t (Call (Some d, name, args));
  Reg d

let call_void t name args = insert t (Call (None, name, args))

let launch t ~kernel ~trip ~args = insert t (Launch { kernel; trip; args })

let set_term t tm = t.func.blocks.(t.cur).term <- tm

let br t b = set_term t (Br b)

let cbr t v b1 b2 = set_term t (Cbr (v, b1, b2))

let ret t v = set_term t (Ret v)

let finish t =
  Array.iteri (fun i b -> b.instrs <- List.rev t.rev.(i)) t.func.blocks;
  t.func
