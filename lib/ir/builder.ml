(* Imperative function builder used by the frontend lowering and by tests
   that construct IR by hand. Blocks, and each block's instructions (in
   reverse), accumulate in doubling buffers, so adding a block is
   amortised constant time; [finish] writes them into the function. The
   insertion point may move freely between blocks. *)

open Ir

type t = {
  func : func;
  mutable cur : int;  (* current block index *)
  mutable blocks : block array;  (* the first [nblocks] are the function's *)
  mutable rev : instr list array;  (* per-block instructions, reversed *)
  mutable nblocks : int;
}

let empty_block () = { instrs = []; term = Ret None }

let create ~name ~nargs ~kind =
  let func = { fname = name; nargs; nregs = nargs; blocks = [||]; fkind = kind } in
  { func; cur = 0; blocks = [| empty_block () |]; rev = [| [] |]; nblocks = 1 }

let fresh t = fresh_reg t.func

let new_block t =
  let n = t.nblocks in
  if n = Array.length t.blocks then begin
    let blocks = Array.make (2 * n) t.blocks.(0) and rev = Array.make (2 * n) [] in
    Array.blit t.blocks 0 blocks 0 n;
    Array.blit t.rev 0 rev 0 n;
    t.blocks <- blocks;
    t.rev <- rev
  end;
  t.blocks.(n) <- empty_block ();
  t.nblocks <- n + 1;
  n

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

let set_term t tm = t.blocks.(t.cur).term <- tm

let br t b = set_term t (Br b)

let cbr t v b1 b2 = set_term t (Cbr (v, b1, b2))

let ret t v = set_term t (Ret v)

let finish t =
  let blocks = Array.sub t.blocks 0 t.nblocks in
  Array.iteri (fun i b -> b.instrs <- List.rev t.rev.(i)) blocks;
  t.func.blocks <- blocks;
  t.func
