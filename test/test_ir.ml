(* Tests for the IR: builder, CFG utilities, dominance, verifier. *)

module Ir = Cgcm_ir.Ir
module Builder = Cgcm_ir.Builder
module Cfg = Cgcm_ir.Cfg
module Dominance = Cgcm_ir.Dominance
module Verifier = Cgcm_ir.Verifier
module Printer = Cgcm_ir.Printer

let check = Alcotest.check

let empty_modul () = { Ir.globals = []; funcs = [] }

(* A diamond: b0 -> b1/b2 -> b3 *)
let diamond () =
  let b = Builder.create ~name:"diamond" ~nargs:1 ~kind:Ir.Cpu in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let b3 = Builder.new_block b in
  Builder.cbr b (Ir.Reg 0) b1 b2;
  Builder.position_at b b1;
  let x = Builder.binop b Ir.Add (Ir.Reg 0) (Ir.imm 1) in
  Builder.br b b3;
  Builder.position_at b b2;
  let y = Builder.binop b Ir.Mul (Ir.Reg 0) (Ir.imm 2) in
  Builder.br b b3;
  Builder.position_at b b3;
  Builder.ret b (Some (Ir.Reg 0));
  ignore (x, y);
  Builder.finish b

let test_builder_diamond () =
  let f = diamond () in
  check Alcotest.int "blocks" 4 (Array.length f.Ir.blocks);
  check Alcotest.int "b1 instrs" 1 (List.length f.Ir.blocks.(1).Ir.instrs);
  check Alcotest.(list int) "succs of 0" [ 1; 2 ] (Cfg.succs f 0);
  check Alcotest.(list int) "succs of 3" [] (Cfg.succs f 3)

let test_preds_rpo () =
  let f = diamond () in
  let preds = Cfg.preds f in
  check Alcotest.(list int) "preds of 3" [ 2; 1 ] preds.(3);
  let rpo = Cfg.reverse_postorder f in
  check Alcotest.int "rpo head" 0 (List.hd rpo);
  check Alcotest.int "rpo length" 4 (List.length rpo);
  check Alcotest.int "rpo last" 3 (List.nth rpo 3)

let test_dominance () =
  let f = diamond () in
  let dom = Dominance.compute f in
  check Alcotest.bool "0 dom 3" true (Dominance.dominates dom 0 3);
  check Alcotest.bool "1 !dom 3" false (Dominance.dominates dom 1 3);
  check Alcotest.bool "self" true (Dominance.dominates dom 1 1);
  check Alcotest.int "idom of 3" 0 (Dominance.idom dom 3)

let test_verifier_accepts () =
  let m = empty_modul () in
  Ir.add_func m (diamond ());
  Verifier.verify_modul m

let expect_ill_formed f =
  match f () with
  | exception Verifier.Ill_formed _ -> ()
  | _ -> Alcotest.fail "expected Ill_formed"

let test_verifier_bad_branch () =
  let m = empty_modul () in
  let f = diamond () in
  f.Ir.blocks.(1).Ir.term <- Ir.Br 99;
  Ir.add_func m f;
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let test_verifier_double_def () =
  let m = empty_modul () in
  let b = Builder.create ~name:"dd" ~nargs:0 ~kind:Ir.Cpu in
  Builder.insert b (Ir.Binop (0, Ir.Add, Ir.imm 1, Ir.imm 2));
  Builder.insert b (Ir.Binop (0, Ir.Add, Ir.imm 3, Ir.imm 4));
  Builder.ret b None;
  let f = Builder.finish b in
  f.Ir.nregs <- 1;
  Ir.add_func m f;
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let test_verifier_use_before_def () =
  let m = empty_modul () in
  let b = Builder.create ~name:"ubd" ~nargs:0 ~kind:Ir.Cpu in
  let _ = Builder.binop b Ir.Add (Ir.Reg 1) (Ir.imm 1) in
  (* reg 1 defined after use *)
  let _ = Builder.binop b Ir.Add (Ir.imm 1) (Ir.imm 2) in
  Builder.ret b None;
  Ir.add_func m (Builder.finish b);
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let test_verifier_def_not_dominating () =
  (* def in one arm of a diamond, use in the join *)
  let m = empty_modul () in
  let b = Builder.create ~name:"ndom" ~nargs:1 ~kind:Ir.Cpu in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let b3 = Builder.new_block b in
  Builder.cbr b (Ir.Reg 0) b1 b2;
  Builder.position_at b b1;
  let x = Builder.binop b Ir.Add (Ir.Reg 0) (Ir.imm 1) in
  Builder.br b b3;
  Builder.position_at b b2;
  Builder.br b b3;
  Builder.position_at b b3;
  Builder.ret b (Some x);
  Ir.add_func m (Builder.finish b);
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let test_verifier_unknown_global () =
  let m = empty_modul () in
  let b = Builder.create ~name:"g" ~nargs:0 ~kind:Ir.Cpu in
  let _ = Builder.load b Ir.I64 (Ir.Global "nope") in
  Builder.ret b None;
  Ir.add_func m (Builder.finish b);
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let test_verifier_launch_rules () =
  let m = empty_modul () in
  (* a kernel *)
  let kb = Builder.create ~name:"k" ~nargs:1 ~kind:Ir.Kernel in
  Builder.ret kb None;
  Ir.add_func m (Builder.finish kb);
  (* launching an unknown kernel is rejected *)
  let b = Builder.create ~name:"bad" ~nargs:0 ~kind:Ir.Cpu in
  Builder.launch b ~kernel:"nokernel" ~trip:(Ir.imm 1) ~args:[];
  Builder.ret b None;
  Ir.add_func m (Builder.finish b);
  expect_ill_formed (fun () -> Verifier.verify_modul m);
  (* direct call of a kernel is rejected *)
  let m2 = empty_modul () in
  let kb = Builder.create ~name:"k" ~nargs:1 ~kind:Ir.Kernel in
  Builder.ret kb None;
  Ir.add_func m2 (Builder.finish kb);
  let b = Builder.create ~name:"bad2" ~nargs:0 ~kind:Ir.Cpu in
  Builder.call_void b "k" [ Ir.imm 0 ];
  Builder.ret b None;
  Ir.add_func m2 (Builder.finish b);
  expect_ill_formed (fun () -> Verifier.verify_modul m2)

let test_verifier_global_init_size () =
  let m = empty_modul () in
  m.Ir.globals <-
    [ { Ir.gname = "g"; gsize = 8; ginit = Ir.I64s [| 1L; 2L |];
        gread_only = false } ];
  expect_ill_formed (fun () -> Verifier.verify_modul m)

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_printer_roundtrippable_names () =
  let f = diamond () in
  let s = Printer.func_to_string f in
  check Alcotest.bool "mentions b3" true (contains_sub s "b3:");
  check Alcotest.bool "mentions cbr" true (contains_sub s "cbr %r0, b1, b2");
  check Alcotest.bool "mentions mul" true (contains_sub s "mul %r0, 2")

let test_helpers () =
  let i = Ir.Binop (5, Ir.Add, Ir.Reg 1, Ir.imm 2) in
  check Alcotest.(option int) "def" (Some 5) (Ir.def_of_instr i);
  check Alcotest.int "uses" 2 (List.length (Ir.uses_of_instr i));
  let l = Ir.Launch { kernel = "k"; trip = Ir.Reg 0; args = [ Ir.Reg 1 ] } in
  check Alcotest.(option int) "launch no def" None (Ir.def_of_instr l);
  check Alcotest.int "launch uses" 2 (List.length (Ir.uses_of_instr l))

(* Adding a block is amortised constant time: building a chain of 2n
   blocks allocates about twice the minor-heap words of n blocks, where
   copying the block arrays per added block makes it about four times.
   n stays small enough that every array fits the minor heap (larger
   ones go straight to the major heap, where this count would not see
   them); the count is deterministic. *)
let chain_words n =
  let w0 = Gc.minor_words () in
  let b = Builder.create ~name:"chain" ~nargs:1 ~kind:Ir.Cpu in
  for _ = 1 to n do
    let next = Builder.new_block b in
    ignore (Builder.binop b Ir.Add (Ir.Reg 0) (Ir.imm 1));
    Builder.br b next;
    Builder.position_at b next
  done;
  Builder.ret b None;
  let f = Builder.finish b in
  let w = Gc.minor_words () -. w0 in
  check Alcotest.int "blocks" (n + 1) (Array.length f.Ir.blocks);
  w

let test_builder_linear () =
  let n = 120 in
  let ratio = chain_words (2 * n) /. chain_words n in
  if ratio > 2.5 then
    Alcotest.failf "2n blocks allocate %.2f times the words of n (bound 2.5)" ratio

let tests =
  [
    Alcotest.test_case "builder diamond" `Quick test_builder_diamond;
    Alcotest.test_case "builder: new_block is amortised constant time" `Quick
      test_builder_linear;
    Alcotest.test_case "preds + rpo" `Quick test_preds_rpo;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "verifier accepts" `Quick test_verifier_accepts;
    Alcotest.test_case "verifier: bad branch" `Quick test_verifier_bad_branch;
    Alcotest.test_case "verifier: double def" `Quick test_verifier_double_def;
    Alcotest.test_case "verifier: use before def" `Quick
      test_verifier_use_before_def;
    Alcotest.test_case "verifier: non-dominating def" `Quick
      test_verifier_def_not_dominating;
    Alcotest.test_case "verifier: unknown global" `Quick
      test_verifier_unknown_global;
    Alcotest.test_case "verifier: launch rules" `Quick test_verifier_launch_rules;
    Alcotest.test_case "verifier: global init size" `Quick
      test_verifier_global_init_size;
    Alcotest.test_case "printer output" `Quick test_printer_roundtrippable_names;
    Alcotest.test_case "instr helpers" `Quick test_helpers;
  ]
