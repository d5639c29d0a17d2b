(* Address-shape differential: the closure decoder evaluates a folded
   address chain of the form [global + Σ slotᵢ·scaleᵢ + k] as one
   closure, and every other chain term by term as the tree engine does.
   Each probe below is one chain shape, built with [Builder] into a
   kernel that loads through it (and, when the address is distinct per
   thread, stores through it too) and a host loop that reads the
   results back through chains of its own. Every engine must end each
   probe with the same fault and output, and agree to the bit on
   clocks, instruction counts and stats wherever their accounting
   agrees by design (see [check_probe]). The sharded leg (jobs > 1)
   lives in [Test_parallel]. *)

module Ir = Cgcm_ir.Ir
module Builder = Cgcm_ir.Builder
module Verifier = Cgcm_ir.Verifier
module Interp = Cgcm_interp.Interp
module Cost_model = Cgcm_gpusim.Cost_model
module Mem_backend = Cgcm_runtime.Mem_backend

let check = Alcotest.check

(* The kernel's integer leaves: [i] is the thread index; [j], [l], [q]
   are int slots that are never folded (each has several uses); [gb] and
   [sb] hold the addresses of [G] and [S] in an int slot, [gh] and [sh]
   those of [G] and [S] plus that of [H]; [p] and [pf] are boxed
   parameters, an int and a float. *)
type leaves = {
  i : Ir.value;
  j : Ir.value;  (* i + 1 *)
  l : Ir.value;  (* 2i *)
  q : Ir.value;  (* 7 - i *)
  gb : Ir.value;
  sb : Ir.value;
  gh : Ir.value;
  sh : Ir.value;
  p : Ir.value;  (* 3 *)
  pf : Ir.value;  (* 1.5 *)
}

(* A chain over base [base] (a global, or an int slot holding one);
   [other] is a second global. *)
type shape = Builder.t -> leaves -> base:Ir.value -> other:Ir.value -> Ir.value

let add b x y = Builder.binop b Ir.Add x y
let sub b x y = Builder.binop b Ir.Sub x y
let mul b x y = Builder.binop b Ir.Mul x y
let imm = Ir.imm
let big k = Ir.Imm_int k

(* name, whether the address is distinct per thread (then the kernel
   also stores through it), the shape *)
let probes : (string * bool * shape) list =
  [
    (* flattened *)
    ("0 terms: immediates only", false, fun b _ ~base:_ ~other:_ -> add b (imm 16) (imm 8));
    ("0 terms + global", false, fun b _ ~base ~other:_ -> add b base (imm 24));
    ("1 term: slot + k", false, fun b lv ~base:_ ~other:_ -> add b lv.gb (imm 40));
    ("1 term + global", true, fun b lv ~base ~other:_ -> add b base (mul b lv.i (imm 8)));
    ( "2 terms",
      true,
      fun b lv ~base:_ ~other:_ -> add b (add b lv.gb (mul b lv.i (imm 8))) (imm 8) );
    ( "3 terms",
      true,
      fun b lv ~base:_ ~other:_ ->
        add b (add b lv.gb (mul b lv.i (imm 16))) (mul b lv.l (imm 8)) );
    ( "global + 2 terms (A[i][k])",
      true,
      fun b lv ~base ~other:_ -> add b (add b base (mul b lv.i (imm 64))) (mul b lv.j (imm 8)) );
    ( "global + 3 terms",
      true,
      fun b lv ~base ~other:_ ->
        add b
          (add b (add b base (mul b lv.i (imm 8))) (mul b lv.j (imm 16)))
          (mul b lv.q (imm 8)) );
    ( "negative scale: minus a product",
      true,
      fun b lv ~base ~other:_ -> sub b (add b base (imm 504)) (mul b lv.i (imm 8)) );
    ( "negative scale: minus a negation",
      true,
      fun b lv ~base ~other:_ -> sub b base (sub b (imm 0) (mul b lv.i (imm 8))) );
    ( "negative scale: slot minus slot",
      true,
      fun b lv ~base ~other:_ -> add b base (mul b (sub b (imm 7) lv.q) (imm 8)) );
    ("constant left of mul", true, fun b lv ~base ~other:_ -> add b base (mul b (imm 8) lv.i));
    ( "mul of a sum",
      true,
      fun b lv ~base ~other:_ -> add b base (mul b (add b lv.i (imm 2)) (imm 8)) );
    ( "repeated slot merges",
      true,
      fun b lv ~base ~other:_ -> add b (add b base (mul b lv.i (imm 8))) (mul b lv.i (imm 8)) );
    ( "cancelled slot",
      false,
      fun b lv ~base ~other:_ ->
        add b (add b base (mul b (sub b lv.i lv.i) (imm 8))) (imm 32) );
    ( "wrapping scales",
      true,
      fun b lv ~base ~other:_ ->
        add b base (mul b (add b (mul b lv.i (imm 2)) (big 0x2000000000000000L)) (imm 4)) );
    ( "wrapping constants",
      true,
      fun b lv ~base ~other:_ ->
        let k = big 0x7FFFFFFFFFFFFFF0L in
        add b
          (add b (add b base (mul b (mul b lv.i (big 0x4000000000000000L)) (imm 4)))
             (mul b lv.i (imm 8)))
          (sub b (add b k (imm 16)) k) );
    (* fallbacks *)
    ( "boxed int leaf",
      true,
      fun b lv ~base ~other:_ -> add b (add b base (mul b lv.p (imm 8))) (mul b lv.i (imm 8)) );
    ("boxed float leaf", true, fun b lv ~base ~other:_ -> add b base (mul b lv.pf (imm 8)));
    ( "two globals",
      true,
      fun b lv ~base ~other -> add b (sub b (add b base other) other) (mul b lv.i (imm 8)) );
    ( "subtracted global",
      true,
      fun b lv ~base:_ ~other -> add b (sub b lv.gh other) (mul b lv.i (imm 8)) );
    ( "register x register",
      true,
      fun b lv ~base ~other:_ ->
        add b (add b base (mul b lv.l (imm 8))) (mul b (mul b lv.i lv.j) (imm 8)) );
    ( "four terms",
      true,
      fun b lv ~base ~other:_ ->
        add b
          (add b (add b (add b base (mul b lv.i (imm 8))) (mul b lv.j (imm 8)))
             (mul b lv.l (imm 8)))
          (mul b lv.q (imm 8)) );
  ]

let threads = 8
let words = 128

(* Kernel [k]: thread [i] loads through the chain over [G] into
   [H[i]]; a distinct-per-thread chain also stores into [S] through the
   same shape over [S]; every leaf is stored into [H[8 + i]] so none of
   them folds. Then [main] maps the globals, launches, copies them back
   and prints a weighted sum of [H] and [S], reading each through a
   chain whose slot is a promoted alloca. *)
let probe_module ((_, distinct, shape) : string * bool * shape) : Ir.modul =
  let m =
    {
      Ir.globals =
        [
          {
            Ir.gname = "G";
            gsize = 8 * words;
            ginit = Ir.I64s (Array.init words (fun k -> Int64.of_int (1000 + (7 * k))));
            gread_only = false;
          };
          { Ir.gname = "H"; gsize = 8 * 2 * threads; ginit = Ir.Zeroed; gread_only = false };
          { Ir.gname = "S"; gsize = 8 * words; ginit = Ir.Zeroed; gread_only = false };
        ];
      funcs = [];
    }
  in
  let b = Builder.create ~name:"k" ~nargs:3 ~kind:Ir.Kernel in
  let i = Ir.Reg 0 in
  let lv =
    {
      i;
      j = add b i (imm 1);
      l = mul b i (imm 2);
      q = sub b (imm 7) i;
      gb = add b (Ir.Global "G") (imm 0);
      sb = add b (Ir.Global "S") (imm 0);
      gh = add b (Ir.Global "G") (Ir.Global "H");
      sh = add b (Ir.Global "S") (Ir.Global "H");
      p = Ir.Reg 1;
      pf = Ir.Reg 2;
    }
  in
  let v = Builder.load b Ir.I64 (shape b lv ~base:(Ir.Global "G") ~other:(Ir.Global "H")) in
  Builder.store b Ir.I64 (add b (Ir.Global "H") (mul b i (imm 8))) v;
  if distinct then
    Builder.store b Ir.I64
      (shape b { lv with gb = lv.sb; gh = lv.sh } ~base:(Ir.Global "S") ~other:(Ir.Global "H"))
      (add b v i);
  let keep =
    List.fold_left (add b) lv.j [ lv.l; lv.q; lv.gb; lv.sb; lv.gh; lv.sh ]
  in
  Builder.store b Ir.I64 (add b (Ir.Global "H") (mul b (add b i (imm threads)) (imm 8))) keep;
  Builder.ret b None;
  Ir.add_func m (Builder.finish b);
  let b = Builder.create ~name:"main" ~nargs:0 ~kind:Ir.Cpu in
  let each f = List.iter f [ "G"; "H"; "S" ] in
  each (fun g -> ignore (Builder.call b "cgcm.map" [ Ir.Global g ]));
  Builder.launch b ~kernel:"k" ~trip:(imm threads) ~args:[ imm 3; Ir.Imm_float 1.5 ];
  each (fun g -> Builder.call_void b "cgcm.unmap" [ Ir.Global g ]);
  each (fun g -> Builder.call_void b "cgcm.release" [ Ir.Global g ]);
  (* sum += (k + 1) * g[k] for k < n, k a promoted alloca *)
  let print_sum g n =
    let k = Builder.alloca b ~name:"k" (imm 8) and sum = Builder.alloca b ~name:"sum" (imm 8) in
    Builder.store b Ir.I64 k (imm 0);
    Builder.store b Ir.I64 sum (imm 0);
    let head = Builder.new_block b and body = Builder.new_block b and exit = Builder.new_block b in
    Builder.br b head;
    Builder.position_at b head;
    Builder.cbr b (Builder.binop b Ir.Lt (Builder.load b Ir.I64 k) (imm n)) body exit;
    Builder.position_at b body;
    let x = Builder.load b Ir.I64 (add b (Ir.Global g) (mul b (Builder.load b Ir.I64 k) (imm 8))) in
    let w = add b (Builder.load b Ir.I64 k) (imm 1) in
    Builder.store b Ir.I64 sum (add b (Builder.load b Ir.I64 sum) (mul b w x));
    Builder.store b Ir.I64 k (add b (Builder.load b Ir.I64 k) (imm 1));
    Builder.br b head;
    Builder.position_at b exit;
    Builder.call_void b "print_i64" [ Builder.load b Ir.I64 sum ]
  in
  print_sum "H" (2 * threads);
  print_sum "S" words;
  Builder.ret b (Some (imm 0));
  Ir.add_func m (Builder.finish b);
  Verifier.verify_modul m;
  m

(* Sharding engages at two iterations, so the sharded leg really runs
   the probes' kernels across domains. *)
let cost = { Cost_model.default with Cost_model.par_min_trip = 2 }

let config ?(jobs = 1) ~backend engine =
  {
    Interp.default_config with
    Interp.engine;
    jobs;
    backend;
    cost;
    trace = true;
    profile = true;
  }

let run config m =
  let r, e = Interp.run_to_fault ~config m in
  (r, Option.map Printexc.to_string e)

(* [probe] under the closure engine at [jobs] (default 1) against the
   tree engine, on both backends. Every run must end the same way, with
   the same output. Where the engines' accounting agrees by design, all
   of the result must be bit-identical: under the explicit backend, when
   the probe runs to the end. The tree engine's allocas are real memory,
   so paged page traffic is engine-relative; there a sharded run is held
   to the closure engine at jobs 1 instead. A mid-kernel fault stops the
   tree engine mid-run, where the closure engine has already counted the
   run. *)
let check_probe ?(jobs = 1) ((name, _, _) as probe) =
  let m = probe_module probe in
  List.iter
    (fun (bname, backend) ->
      let where = Printf.sprintf "%s/%s" name bname in
      let r0, e0 = run (config ~backend Interp.Tree_walk) m in
      let r, e = run (config ~jobs ~backend Interp.Closures) m in
      check Alcotest.(option string) (where ^ " fault") e0 e;
      check Alcotest.string (where ^ " output") r0.Interp.output r.Interp.output;
      check Alcotest.int64 (where ^ " exit code") r0.Interp.exit_code r.Interp.exit_code;
      match (e0, backend) with
      | Some _, _ -> ()
      | None, Mem_backend.Explicit -> Test_prepared.check_same where r0 r
      | None, Mem_backend.Paged ->
        if jobs <> 1 then
          Test_prepared.check_same where (fst (run (config ~backend Interp.Closures) m)) r)
    [ ("explicit", Mem_backend.Explicit); ("paged", Mem_backend.Paged) ]

(* The probes that should run to the end do; the immediate address is
   wild, and the float leaf faults with the tree engine's
   type-confusion message. *)
let test_outcomes () =
  List.iter
    (fun ((name, _, _) as probe) ->
      let _, e = run (config ~backend:Mem_backend.Explicit Interp.Closures) (probe_module probe) in
      match (name, e) with
      | "boxed float leaf", Some e ->
        check Alcotest.string name
          (Printexc.to_string (Interp.Exec_error "type confusion: float used as integer/pointer"))
          e
      | "0 terms: immediates only", Some e ->
        check Alcotest.bool (name ^ ": " ^ e) true (Test_fastpath.contains ~affix:"wild pointer" e)
      | ("boxed float leaf" | "0 terms: immediates only"), None -> Alcotest.failf "%s: no fault" name
      | _, None -> ()
      | _, Some e -> Alcotest.failf "%s: %s" name e)
    probes

let tests =
  Alcotest.test_case "probes end as expected" `Quick test_outcomes
  :: List.map
       (fun ((name, _, _) as probe) ->
         Alcotest.test_case ("closures vs tree: " ^ name) `Quick (fun () ->
             check_probe probe))
       probes
