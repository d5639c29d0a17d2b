(* Golden tests for the failure taxonomy: Cgcm_core.Diagnostics maps
   every surfaced exception to one exit code and one rendered message,
   and the CLI prints exactly that. These pin the exact text and codes,
   so a reworded diagnostic or a renumbered exit code is a deliberate,
   reviewed change — not drift. *)

module Diagnostics = Cgcm_core.Diagnostics
module Pipeline = Cgcm_core.Pipeline
module Errors = Cgcm_support.Errors

let check = Alcotest.check

let classify_exn f =
  match f () with
  | _ -> Alcotest.fail "expected an exception"
  | exception e -> (
    match Diagnostics.classify e with
    | Some (code, msg) -> (code, msg)
    | None -> Alcotest.failf "unclassified: %s" (Printexc.to_string e))

let golden name (expect_code, expect_msg) f =
  let code, msg = classify_exn f in
  check Alcotest.int (name ^ ": exit code") expect_code code;
  check Alcotest.string (name ^ ": message") expect_msg msg

(* ------------------------------------------------------------------ *)
(* Exit-code numbering is part of the CLI contract. *)

let test_exit_codes () =
  check Alcotest.int "usage" 2 Diagnostics.exit_usage;
  check Alcotest.int "runtime" 3 Diagnostics.exit_runtime;
  check Alcotest.int "device" 4 Diagnostics.exit_device;
  check Alcotest.int "exec" 5 Diagnostics.exit_exec;
  check Alcotest.int "memory" 6 Diagnostics.exit_memory;
  check Alcotest.int "internal" 7 Diagnostics.exit_internal;
  check Alcotest.int "sanitizer" 8 Diagnostics.exit_sanitizer;
  check Alcotest.int "overloaded" 9 Diagnostics.exit_overloaded;
  check Alcotest.int "deadline" 10 Diagnostics.exit_deadline;
  check Alcotest.int "circuit open" 11 Diagnostics.exit_circuit_open;
  check Alcotest.int "socket busy" 12 Diagnostics.exit_socket_busy;
  check Alcotest.int "request timeout" 13 Diagnostics.exit_request_timeout

(* ------------------------------------------------------------------ *)
(* End-to-end: bad input through the real pipeline. *)

let test_frontend_diagnostics () =
  golden "lex" (2, "cgcm: lex error at 1:14: unexpected character '$'")
    (fun () -> Pipeline.compile "int main() { $ }");
  golden "parse" (2, "cgcm: parse error at 1:11: expected type, found '{'")
    (fun () -> Pipeline.compile "int main( {");
  golden "sema" (2, "cgcm: semantic error: unknown variable 'x'") (fun () ->
      Pipeline.compile "int main() { x = 1; return 0; }");
  golden "doall"
    ( 2,
      "cgcm: parallelization error: main: 'parallel' loop cannot be \
       outlined: loop update is not canonical" )
    (fun () ->
      Pipeline.compile
        "global int g[8]; int main() { parallel for (int i = 0; i < 8; i = i \
         * 2 + 1) { g[i] = i; } return 0; }");
  golden "bad IR" (2, "cgcm: bad IR: expected '(' in @wat") (fun () ->
      Cgcm_ir.Reader.parse_verified "func @wat")

let test_dynamic_diagnostics () =
  golden "exec" (5, "cgcm: execution error: integer division by zero")
    (fun () ->
      Pipeline.run Pipeline.Sequential
        "int main() { int z = 0; print(1 / z); return 0; }");
  golden "memory" (6, "cgcm: memory fault: host: wild pointer 0x1c3500")
    (fun () ->
      Pipeline.run Pipeline.Sequential
        "global int g[4]; int main() { int* p = (int*) g; print(p[100000]); \
         return 0; }")

(* ------------------------------------------------------------------ *)
(* Structured errors, rendered from constructed values so every field
   placement in the template is pinned. *)

let snap =
  {
    Errors.u_base = 0x1000;
    u_size = 64;
    u_refcount = 1;
    u_arr_refcount = 0;
    u_epoch = 3;
    u_devptr = Some 0x400100;
    u_global = Some "Y";
  }

let test_runtime_error_text () =
  let e =
    {
      Errors.op = "release";
      addr = Some 0x1000;
      reason = "refcount underflow";
      unit_ = Some snap;
      device = None;
      alloc_map = [ snap ];
    }
  in
  golden "runtime"
    ( 3,
      "cgcm runtime error in release (pointer 0x1000): refcount underflow\n\
      \  unit base=0x1000 size=64 refcount=1 arrayRefcount=0 epoch=3 \
       devptr=0x400100 global=Y\n\
      \  allocation map (1 units):\n\
      \    unit base=0x1000 size=64 refcount=1 arrayRefcount=0 epoch=3 \
       devptr=0x400100 global=Y" )
    (fun () -> raise (Cgcm_runtime.Runtime.Runtime_error e))

let test_device_fault_text () =
  let fault =
    Errors.Oom
      { op = "cuMemAlloc"; requested = 128; live = 512; capacity = 640;
        injected = false }
  in
  golden "device"
    ( 4,
      "cgcm: unrecovered device fault: device out of memory in cuMemAlloc: \
       requested 128 bytes, 512 live of 640 capacity" )
    (fun () -> raise (Errors.Device_error fault))

let test_violation_text () =
  let v =
    {
      Errors.v_kind = Errors.Stale_host_read;
      v_unit = snap;
      v_addr = 0x1010;
      v_offset = 16;
      v_instr = "load 8 B @0x1010 in main";
      v_detail = "the device copy holds a newer value";
      v_history = [ "epoch 2: map -> refcount 1"; "epoch 3: launch k" ];
    }
  in
  golden "violation"
    ( 8,
      "cgcm sanitizer: stale-host-read at 0x1010 (byte 16 of unit global Y)\n\
      \  offending instruction: load 8 B @0x1010 in main\n\
      \  unit base=0x1000 size=64 refcount=1 arrayRefcount=0 epoch=3 \
       devptr=0x400100 global=Y\n\
      \  detail: the device copy holds a newer value\n\
      \  version history (most recent first):\n\
      \    epoch 3: launch k\n\
      \    epoch 2: map -> refcount 1" )
    (fun () -> raise (Errors.Coherence_violation v))

let test_verifier_text () =
  golden "verifier" (7, "cgcm: internal error (ill-formed IR): boom")
    (fun () -> raise (Cgcm_ir.Verifier.Ill_formed "boom"))

(* The serve daemon's typed rejections: shed at admission, deadline via
   the fuel budget, tenant circuit breaker. *)
let test_serve_rejection_text () =
  golden "overloaded"
    ( 9,
      "cgcm serve: overloaded (queue): queue 64 of 64, 4096 warm bytes of \
       65536 device capacity; request shed" )
    (fun () ->
      raise
        (Errors.Serve_overloaded
           {
             Errors.ov_queue_depth = 64;
             ov_queue_limit = 64;
             ov_warm_bytes = 4096;
             ov_capacity = 65536;
             ov_reason = "queue";
           }));
  golden "overloaded unbounded"
    ( 9,
      "cgcm serve: overloaded (device-mem): queue 3 of 16, 512 warm bytes \
       of unbounded device capacity; request shed" )
    (fun () ->
      raise
        (Errors.Serve_overloaded
           {
             Errors.ov_queue_depth = 3;
             ov_queue_limit = 16;
             ov_warm_bytes = 512;
             ov_capacity = max_int;
             ov_reason = "device-mem";
           }));
  golden "deadline"
    ( 10,
      "cgcm serve: deadline exceeded: request used up its budget of 20000 \
       fuel" )
    (fun () -> raise (Errors.Serve_deadline { dl_deadline = 20000 }));
  golden "circuit open"
    ( 11,
      "cgcm serve: circuit open for tenant alice after 3 consecutive \
       failures; only degraded (CPU-fallback) execution is available" )
    (fun () ->
      raise (Errors.Serve_circuit_open { co_tenant = "alice"; co_failures = 3 }))

(* Lifecycle refusals: a busy socket at startup, a wedged daemon at
   request time. *)
let test_serve_lifecycle_text () =
  golden "socket busy"
    ( 12,
      "cgcm serve: socket /tmp/cgcm.sock is answered by a live daemon; \
       refusing to start (stop it, or pick another --socket path)" )
    (fun () ->
      raise (Errors.Serve_socket_busy { sb_path = "/tmp/cgcm.sock" }));
  golden "request timeout"
    ( 13,
      "cgcm request: no reply from the daemon at /tmp/cgcm.sock within 250 \
       ms; it may be wedged or dead" )
    (fun () ->
      raise
        (Errors.Serve_request_timeout
           { rt_socket = "/tmp/cgcm.sock"; rt_timeout_ms = 250 }))

let test_unknown_exceptions_pass_through () =
  check Alcotest.bool "Not_found unclassified" true
    (Diagnostics.classify Not_found = None)

(* ------------------------------------------------------------------ *)
(* Every verifier, lexer and parser message, pinned with the input that
   raises it. Each verifier case is textual IR (see [Cgcm_ir.Reader]);
   the last few hold several faults at once, so the order in which the
   verifier checks them is pinned too. Each source case records the
   message with its line and column. *)

(* The textual IR cannot spell two functions of one name. *)
let dup_function = "<two functions named f>"

let ir_of_case text =
  if text = dup_function then begin
    let m =
      Cgcm_ir.Reader.parse "func f(0 args, 0 regs) {\nb0:\n  ret\n}\n"
    in
    m.Cgcm_ir.Ir.funcs <- m.Cgcm_ir.Ir.funcs @ m.Cgcm_ir.Ir.funcs;
    m
  end
  else Cgcm_ir.Reader.parse text

let verifier_pins =
  [
    ("func f(0 args, 0 regs) {\n}\n",
     "f: no blocks");
    ("func f(0 args, 0 regs) {\nb0:\n  br b3\n}\n",
     "f: block b0 branches to nonexistent b3");
    ("func f(0 args, 1 regs) {\nb0:\n  %r5 = add 1, 2\n  ret\n}\n",
     "f: register %r5 out of range");
    ("func f(0 args, 1 regs) {\nb0:\n  %r0 = add 1, 2\n  %r0 = add 3, 4\n  ret\n}\n",
     "f: %r0 defined twice");
    ("func f(0 args, 1 regs) {\nb0:\n  %r0 = add %r7, 1\n  ret\n}\n",
     "f: use of out-of-range %r7 in instr");
    ("func f(0 args, 1 regs) {\nb0:\n  ret %r9\n}\n",
     "f: use of out-of-range %r9 in terminator");
    ("func f(0 args, 2 regs) {\nb0:\n  %r0 = add %r1, 1\n  ret\n}\n",
     "f: use of undefined %r1 in instr");
    ("func f(0 args, 2 regs) {\nb0:\n  %r0 = add %r1, 1\n  %r1 = add 1, 2\n  ret\n}\n",
     "f: %r1 used before its definition in b0");
    ("func f(1 args, 2 regs) {\nb0:\n  cbr %r0, b1, b2\nb1:\n  %r1 = add %r0, 1\n  br b3\nb2:\n  br b3\nb3:\n  ret %r1\n}\n",
     "f: def of %r1 (b1) does not dominate use in b3");
    ("func f(0 args, 1 regs) {\nb0:\n  %r0 = load.i64 @nope\n  ret\n}\n",
     "f: reference to unknown global @nope");
    ("func g(0 args, 0 regs) {\nb0:\n  ret\n}\n\nfunc f(0 args, 0 regs) {\nb0:\n  launch g<1>()\n  ret\n}\n",
     "f: launch of non-kernel g");
    ("func f(0 args, 0 regs) {\nb0:\n  launch nok<1>()\n  ret\n}\n",
     "f: launch of unknown kernel nok");
    ("kernel k(1 args, 1 regs) {\nb0:\n  ret\n}\n\nfunc f(0 args, 0 regs) {\nb0:\n  call k(0)\n  ret\n}\n",
     "f: direct call to kernel k");
    ("kernel k(1 args, 1 regs) {\nb0:\n  ret\n}\n\nkernel k2(1 args, 1 regs) {\nb0:\n  launch k<1>(0)\n  ret\n}\n",
     "k2: kernel launches a kernel");
    ("global g : 8 bytes = zeroed\nglobal g : 8 bytes = zeroed\n",
     "duplicate global g");
    ("global g : 8 bytes = i64{1, 2}\n",
     "global g: initialiser (16 bytes) larger than size (8)");
    ("global p : 8 bytes = ptrs{@nope}\n",
     "global p: initialiser references unknown global nope");
    (dup_function,
     "duplicate function f");
    ("func f(0 args, 1 regs) {\nb0:\n  %r0 = add 1, 2\n  %r0 = add 3, 4\n  br b7\n}\n",
     "f: block b0 branches to nonexistent b7");
    ("func f(0 args, 2 regs) {\nb0:\n  ret\nb1:\n  %r0 = add %r1, 1\n  launch nok<1>()\n  ret\n}\n",
     "OK");
    ("func f(0 args, 1 regs) {\nb0:\n  launch nok<%r0>()\n  ret\n}\n",
     "f: use of undefined %r0 in instr");
    ("func f(0 args, 1 regs) {\nb0:\n  %r0 = add 1, 2\n  br b1\nb1:\n  %r0 = load.i64 @nope\n  ret %r3\n}\n",
     "f: %r0 defined twice");
    ("global p : 8 bytes = ptrs{@nope}\nglobal q : 16 bytes = i64{1, 2, 3}\n\nfunc f(0 args, 0 regs) {\n}\n",
     "global p: initialiser references unknown global nope");
    ("global g : 8 bytes = zeroed\n\nfunc f(0 args, 2 regs) {\nb0:\n  store.i64 @g, %r1\n  %r1 = load.i64 @h\n  ret\n}\n",
     "f: %r1 used before its definition in b0");
    ("kernel k(1 args, 1 regs) {\nb0:\n  ret\nb1:\n  launch k<1>(0)\n  ret\n}\n",
     "k: kernel launches a kernel");
    ("kernel k(1 args, 2 regs) {\nb0:\n  launch k<1>(%r1)\n  ret\n}\n",
     "k: use of undefined %r1 in instr");
  ]

let frontend_pins =
  [
    ("int main() {\n  /* oops\n  return 0;\n}",
     "lex 2:3 unterminated comment");
    ("int main() { return 99999999999999999999; }",
     "lex 1:21 bad integer literal 99999999999999999999");
    ("global char s[] = \"abc",
     "lex 1:19 unterminated string literal");
    ("global char s[] = \"abc\\",
     "lex 1:19 unterminated escape");
    ("global char s[] = \"a\\qb\";",
     "lex 1:19 unknown escape \\q");
    ("global char s[] = \"ab\ncd\";",
     "lex 1:19 newline in string literal");
    ("int main() { $ }",
     "lex 1:14 unexpected character '$'");
    ("/* a\n   b */  int main() {\n\treturn @;\n}",
     "lex 3:9 unexpected character '@'");
    ("// c\nint main() { return 0 }",
     "parse 2:23 expected ';', found '}'");
    ("int main() { int = 1; return 0; }",
     "parse 1:18 expected identifier, found '='");
    ("int main() { struct S s; return 0; }",
     "parse 1:23 struct 'S' is not defined (definition must precede use)");
    ("int main( {",
     "parse 1:11 expected type, found '{'");
    ("int main() { int a[x]; return 0; }",
     "parse 1:20 expected integer literal, found 'x'");
    ("int main() { int a[0]; return 0; }",
     "parse 1:21 array dimension must be positive");
    ("int main() { return ); }",
     "parse 1:21 expected expression, found ')'");
    ("int main() { int a[2] = 1; return 0; }",
     "parse 1:23 array declarations cannot have initialisers");
    ("int main() { parallel while (1) {} return 0; }",
     "parse 1:23 'parallel' must precede 'for'");
    ("global int g = -x;",
     "parse 1:17 bad initialiser item 'x'");
    ("global int g = ;",
     "parse 1:16 bad initialiser item ';'");
    ("struct S { int a; };\nstruct S { int b; };",
     "parse 2:10 struct 'S' redefined");
    ("struct S { int a; float a; };",
     "parse 1:26 duplicate field 'a' in struct S");
    ("struct S { };",
     "parse 1:14 struct 'S' has no fields");
    ("int main() {",
     "parse 1:13 expected expression, found '<eof>'");
    ("int main() { return 1 +; }",
     "parse 1:24 expected expression, found ';'");
    ("int main() { launch k<1 >(); return 0; }",
     "OK");
    ("int main() { x = (int) ; return 0; }",
     "parse 1:24 expected expression, found ';'");
    ("global int g[2] = { 1, 2 ;",
     "parse 1:26 expected '}', found ';'");
    ("int f(int a, ) { return 0; }",
     "parse 1:14 expected type, found ')'");
    ("int main() { a.1 = 2; return 0; }",
     "parse 1:15 expected ';', found '0.1'");
    ("int main() { for (;;) return 0 }",
     "parse 1:32 expected ';', found '}'");
    ("int main() { if (1) return 0; else }",
     "parse 1:36 expected expression, found '}'");
    ("int main() { return sizeof(3); }",
     "parse 1:28 expected type, found '3'");
  ]

let test_verifier_messages_pinned () =
  List.iter
    (fun (text, expect) ->
      let got =
        match Cgcm_ir.Verifier.verify_modul (ir_of_case text) with
        | () -> "OK"
        | exception Cgcm_ir.Verifier.Ill_formed msg -> msg
      in
      check Alcotest.string text expect got)
    verifier_pins

let test_frontend_messages_pinned () =
  List.iter
    (fun (src, expect) ->
      let got =
        match Cgcm_frontend.Parser.parse_string src with
        | _ -> "OK"
        | exception Cgcm_frontend.Lexer.Lex_error (msg, p) ->
          Printf.sprintf "lex %d:%d %s" p.Cgcm_frontend.Lexer.line
            p.Cgcm_frontend.Lexer.col msg
        | exception Cgcm_frontend.Parser.Parse_error (msg, p) ->
          Printf.sprintf "parse %d:%d %s" p.Cgcm_frontend.Lexer.line
            p.Cgcm_frontend.Lexer.col msg
      in
      check Alcotest.string src expect got)
    frontend_pins

let tests =
  [
    Alcotest.test_case "exit codes 2-13" `Quick test_exit_codes;
    Alcotest.test_case "frontend diagnostics" `Quick test_frontend_diagnostics;
    Alcotest.test_case "dynamic diagnostics" `Quick test_dynamic_diagnostics;
    Alcotest.test_case "runtime error text" `Quick test_runtime_error_text;
    Alcotest.test_case "device fault text" `Quick test_device_fault_text;
    Alcotest.test_case "coherence violation text" `Quick test_violation_text;
    Alcotest.test_case "verifier text" `Quick test_verifier_text;
    Alcotest.test_case "serve rejection text" `Quick test_serve_rejection_text;
    Alcotest.test_case "serve lifecycle text" `Quick test_serve_lifecycle_text;
    Alcotest.test_case "unknown exceptions pass through" `Quick
      test_unknown_exceptions_pass_through;
    Alcotest.test_case "verifier messages pinned" `Quick
      test_verifier_messages_pinned;
    Alcotest.test_case "lexer and parser messages pinned" `Quick
      test_frontend_messages_pinned;
  ]
