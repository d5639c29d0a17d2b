(* Domain safety of compilation. The sharded serve daemon compiles on
   several domains at once, so a compile must share no mutable state
   with any other: every printed module must equal the sequential
   compile, and no new module-level mutable state may appear in lib/. *)

module Pipeline = Cgcm_core.Pipeline
module Registry = Cgcm_progs.Registry

let check = Alcotest.check

let print_optimized source =
  Cgcm_ir.Printer.modul_to_string
    (Pipeline.compile ~level:Pipeline.Optimized source).Pipeline.modul

(* Two domains each compile the 24 suite programs 8 times. *)
let test_concurrent_compile () =
  let expected =
    List.map (fun p -> print_optimized p.Registry.source) Registry.all
  in
  let worker () =
    List.init 8 (fun _ ->
        List.map
          (fun p ->
            match print_optimized p.Registry.source with
            | ir -> Ok ir
            | exception e -> Error (Printexc.to_string e))
          Registry.all)
  in
  let domains = List.init 2 (fun _ -> Domain.spawn worker) in
  let rounds = List.concat_map Domain.join domains in
  let raised = ref [] and differed = ref [] in
  List.iter
    (List.iter2
       (fun (p : Registry.program) (want, got) ->
         match got with
         | Error e -> raised := (p.Registry.name ^ ": " ^ e) :: !raised
         | Ok ir -> if ir <> want then differed := p.Registry.name :: !differed)
       Registry.all)
    (List.map (fun round -> List.combine expected round) rounds);
  check Alcotest.(list string) "no concurrent compile raises" [] !raised;
  check Alcotest.(list string) "every concurrent compile matches" [] !differed

(* ------------------------------------------------------------------ *)
(* Lint: module-level mutable state in lib/                            *)

(* Each survivor says why it cannot race. *)
let allowlist : (string * string) list = []

let rec files_with_suffix suffix dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then acc @ files_with_suffix suffix path
      else if Filename.check_suffix name suffix then acc @ [ path ]
      else acc)
    [] (Sys.readdir dir)

let ml_files = files_with_suffix ".ml"

(* A top-level binding whose right-hand side allocates a [ref], a
   table, an array, a byte buffer or a queue, in the structure or any
   nested module structure. A buffer reused across requests belongs to
   the instance that owns the requests, never to the module. *)
let mutable_bindings source =
  let open Parsetree in
  let rec allocates e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> allocates e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | [ "ref" ]
      | [ "Hashtbl"; "create" ]
      | [ "Array"; ("make" | "init") ]
      | [ "Bytes"; ("create" | "make") ]
      | [ "Buffer"; "create" ]
      | [ "Queue"; "create" ] ->
        true
      | _ -> false)
    | _ -> false
  in
  let rec name p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> name p
    | _ -> None
  in
  let rec structure items = List.concat_map item items
  and item i =
    match i.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.filter_map
        (fun vb -> if allocates vb.pvb_expr then name vb.pvb_pat else None)
        vbs
    | Pstr_module { pmb_expr; _ } -> modul pmb_expr
    | Pstr_recmodule mbs -> List.concat_map (fun mb -> modul mb.pmb_expr) mbs
    | _ -> []
  and modul m =
    match m.pmod_desc with
    | Pmod_structure s -> structure s
    | Pmod_constraint (m, _) -> modul m
    | _ -> []
  in
  structure (Parse.implementation (Lexing.from_string source))

(* dune runtest runs in _build/default/test; dune exec from the root. *)
let lib_dir () =
  List.find
    (fun d -> Sys.file_exists (Filename.concat d "core/pipeline.ml"))
    [ "../lib"; "lib" ]

let test_no_module_state () =
  let root = lib_dir () in
  let prefix = String.length root + 1 in
  let found =
    List.concat_map
      (fun path ->
        let rel = String.sub path prefix (String.length path - prefix) in
        let ic = open_in_bin path in
        let source = really_input_string ic (in_channel_length ic) in
        close_in ic;
        List.map (fun n -> rel ^ ":" ^ n) (mutable_bindings source))
      (ml_files root)
  in
  check Alcotest.(list string) "module-level mutable state is allowlisted"
    (List.sort compare (List.map fst allowlist))
    (List.sort compare found)

let test_lint_catches () =
  check Alcotest.(list string) "top-level and nested bindings are caught"
    [ "a"; "b"; "c" ]
    (mutable_bindings
       "let a = ref 0\n\
        let f () = let local = ref 0 in !local\n\
        module M = struct let b : (int, int) Hashtbl.t = Hashtbl.create 8 end\n\
        let c = Array.make 4 0\n\
        let d = Atomic.make 0");
  check Alcotest.(list string) "buffers, queues and built arrays are caught"
    [ "e"; "f"; "g"; "h"; "i" ]
    (mutable_bindings
       "let e = Bytes.create 8192\n\
        let f = Bytes.make 1 'w'\n\
        module N = struct let g = Buffer.create 256 end\n\
        let h = Array.init 4 Fun.id\n\
        let i : int Queue.t = Queue.create ()\n\
        let per_call () = Bytes.create 8192\n\
        let s = Bytes.to_string Bytes.empty")

(* ------------------------------------------------------------------ *)
(* Lint: every [val] in lib/ has a caller outside its own module        *)

(* Each survivor says why it stays exported without a caller. *)
let export_allowlist : (string * string) list = []

(* The [val]s an interface declares, each with the module that
   qualifies it at a call site: the interface's own module, or the
   innermost nested signature. *)
let interface_vals ~modname source =
  let open Parsetree in
  let rec signature m items = List.concat_map (item m) items
  and item m i =
    match i.psig_desc with
    | Psig_value vd -> [ (m, vd.pval_name.txt) ]
    | Psig_module { pmd_name = { txt = Some n; _ }; pmd_type; _ } ->
      modtype n pmd_type
    | Psig_recmodule mds ->
      List.concat_map
        (fun md ->
          match md.pmd_name.txt with
          | Some n -> modtype n md.pmd_type
          | None -> [])
        mds
    | _ -> []
  and modtype m t =
    match t.pmty_desc with Pmty_signature s -> signature m s | _ -> []
  in
  signature modname (Parse.interface (Lexing.from_string source))

(* The ["Module.name"] values an implementation refers to. A path is
   named by its last module, after following [module X = ...] aliases,
   so [Cgcm_serve.Server.run], [S.run] under [module S = Server] and
   [run] inside [open Server] or [Server.(...)] all read
   ["Server.run"]. Opens count for the whole file, so a bare name can
   only be over-credited, never missed. *)
let qualified_refs source =
  let open Parsetree in
  let aliases = Hashtbl.create 16
  and opens = Hashtbl.create 8
  and bare = Hashtbl.create 256
  and refs = Hashtbl.create 256 in
  let rec last = function
    | Longident.Lident m -> Some m
    | Ldot (_, m) -> Some m
    | Lapply _ -> None
  and module_ident m =
    match m.pmod_desc with
    | Pmod_ident { txt; _ } -> last txt
    | Pmod_constraint (m, _) -> module_ident m
    | _ -> None
  in
  let alias name m =
    match (name, module_ident m) with
    | Some x, Some target -> Hashtbl.replace aliases x target
    | _ -> ()
  in
  let rec resolve depth m =
    match Hashtbl.find_opt aliases m with
    | Some target when depth < 16 && target <> m -> resolve (depth + 1) target
    | _ -> m
  in
  let idents = ref [] in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      module_binding =
        (fun self mb ->
          alias mb.pmb_name.txt mb.pmb_expr;
          super.module_binding self mb);
      open_declaration =
        (fun self od ->
          Option.iter
            (fun m -> Hashtbl.replace opens m ())
            (module_ident od.popen_expr);
          super.open_declaration self od);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> idents := txt :: !idents
          | Pexp_letmodule ({ txt; _ }, m, _) -> alias txt m
          | _ -> ());
          super.expr self e);
    }
  in
  it.structure it (Parse.implementation (Lexing.from_string source));
  List.iter
    (function
      | Longident.Lident n -> Hashtbl.replace bare n ()
      | Ldot (p, n) ->
        Option.iter
          (fun m -> Hashtbl.replace refs (resolve 0 m ^ "." ^ n) ())
          (last p)
      | Lapply _ -> ())
    !idents;
  Hashtbl.iter
    (fun m () ->
      let m = resolve 0 m in
      Hashtbl.iter (fun n () -> Hashtbl.replace refs (m ^ "." ^ n) ()) bare)
    opens;
  refs

(* [dead_exports interfaces implementations]: every ["path.mli:name"]
   that no implementation but the interface's own [path.ml] refers to
   as [Module.name]. *)
let dead_exports interfaces implementations =
  let impls =
    List.map (fun (path, source) -> (path, qualified_refs source))
      implementations
  in
  List.concat_map
    (fun (mli, source) ->
      let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      let modname =
        String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli"))
      in
      List.filter_map
        (fun (m, v) ->
          if
            List.exists
              (fun (path, refs) -> path <> own && Hashtbl.mem refs (m ^ "." ^ v))
              impls
          then None
          else Some (mli ^ ":" ^ v))
        (interface_vals ~modname source))
    interfaces

let read_file path =
  let ic = open_in_bin path in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  source

(* This file names the allowlisted exports, so it is no caller. *)
let test_no_dead_exports () =
  let root = Filename.dirname (lib_dir ()) in
  let prefix = String.length root + 1 in
  let load suffix dirs =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun path ->
            let rel = String.sub path prefix (String.length path - prefix) in
            if rel = "test/test_domain_safety.ml" then None
            else Some (rel, read_file path))
          (files_with_suffix suffix (Filename.concat root d)))
      dirs
  in
  let found =
    dead_exports (load ".mli" [ "lib" ])
      (load ".ml" [ "lib"; "bin"; "bench"; "test"; "ledger" ])
  in
  check Alcotest.(list string) "every export has a caller or is allowlisted"
    (List.sort compare (List.map fst export_allowlist))
    (List.sort compare found)

let test_export_lint_catches () =
  check Alcotest.(list string) "unused and self-only exports are caught"
    [ "a.mli:dead"; "a.mli:self_only" ]
    (dead_exports
       [
         ( "a.mli",
           "val used : int\n\
            val dead : int\n\
            val self_only : int\n\
            module M : sig val inner : int end" );
       ]
       [
         ("a.ml", "let used = 1 let dead = 2 let self_only = 3 let inner = 4");
         ("b.ml", "let x = A.used + A.M.inner (* deadline *)");
       ]);
  check Alcotest.(list string)
    "a bare word is no caller; aliases and opens are"
    [ "lib/c.mli:word" ]
    (dead_exports
       [
         ( "lib/c.mli",
           "val word : int\n\
            val aliased : int\n\
            val opened : int\n\
            val local : int\n\
            module N : sig val nested : int end" );
       ]
       [
         ("lib/c.ml", "let word = 1 let aliased = 2 let opened = 3");
         ("d.ml", "let word = 0 let y = word + Lib.C.N.nested");
         ("e.ml", "module K = Lib.C\nmodule J = K\nlet z = J.aliased");
         ("f.ml", "open Lib.C\nlet w = opened + Lib.C.(local)");
       ])

let tests =
  [
    Alcotest.test_case "two domains compile the suite identically" `Slow
      test_concurrent_compile;
    Alcotest.test_case "lint: no new module-level mutable state in lib/"
      `Quick test_no_module_state;
    Alcotest.test_case "lint: finds refs, tables and arrays" `Quick
      test_lint_catches;
    Alcotest.test_case "lint: every export in lib/ has an outside caller"
      `Quick test_no_dead_exports;
    Alcotest.test_case "lint: finds exports without an outside caller" `Quick
      test_export_lint_catches;
  ]
