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
   [Hashtbl.create] table or an [Array.make] array, in the structure or
   any nested module structure. *)
let mutable_bindings source =
  let open Parsetree in
  let rec allocates e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> allocates e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | [ "ref" ] | [ "Hashtbl"; "create" ] | [ "Array"; "make" ] -> true
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
        let d = Atomic.make 0")

(* ------------------------------------------------------------------ *)
(* Lint: every [val] in lib/ has a caller outside its own module        *)

(* Each survivor says why it stays exported without a caller. *)
let export_allowlist : (string * string) list = []

(* The [val] names an interface declares, nested signatures included. *)
let interface_vals source =
  let open Parsetree in
  let rec signature items = List.concat_map item items
  and item i =
    match i.psig_desc with
    | Psig_value vd -> [ vd.pval_name.txt ]
    | Psig_module { pmd_type; _ } -> modtype pmd_type
    | Psig_recmodule mds -> List.concat_map (fun md -> modtype md.pmd_type) mds
    | _ -> []
  and modtype m =
    match m.pmty_desc with Pmty_signature s -> signature s | _ -> []
  in
  signature (Parse.interface (Lexing.from_string source))

(* The identifier words of a source text. *)
let words source =
  let seen = Hashtbl.create 1024 in
  let word c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let n = String.length source in
  let i = ref 0 in
  while !i < n do
    if word source.[!i] then begin
      let j = ref !i in
      while !j < n && word source.[!j] do
        incr j
      done;
      Hashtbl.replace seen (String.sub source !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  seen

(* [dead_exports interfaces implementations]: every ["path.mli:name"]
   whose name appears as a word in no implementation but the
   interface's own [path.ml]. *)
let dead_exports interfaces implementations =
  let impls =
    List.map (fun (path, source) -> (path, words source)) implementations
  in
  List.concat_map
    (fun (mli, source) ->
      let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      List.filter_map
        (fun v ->
          if
            List.exists
              (fun (path, ws) -> path <> own && Hashtbl.mem ws v)
              impls
          then None
          else Some (mli ^ ":" ^ v))
        (interface_vals source))
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
