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
let allowlist =
  [
    ( "serve/chaos.ml:reference_tbl",
      "memoizes the oracle in the chaos driver, the fork parent; it never \
       runs on a daemon's worker domain" );
  ]

let rec ml_files dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then acc @ ml_files path
      else if Filename.check_suffix name ".ml" then acc @ [ path ]
      else acc)
    [] (Sys.readdir dir)

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

let tests =
  [
    Alcotest.test_case "two domains compile the suite identically" `Slow
      test_concurrent_compile;
    Alcotest.test_case "lint: no new module-level mutable state in lib/"
      `Quick test_no_module_state;
    Alcotest.test_case "lint: finds refs, tables and arrays" `Quick
      test_lint_catches;
  ]
