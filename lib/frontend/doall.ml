(* The "simple automatic DOALL parallelizer" of Section 6: finds loops
   whose iterations are independent, outlines each body into a GPU kernel,
   and replaces the loop with a kernel launch. CGCM itself is downstream
   of this pass and works the same for manual ('parallel'-annotated) and
   automatic parallelizations, as in the paper.

   The dependence test is intentionally simple (the paper's is too): it
   accepts loops whose memory writes are affine in the induction variable
   with per-iteration-disjoint footprints, whose scalar writes are all to
   iteration-private variables, and whose reads of written objects cannot
   conflict across iterations. Unlike CGCM proper, it needs static alias
   information: distinct declared arrays never alias, while accesses
   through pointer variables may alias anything. *)

open Ast

exception Doall_error of string

let error fmt = Fmt.kstr (fun s -> raise (Doall_error s)) fmt

type mode = Auto | Manual_only | Off

type kernel_info = {
  k_name : string;
  k_func : string;  (* enclosing CPU function *)
  k_manual : bool;
  (* Are all pointer live-ins distinct named allocation units with affine
     induction-variable indexing? This is the applicability condition
     shared by the named-regions and inspector-executor baselines. *)
  k_named_applicable : bool;
}

type loop_note = {
  l_func : string;
  l_outcome : [ `Parallelized of string | `Rejected of string ];
}

type report = { mutable kernels : kernel_info list; mutable notes : loop_note list }

(* ------------------------------------------------------------------ *)
(* Canonical loop shape                                                *)

type canon = {
  c_var : string;
  c_declared : bool;  (* induction variable declared in the init *)
  c_lo : expr;
  c_op : binop;  (* Blt | Ble | Bgt | Bge *)
  c_bound : expr;
  c_step : int;  (* positive *)
  c_dir : [ `Up | `Down ];
}

let recognize_canon (f : for_info) : (canon, string) result =
  let var_lo =
    match f.init with
    | Some (Decl (Int, x, Some lo)) -> Ok (x, lo, true)
    | Some (Assign (Ident x, lo)) -> Ok (x, lo, false)
    | _ -> Error "loop initialisation is not canonical"
  in
  match var_lo with
  | Error e -> Error e
  | Ok (x, lo, declared) -> (
    let cond =
      match f.cond with
      | Some (Binary (((Blt | Ble | Bgt | Bge) as op), Ident y, bound))
        when y = x ->
        Ok (op, bound)
      | _ -> Error "loop condition is not canonical"
    in
    match cond with
    | Error e -> Error e
    | Ok (op, bound) -> (
      let step =
        match f.update with
        | Some (Op_assign (Badd, Ident y, Int_lit c)) when y = x ->
          Ok (Int64.to_int c, `Up)
        | Some (Op_assign (Bsub, Ident y, Int_lit c)) when y = x ->
          Ok (Int64.to_int c, `Down)
        | Some (Assign (Ident y, Binary (Badd, Ident y', Int_lit c)))
          when y = x && y' = x ->
          Ok (Int64.to_int c, `Up)
        | Some (Assign (Ident y, Binary (Badd, Int_lit c, Ident y')))
          when y = x && y' = x ->
          Ok (Int64.to_int c, `Up)
        | Some (Assign (Ident y, Binary (Bsub, Ident y', Int_lit c)))
          when y = x && y' = x ->
          Ok (Int64.to_int c, `Down)
        | _ -> Error "loop update is not canonical"
      in
      match step with
      | Error e -> Error e
      | Ok (c, dir) ->
        if c <= 0 then Error "loop step must be a positive constant"
        else begin
          let dir_ok =
            match (dir, op) with
            | `Up, (Blt | Ble) -> true
            | `Down, (Bgt | Bge) -> true
            | _ -> false
          in
          if not dir_ok then Error "loop direction and condition disagree"
          else
            Ok
              {
                c_var = x;
                c_declared = declared;
                c_lo = lo;
                c_op = op;
                c_bound = bound;
                c_step = c;
                c_dir = dir;
              }
        end))

(* Number of iterations, as an AST expression evaluated at the launch. *)
let trip_expr (c : canon) : expr =
  let lo = c.c_lo and b = c.c_bound in
  let step = Int_lit (Int64.of_int c.c_step) in
  let diff =
    match (c.c_dir, c.c_op) with
    | `Up, Blt -> Binary (Bsub, b, lo)
    | `Up, Ble -> Binary (Badd, Binary (Bsub, b, lo), Int_lit 1L)
    | `Down, Bgt -> Binary (Bsub, lo, b)
    | `Down, Bge -> Binary (Badd, Binary (Bsub, lo, b), Int_lit 1L)
    | _ -> assert false
  in
  (* ceil(diff / step) *)
  Binary
    (Bdiv, Binary (Badd, diff, Int_lit (Int64.of_int (c.c_step - 1))), step)

(* ------------------------------------------------------------------ *)
(* Body inspection                                                     *)

type access = {
  a_root : string;
  a_write : bool;
  a_index : expr;  (* flat element index *)
  a_elem : int;  (* element size in bytes (unused by the test, kept for
                    diagnostics) *)
  a_inner : (string * (int * int)) list;  (* inner loops in scope *)
}

type inspection = {
  mutable accesses : access list;
  mutable assigned : string list;  (* scalars written in the body *)
  mutable declared : string list;  (* names declared inside the body *)
  mutable escapes : string list;  (* arrays/pointers used outside accesses *)
  mutable rejects : string list;  (* fatal reasons *)
}


(* Variable types visible at the loop, innermost first. *)
type tyenv = (string * cty) list

let lookup_ty (env : tyenv) x = List.assoc_opt x env

let flat_index env (e : expr) : (string * expr * int) option =
  (* Resolve a memory-access expression to (root, flat index, elem size). *)
  match e with
  | Index (base, i) -> (
    match base with
    | Ident x -> (
      match lookup_ty env x with
      | Some (Arr (t, [ _ ])) -> Some (x, i, sizeof t)
      | Some (Ptr t) -> Some (x, i, sizeof t)
      | Some (Arr (_, _ :: _ :: _)) -> None  (* partial indexing *)
      | _ -> None)
    | Index (Ident x, i1) -> (
      match lookup_ty env x with
      | Some (Arr (t, [ _; d2 ])) ->
        Some
          ( x,
            Binary (Badd, Binary (Bmul, i1, Int_lit (Int64.of_int d2)), i),
            sizeof t )
      | _ -> None)
    | Index (Index (Ident x, i1), i2) -> (
      match lookup_ty env x with
      | Some (Arr (t, [ _; d2; d3 ])) ->
        let open Int64 in
        let flat =
          Binary
            ( Badd,
              Binary
                ( Badd,
                  Binary (Bmul, i1, Int_lit (of_int (d2 * d3))),
                  Binary (Bmul, i2, Int_lit (of_int d3)) ),
              i )
        in
        Some (x, flat, sizeof t)
      | _ -> None)
    | _ -> None)
  | Deref (Ident x) -> (
    match lookup_ty env x with
    | Some (Ptr t) -> Some (x, Int_lit 0L, sizeof t)
    | _ -> None)
  | Deref (Binary (Badd, Ident x, i)) -> (
    match lookup_ty env x with
    | Some (Ptr t) -> Some (x, i, sizeof t)
    | _ -> None)
  | Deref (Binary (Badd, i, Ident x)) -> (
    match lookup_ty env x with
    | Some (Ptr t) -> Some (x, i, sizeof t)
    | _ -> None)
  | Field (Index (Ident x, i), f) -> (
    (* A[i].f over an array of structures: byte-granularity index into the
       single allocation unit (the paper's allocation-unit semantics) *)
    match lookup_ty env x with
    | Some (Arr (Struct s, [ _ ])) -> (
      match List.assoc_opt f s.s_fields with
      | Some (off, _) ->
        Some
          ( x,
            Binary
              ( Badd,
                Binary (Bmul, i, Int_lit (Int64.of_int s.s_size)),
                Int_lit (Int64.of_int off) ),
            1 )
      | None -> None)
    | _ -> None)
  | _ -> None

let is_mem_ty = function Arr _ | Ptr _ -> true | _ -> false

(* Walk the loop body collecting accesses, scalar writes, declarations and
   escapes. [env] is the type environment including body-local decls seen
   so far; [inner] tracks enclosing sequential inner loops. *)
let inspect_body (outer_env : tyenv) (body : stmt list) : inspection =
  let insp =
    { accesses = []; assigned = []; declared = []; escapes = []; rejects = [] }
  in
  let reject r = insp.rejects <- r :: insp.rejects in
  let record env inner write e =
    match flat_index env e with
    | Some (root, idx, elem) ->
      insp.accesses <-
        { a_root = root; a_write = write; a_index = idx; a_elem = elem;
          a_inner = inner }
        :: insp.accesses;
      Some idx
    | None ->
      reject "memory access too complex for the dependence test";
      None
  in
  (* Expression walk: index subexpressions are rvalues; bare mentions of
     array/pointer variables outside an access escape. *)
  let rec expr_walk env inner (e : expr) =
    match e with
    | Int_lit _ | Float_lit _ | Sizeof _ -> ()
    | Ident x -> (
      match lookup_ty env x with
      | Some t when is_mem_ty t ->
        insp.escapes <-
          (if List.mem x insp.escapes then insp.escapes else x :: insp.escapes)
      | _ -> ())
    | Index _ | Deref _ | Field _ | Arrow _ -> (
      match record env inner false e with
      | Some idx -> expr_walk env inner idx
      | None -> ())
    | Addr_of inner_e -> (
      (* &x or &A[i]: the address escapes *)
      let rec root_of = function
        | Ident x -> Some x
        | Index (a, _) | Deref a | Field (a, _) | Arrow (a, _) -> root_of a
        | _ -> None
      in
      match root_of inner_e with
      | Some x ->
        insp.escapes <-
          (if List.mem x insp.escapes then insp.escapes else x :: insp.escapes)
      | None -> reject "complex address-of expression")
    | Binary (_, a, b) ->
      expr_walk env inner a;
      expr_walk env inner b
    | Unary (_, a) | Cast (_, a) -> expr_walk env inner a
    | Cond (c, a, b) ->
      expr_walk env inner c;
      expr_walk env inner a;
      expr_walk env inner b
    | Call (name, args) ->
      if not (Cgcm_ir.Ir.Intrinsic.is_pure_math name) then
        reject (Fmt.str "call to non-pure function '%s'" name);
      List.iter (expr_walk env inner) args
  in
  let rec stmt_walk env inner (s : stmt) : tyenv =
    match s with
    | Decl (t, x, init) ->
      insp.declared <- x :: insp.declared;
      Option.iter (expr_walk env inner) init;
      (x, t) :: env
    | Assign (lhs, rhs) -> begin
      expr_walk env inner rhs;
      (match lhs with
      | Ident x ->
        insp.assigned <-
          (if List.mem x insp.assigned then insp.assigned else x :: insp.assigned)
      | Index _ | Deref _ | Field _ | Arrow _ -> (
        match record env inner true lhs with
        | Some idx -> expr_walk env inner idx
        | None -> ())
      | _ -> reject "assignment to a non-lvalue");
      env
    end
    | Op_assign (_, lhs, rhs) -> begin
      expr_walk env inner rhs;
      (match lhs with
      | Ident x ->
        insp.assigned <-
          (if List.mem x insp.assigned then insp.assigned else x :: insp.assigned)
      | Index _ | Deref _ | Field _ | Arrow _ -> (
        (* read-modify-write: both a read and a write *)
        ignore (record env inner false lhs);
        match record env inner true lhs with
        | Some idx -> expr_walk env inner idx
        | None -> ())
      | _ -> reject "assignment to a non-lvalue");
      env
    end
    | If (c, t, e) ->
      expr_walk env inner c;
      ignore (List.fold_left (fun env s -> stmt_walk env inner s) env t);
      ignore (List.fold_left (fun env s -> stmt_walk env inner s) env e);
      env
    | While (c, body) ->
      expr_walk env inner c;
      ignore (List.fold_left (fun env s -> stmt_walk env inner s) env body);
      env
    | For f -> begin
      if f.parallel then reject "nested parallel loop";
      (* Recognize a constant-range inner loop to refine the test. *)
      match recognize_canon f with
      | Ok c -> begin
        insp.declared <- c.c_var :: insp.declared;
        insp.assigned <- c.c_var :: insp.assigned;
        let inner' =
          match
            (Affine.const_eval c.c_lo, Affine.const_eval c.c_bound, c.c_dir)
          with
          | Some lo, Some hi, `Up ->
            let hi_incl = if c.c_op = Ble then hi else hi - 1 in
            if hi_incl >= lo then (c.c_var, (lo, hi_incl)) :: inner else inner
          | Some lo, Some hi, `Down ->
            let hi_incl = if c.c_op = Bge then hi else hi + 1 in
            if lo >= hi_incl then (c.c_var, (hi_incl, lo)) :: inner else inner
          | _ -> inner
        in
        expr_walk env inner c.c_lo;
        expr_walk env inner c.c_bound;
        let env' = (c.c_var, Int) :: env in
        ignore
          (List.fold_left (fun env s -> stmt_walk env inner' s) env' f.body);
        env
      end
      | Error _ ->
        (* Arbitrary inner loop: record writes conservatively. *)
        Option.iter (fun s -> ignore (stmt_walk env inner s)) f.init;
        Option.iter (expr_walk env inner) f.cond;
        Option.iter (fun s -> ignore (stmt_walk env inner s)) f.update;
        ignore (List.fold_left (fun env s -> stmt_walk env inner s) env f.body);
        reject "non-canonical inner loop";
        env
    end
    | Return _ -> reject "return inside loop body"; env
    | Break -> reject "break inside loop body"; env
    | Expr_stmt e -> expr_walk env inner e; env
    | Launch_stmt _ -> reject "explicit launch inside loop body"; env
  in
  ignore (List.fold_left (fun env s -> stmt_walk env [] s) outer_env body);
  insp

(* ------------------------------------------------------------------ *)
(* The dependence test                                                 *)

let check_doall (env : tyenv) (c : canon) (body : stmt list) :
    (unit, string) result =
  let insp = inspect_body env body in
  match insp.rejects with
  | r :: _ -> Error r
  | [] ->
    (* 1. scalar writes must be iteration-private *)
    let bad_scalar =
      List.find_opt (fun x -> not (List.mem x insp.declared)) insp.assigned
    in
    (match bad_scalar with
    | Some x -> Error (Fmt.str "loop-carried scalar dependence on '%s'" x)
    | None ->
      (* 2. escaping arrays/pointers are only tolerated when nothing in the
            loop writes memory through a may-aliasing root *)
      let is_ptr_root x =
        match lookup_ty env x with
        | Some (Ptr _) -> true
        | _ -> not (List.mem x insp.declared) && lookup_ty env x = None
      in
      let may_alias r1 r2 = r1 = r2 || is_ptr_root r1 || is_ptr_root r2 in
      let written_roots =
        List.filter_map
          (fun a -> if a.a_write then Some a.a_root else None)
          insp.accesses
        |> List.sort_uniq compare
      in
      if insp.escapes <> [] && written_roots <> [] then
        Error
          (Fmt.str "address of '%s' escapes in a loop that writes memory"
             (List.hd insp.escapes))
      else begin
        (* 3. affine footprint test per written root *)
        let modified = insp.assigned in
        let form_of (a : access) =
          let aenv =
            {
              Affine.parallel_var = c.c_var;
              inner = a.a_inner;
              modified = List.filter (fun m -> m <> c.c_var) modified;
            }
          in
          Affine.of_expr aenv a.a_index
        in
        let check_root root =
          (* aliasing: any other written or read root that may alias? *)
          let conflicting =
            List.filter
              (fun a -> a.a_root <> root && may_alias a.a_root root)
              insp.accesses
          in
          if conflicting <> [] then
            Error (Fmt.str "may-alias conflict on '%s'" root)
          else begin
            let accs = List.filter (fun a -> a.a_root = root) insp.accesses in
            (* mixed granularities (element vs byte indices into the same
               unit) would make the affine footprints incomparable *)
            let elems = List.sort_uniq compare (List.map (fun a -> a.a_elem) accs) in
            if List.length elems > 1 then raise Exit;
            let writes = List.filter (fun a -> a.a_write) accs in
            let reads = List.filter (fun a -> not a.a_write) accs in
            let forms =
              List.map (fun a -> (a, form_of a)) (writes @ reads)
            in
            if List.exists (fun (_, f) -> f = None) forms then
              Error (Fmt.str "non-affine access to '%s'" root)
            else begin
              let wf =
                List.filter_map
                  (fun (a, f) -> if a.a_write then f else None)
                  forms
              in
              let rf =
                List.filter_map
                  (fun (a, f) -> if a.a_write then None else f)
                  forms
              in
              match wf with
              | [] -> Ok ()
              | first :: _ ->
                let a = first.Affine.icoeff in
                if a = 0 then
                  Error (Fmt.str "every iteration writes the same part of '%s'" root)
                else if
                  List.exists
                    (fun (f : Affine.form) ->
                      f.icoeff <> a || not (Affine.same_inv f first))
                    wf
                then Error (Fmt.str "inconsistent write pattern on '%s'" root)
                else begin
                  let wlo =
                    List.fold_left (fun m (f : Affine.form) -> min m f.lo)
                      max_int wf
                  in
                  let whi =
                    List.fold_left (fun m (f : Affine.form) -> max m f.hi)
                      min_int wf
                  in
                  if Affine.cross_iteration_overlap ~a ~w:(wlo, whi) ~r:(wlo, whi)
                  then
                    Error (Fmt.str "write footprints on '%s' overlap across iterations" root)
                  else begin
                    let bad_read =
                      List.find_opt
                        (fun (f : Affine.form) ->
                          f.icoeff <> a
                          || (not (Affine.same_inv f first))
                          || Affine.cross_iteration_overlap ~a ~w:(wlo, whi)
                               ~r:(f.lo, f.hi))
                        rf
                    in
                    match bad_read with
                    | Some _ ->
                      Error
                        (Fmt.str "cross-iteration read/write conflict on '%s'" root)
                    | None -> Ok ()
                  end
                end
            end
          end
        in
        let check_root root =
          try check_root root
          with Exit ->
            Error (Fmt.str "mixed access granularities on '%s'" root)
        in
        let rec all = function
          | [] -> Ok ()
          | root :: rest -> (
            match check_root root with Ok () -> all rest | e -> e)
        in
        all written_roots
      end)

(* ------------------------------------------------------------------ *)
(* Outlining                                                           *)

(* Free variables of the body (in first-use order) that resolve to locals
   of the enclosing function; globals are referenced directly from the
   kernel. *)
let free_locals (env : tyenv) ~(globals : (string, cty) Hashtbl.t)
    (c : canon) (body : stmt list) : (string * cty) list =
  let acc = ref [] in
  let bound = ref [ c.c_var ] in
  let see scope_bound x =
    if
      (not (List.mem x !bound))
      && (not (List.mem x scope_bound))
      && (not (Hashtbl.mem globals x))
      && (not (List.mem_assoc x !acc))
    then begin
      match lookup_ty env x with
      | Some t -> acc := !acc @ [ (x, t) ]
      | None -> ()  (* unknown: lower will report it *)
    end
  in
  let rec expr_w sb (e : expr) =
    match e with
    | Ident x -> see sb x
    | Int_lit _ | Float_lit _ | Sizeof _ -> ()
    | Binary (_, a, b) -> expr_w sb a; expr_w sb b
    | Unary (_, a) | Deref a | Addr_of a | Cast (_, a)
    | Field (a, _) | Arrow (a, _) ->
      expr_w sb a
    | Cond (x, a, b) -> expr_w sb x; expr_w sb a; expr_w sb b
    | Index (a, i) -> expr_w sb a; expr_w sb i
    | Call (_, args) -> List.iter (expr_w sb) args
  in
  let rec stmt_w sb (s : stmt) : string list =
    match s with
    | Decl (_, x, init) ->
      Option.iter (expr_w sb) init;
      x :: sb
    | Assign (l, r) | Op_assign (_, l, r) -> expr_w sb l; expr_w sb r; sb
    | If (cnd, t, e) ->
      expr_w sb cnd;
      ignore (List.fold_left stmt_w sb t);
      ignore (List.fold_left stmt_w sb e);
      sb
    | While (cnd, b) ->
      expr_w sb cnd;
      ignore (List.fold_left stmt_w sb b);
      sb
    | For f ->
      let sb' =
        match f.init with Some s -> stmt_w sb s | None -> sb
      in
      Option.iter (expr_w sb') f.cond;
      Option.iter (fun s -> ignore (stmt_w sb' s)) f.update;
      ignore (List.fold_left stmt_w sb' f.body);
      sb
    | Return e -> Option.iter (expr_w sb) e; sb
    | Break -> sb
    | Expr_stmt e -> expr_w sb e; sb
    | Launch_stmt (_, trip, args) ->
      expr_w sb trip;
      List.iter (expr_w sb) args;
      sb
  in
  ignore (List.fold_left stmt_w [] body);
  !acc

(* Induction-variable reconstruction inside the kernel:
   i = lo ± tid * step, with the names passed as parameters. *)
let induction_decl (c : canon) ~(tid : expr) ~(lo : string) ~(step : string) =
  let tid_term = Binary (Bmul, tid, Ident step) in
  let value =
    match c.c_dir with
    | `Up -> Binary (Badd, Ident lo, tid_term)
    | `Down -> Binary (Bsub, Ident lo, tid_term)
  in
  Decl (Int, c.c_var, Some value)

(* When the loop body is exactly one nested independent canonical loop,
   the pair is flattened into a 2-D grid: the GPU gets trip_i * trip_j
   threads instead of trip_i (cf. the <<<blocks, threads>>> grids real
   CUDA mappings use). Sound because any two distinct (i, j) pairs either
   differ in i (outer independence) or share i and differ in j (inner
   independence). *)
let flattenable_inner (env : tyenv) (c : canon) (body : stmt list) :
    (canon * stmt list) option =
  match body with
  | [ For inner ] -> (
    match recognize_canon inner with
    | Error _ -> None
    | Ok ci ->
      (* the inner bounds must not depend on the outer variable or on
         anything the inner body modifies *)
      let insp =
        inspect_body ((ci.c_var, Int) :: (c.c_var, Int) :: env) inner.body
      in
      let varying = c.c_var :: ci.c_var :: insp.assigned in
      if
        Affine.mentions varying ci.c_lo
        || Affine.mentions varying ci.c_bound
      then None
      else if inner.parallel then Some (ci, inner.body)  (* annotated *)
      else begin
        match
          check_doall ((ci.c_var, Int) :: (c.c_var, Int) :: env) ci inner.body
        with
        | Ok () -> Some (ci, inner.body)
        | Error _ -> None
      end)
  | _ -> None

let outline ~(report : report) ~(pending : func_decl list ref)
    ~(globals : (string, cty) Hashtbl.t) ~(fresh : unit -> string)
    ~(fname : string) ~(manual : bool) (env : tyenv) (c : canon)
    (body : stmt list) ~(named_applicable : bool) : stmt =
  let kname = fresh () in
  let inner = flattenable_inner env c body in
  let body_for_frees =
    match inner with Some (_, ibody) -> ibody | None -> body
  in
  let frees =
    match inner with
    | Some (ci, ibody) ->
      free_locals ((ci.c_var, Int) :: env) ~globals { c with c_var = c.c_var }
        ibody
      |> List.filter (fun (x, _) -> x <> ci.c_var && x <> c.c_var)
    | None -> free_locals env ~globals c body
  in
  ignore body_for_frees;
  List.iter
    (fun (x, t) ->
      if indirection t > 2 then
        error "cannot outline loop in %s: '%s' has indirection > 2" fname x)
    frees;
  let kdecl, trip, extra_args =
    match inner with
    | None ->
      let params =
        (Int, "__tid") :: (Int, "__lo") :: (Int, "__step")
        :: List.map (fun (x, t) -> (t, x)) frees
      in
      let body' =
        induction_decl c ~tid:(Ident "__tid") ~lo:"__lo" ~step:"__step" :: body
      in
      ( { f_kernel = true; f_ret = None; f_name = kname; f_params = params;
          f_body = body' },
        trip_expr c,
        [ c.c_lo; Int_lit (Int64.of_int c.c_step) ] )
    | Some (ci, ibody) ->
      (* 2-D grid: i = tid / tj, j = tid mod tj *)
      let params =
        (Int, "__tid") :: (Int, "__lo") :: (Int, "__step")
        :: (Int, "__lo2") :: (Int, "__step2") :: (Int, "__tj")
        :: List.map (fun (x, t) -> (t, x)) frees
      in
      let outer_idx = Binary (Bdiv, Ident "__tid", Ident "__tj") in
      let inner_idx = Binary (Brem, Ident "__tid", Ident "__tj") in
      let body' =
        induction_decl c ~tid:outer_idx ~lo:"__lo" ~step:"__step"
        :: induction_decl ci ~tid:inner_idx ~lo:"__lo2" ~step:"__step2"
        :: ibody
      in
      ( { f_kernel = true; f_ret = None; f_name = kname; f_params = params;
          f_body = body' },
        Binary (Bmul, trip_expr c, trip_expr ci),
        [
          c.c_lo;
          Int_lit (Int64.of_int c.c_step);
          ci.c_lo;
          Int_lit (Int64.of_int ci.c_step);
          trip_expr ci;
        ] )
  in
  report.kernels <-
    { k_name = kname; k_func = fname; k_manual = manual;
      k_named_applicable = named_applicable }
    :: report.kernels;
  report.notes <-
    { l_func = fname; l_outcome = `Parallelized kname } :: report.notes;
  let launch_args = extra_args @ List.map (fun (x, _) -> Ident x) frees in
  pending := kdecl :: !pending;
  Launch_stmt (kname, trip, launch_args)

(* ------------------------------------------------------------------ *)
(* Program transformation                                              *)

(* With parallelization off, 'parallel' annotations are simply ignored
   (the loops stay sequential) — this is the sequential CPU baseline. *)
let rec strip_parallel_stmt (s : stmt) : stmt =
  match s with
  | For f ->
    For
      {
        f with
        parallel = false;
        init = Option.map strip_parallel_stmt f.init;
        update = Option.map strip_parallel_stmt f.update;
        body = List.map strip_parallel_stmt f.body;
      }
  | If (c, t, e) ->
    If (c, List.map strip_parallel_stmt t, List.map strip_parallel_stmt e)
  | While (c, b) -> While (c, List.map strip_parallel_stmt b)
  | s -> s

let strip_parallel (p : program) : program =
  List.map
    (function
      | Func_decl f ->
        Func_decl { f with f_body = List.map strip_parallel_stmt f.f_body }
      | d -> d)
    p

let transform ~(mode : mode) (p : program) : program * report =
  let report = { kernels = []; notes = [] } in
  if mode = Off then (strip_parallel p, report)
  else begin
    (* Kernels synthesised by this run, appended to the program; local
       to the call so concurrent compiles never share it. *)
    let pending = ref [] in
    let globals : (string, cty) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (function
        | Global_decl g -> Hashtbl.replace globals g.g_name g.g_ty
        | Func_decl _ | Struct_decl _ -> ())
      p;
    let counter = ref 0 in
    let transform_func (fd : func_decl) : func_decl =
      if fd.f_kernel then fd
      else begin
        let fresh () =
          incr counter;
          Fmt.str "__k_%s_%d" fd.f_name !counter
        in
        let rec stmts_walk (env : tyenv) (ss : stmt list) : stmt list =
          match ss with
          | [] -> []
          | s :: rest ->
            let s', env' = stmt_walk env s in
            s' :: stmts_walk env' rest
        and stmt_walk env (s : stmt) : stmt * tyenv =
          match s with
          | Decl (t, x, _) -> (s, (x, t) :: env)
          | For f -> begin
            let try_parallel =
              match mode with
              | Auto -> true
              | Manual_only -> f.parallel
              | Off -> false
            in
            let attempt () =
              match recognize_canon f with
              | Error e -> Error e
              | Ok c ->
                if f.parallel then Ok c
                else begin
                  match check_doall ((c.c_var, Int) :: env) c f.body with
                  | Ok () -> Ok c
                  | Error e -> Error e
                end
            in
            if not try_parallel then descend env f
            else begin
              match attempt () with
              | Ok c ->
                (* Named-regions / inspector-executor applicability: every
                   live-in must be a distinct *named* allocation unit with
                   affine indexing — pointer-typed live-ins and accesses
                   through pointer-typed globals disqualify a kernel. *)
                let no_ptr_locals =
                  List.for_all
                    (fun (_, t) ->
                      match t with Ptr _ -> false | _ -> true)
                    (free_locals ((c.c_var, Int) :: env) ~globals c f.body)
                in
                let uses_ptr_global =
                  let found = ref false in
                  let rec expr_scan (e : expr) =
                    match e with
                    | Ident x -> (
                      match Hashtbl.find_opt globals x with
                      | Some (Ptr _) -> found := true
                      | _ -> ())
                    | Int_lit _ | Float_lit _ | Sizeof _ -> ()
                    | Binary (_, a, b) -> expr_scan a; expr_scan b
                    | Unary (_, a) | Deref a | Addr_of a | Cast (_, a)
                    | Field (a, _) | Arrow (a, _) ->
                      expr_scan a
                    | Cond (x, a, b) -> expr_scan x; expr_scan a; expr_scan b
                    | Index (a, i) -> expr_scan a; expr_scan i
                    | Call (_, args) -> List.iter expr_scan args
                  in
                  let rec stmt_scan (s : stmt) =
                    match s with
                    | Decl (_, _, init) -> Option.iter expr_scan init
                    | Assign (l, r) | Op_assign (_, l, r) ->
                      expr_scan l; expr_scan r
                    | If (cnd, t, e) ->
                      expr_scan cnd;
                      List.iter stmt_scan t;
                      List.iter stmt_scan e
                    | While (cnd, b) -> expr_scan cnd; List.iter stmt_scan b
                    | For fo ->
                      Option.iter stmt_scan fo.init;
                      Option.iter expr_scan fo.cond;
                      Option.iter stmt_scan fo.update;
                      List.iter stmt_scan fo.body
                    | Return e -> Option.iter expr_scan e
                    | Break -> ()
                    | Expr_stmt e -> expr_scan e
                    | Launch_stmt (_, t, args) ->
                      expr_scan t;
                      List.iter expr_scan args
                  in
                  List.iter stmt_scan f.body;
                  !found
                in
                let named_applicable = no_ptr_locals && not uses_ptr_global in
                let launch =
                  outline ~report ~pending ~globals ~fresh ~fname:fd.f_name
                    ~manual:f.parallel
                    ((c.c_var, Int) :: env)
                    c f.body ~named_applicable
                in
                (launch, env)
              | Error reason ->
                if f.parallel then
                  error "%s: 'parallel' loop cannot be outlined: %s" fd.f_name
                    reason;
                report.notes <-
                  { l_func = fd.f_name; l_outcome = `Rejected reason }
                  :: report.notes;
                descend env f
            end
          end
          | If (c, t, e) -> (If (c, stmts_walk env t, stmts_walk env e), env)
          | While (c, b) -> (While (c, stmts_walk env b), env)
          | _ -> (s, env)
        and descend env (f : for_info) : stmt * tyenv =
          (* keep the loop sequential but look for inner candidates *)
          let env' =
            match f.init with
            | Some (Decl (t, x, _)) -> (x, t) :: env
            | _ -> env
          in
          (For { f with body = stmts_walk env' f.body }, env)
        in
        (* globals sit at the bottom of the type environment *)
        let global_env =
          Hashtbl.fold (fun x t acc -> (x, t) :: acc) globals []
        in
        let param_env =
          List.map (fun (t, x) -> (x, t)) fd.f_params @ global_env
        in
        { fd with f_body = stmts_walk param_env fd.f_body }
      end
    in
    let p' =
      List.map
        (function
          | Global_decl g -> Global_decl g
          | Struct_decl s -> Struct_decl s
          | Func_decl fd -> Func_decl (transform_func fd))
        p
    in
    let kernels = List.rev_map (fun k -> Func_decl k) !pending in
    (p' @ kernels, report)
  end
