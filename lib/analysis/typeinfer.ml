(* Use-based pointer type inference (Section 4 of the paper).

   The C type system is unreliable, so the communication-management pass
   never trusts declared types. Instead, a live-in value of a GPU kernel
   is classified by how the kernel *uses* it:

     - if the value flows to the address operand of a load or store
       (possibly through additions, subtractions and casts), it is a
       pointer;
     - if a value loaded through it flows to another memory operation's
       address, it is a double pointer (mapArray territory);
     - three or more levels of indirection are outside CGCM's supported
       fragment and are reported as an error.

   Flow deliberately does not pass through multiplications: scaled index
   arithmetic (i * elt_size) keeps induction variables out of the pointer
   class, which is what makes the inference unambiguous in practice. Flow
   does pass through private stack slots (store-then-reload of a pointer
   in a kernel-local variable). *)

module Ir = Cgcm_ir.Ir

exception Too_indirect of string

type cls = Scalar | Pointer | Double_pointer

let cls_to_string = function
  | Scalar -> "scalar"
  | Pointer -> "pointer"
  | Double_pointer -> "double pointer"

(* Taint flows along a fixed graph over the kernel's registers, its
   private stack slots and the globals being classified: an edge from
   each operand of an add, subtract, negate or conversion to its result,
   from a stored value to its private slot, and from a private slot to
   the result of a load from it. A source's taint closure is the set of
   nodes reachable from its seeds, so the closures of many sources are
   computed together: each node carries a bit set of the sources that
   reach it. *)

type graph = {
  nregs : int;
  gnode : (string, int) Hashtbl.t;  (* global -> node, for sources only *)
  edges : (int * int) array;  (* (from, to), in instruction order *)
  loads : (int * int) list;  (* (address node, result register) of i64 loads *)
  addrs : int list;  (* address node of every load and store *)
}

(* Node of a value: registers are [0, nregs), private slot s is
   [nregs + s], a source global follows them; -1 carries no taint. *)
let node gnode = function
  | Ir.Reg r -> r
  | Ir.Global name -> (
    match Hashtbl.find_opt gnode name with Some n -> n | None -> -1)
  | Ir.Imm_int _ | Ir.Imm_float _ -> -1

let graph (f : Ir.func) (alias : Alias.t) (globals : string list) =
  let nregs = f.Ir.nregs in
  let gnode = Hashtbl.create 8 in
  List.iteri (fun k name -> Hashtbl.replace gnode name ((2 * nregs) + k)) globals;
  let private_slot s = Hashtbl.find_opt alias.Alias.slots s = Some true in
  let edges = ref [] and loads = ref [] and addrs = ref [] in
  let edge a d =
    let n = node gnode a in
    if n >= 0 then edges := (n, d) :: !edges
  in
  let addr a =
    let n = node gnode a in
    if n >= 0 then addrs := n :: !addrs
  in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Binop (d, (Ir.Add | Ir.Sub), a, b) ->
        edge a d;
        edge b d
      | Ir.Unop (d, (Ir.Int_to_float | Ir.Float_to_int | Ir.Neg), a) -> edge a d
      | Ir.Store (_, a, v) ->
        (match a with
        | Ir.Reg s when private_slot s -> edge v (nregs + s)
        | _ -> ());
        addr a
      | Ir.Load (d, ty, a) ->
        (match a with
        | Ir.Reg s when private_slot s -> edges := (nregs + s, d) :: !edges
        | _ -> ());
        (if ty = Ir.I64 then
           let n = node gnode a in
           if n >= 0 then loads := (n, d) :: !loads);
        addr a
      | _ -> ())
    f;
  {
    nregs;
    gnode;
    edges = Array.of_list (List.rev !edges);
    loads = !loads;
    addrs = !addrs;
  }

(* Close [taint] (a bit set per node) along the graph's edges. *)
let close g taint =
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (a, d) ->
        let t = taint.(a) lor taint.(d) in
        if t <> taint.(d) then begin
          taint.(d) <- t;
          changed := true
        end)
      g.edges
  done;
  taint

(* Sources whose taint reaches an address operand. *)
let used_as_address g taint =
  List.fold_left (fun acc n -> acc lor taint.(n)) 0 g.addrs

(* The next level's seeds: the results of i64 loads through a tainted
   address, each tainted by the sources of its address. *)
let loads_through g taint =
  let next = Array.make (Array.length taint) 0 in
  List.iter (fun (a, d) -> next.(d) <- next.(d) lor taint.(a)) g.loads;
  next

(* Classify up to [Sys.int_size - 1] sources at once; source [k] is bit
   [k]. A source is a pointer when its taint reaches an address, a double
   pointer when the loads through it do too, and too indirect one level
   further. *)
let classify_group (f : Ir.func) g (seeds : int list) : cls list =
  let nodes = (2 * g.nregs) + Hashtbl.length g.gnode in
  let t1 = Array.make nodes 0 in
  List.iteri (fun k n -> if n >= 0 then t1.(n) <- t1.(n) lor (1 lsl k)) seeds;
  let t1 = close g t1 in
  let a1 = used_as_address g t1 in
  let s2 = loads_through g t1 in
  let l2 = Array.fold_left ( lor ) 0 s2 in
  let t2 = close g s2 in
  let a2 = used_as_address g t2 in
  let s3 = loads_through g t2 in
  let l3 = Array.fold_left ( lor ) 0 s3 in
  let a3 = used_as_address g (close g s3) in
  List.mapi
    (fun k _ ->
      let has set = set land (1 lsl k) <> 0 in
      if not (has a1) then Scalar
      else if (not (has l2)) || not (has a2) then Pointer
      else if not (has l3) then Double_pointer
      else if has a3 then
        raise
          (Too_indirect
             (Fmt.str "%s: a live-in has three or more levels of indirection"
                f.Ir.fname))
      else Double_pointer)
    seeds

(* Classify each seed value; the result is in the order of [seeds]. *)
let classify_all (f : Ir.func) (alias : Alias.t) (seeds : Ir.value list) =
  let globals =
    List.filter_map (function Ir.Global name -> Some name | _ -> None) seeds
  in
  let g = graph f alias globals in
  let width = Sys.int_size - 1 in
  let rec groups = function
    | [] -> []
    | seeds ->
      let group = List.filteri (fun k _ -> k < width) seeds in
      let rest = List.filteri (fun k _ -> k >= width) seeds in
      let cls = classify_group f g (List.map (node g.gnode) group) in
      cls @ groups rest
  in
  groups seeds

type kernel_types = {
  (* classification of kernel parameters; index 0 is the thread id *)
  param_cls : cls array;
  (* classification of every global the kernel references *)
  global_cls : (string * cls) list;
}

let infer_kernel (f : Ir.func) : kernel_types =
  assert (f.Ir.fkind = Ir.Kernel);
  let alias = Alias.analyze f in
  let globals = Ir.globals_used f in
  let cls =
    classify_all f alias
      (List.init f.Ir.nargs (fun r -> Ir.Reg r)
      @ List.map (fun name -> Ir.Global name) globals)
  in
  let param_cls = Array.of_list (List.filteri (fun k _ -> k < f.Ir.nargs) cls) in
  let global_cls =
    List.combine globals (List.filteri (fun k _ -> k >= f.Ir.nargs) cls)
  in
  { param_cls; global_cls }
