(* Natural-loop detection from back edges. *)

module Ir = Cgcm_ir.Ir
module Cfg = Cgcm_ir.Cfg
module Dominance = Cgcm_ir.Dominance

type loop = {
  header : int;
  body : int list;  (* blocks in the loop, including the header *)
  members : bool array;  (* [body] as a set over the analysed blocks *)
  mutable parent : int option;  (* index into the loop array *)
  depth : int;  (* filled by [analyze]; 1 = outermost *)
}

type t = { loops : loop array; block_loop : int option array }
(* [block_loop.(b)] = innermost loop containing block b *)

(* Blocks added after the analysis are in no loop. *)
let in_loop l b = b >= 0 && b < Array.length l.members && l.members.(b)

(* Mark the natural loop of back edge (src -> header) in [seen]. *)
let natural_loop preds seen header src =
  seen.(header) <- true;
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter go preds.(b)
    end
  in
  go src

let analyze (f : Ir.func) : t =
  let dom = Dominance.compute f in
  let reach = Cfg.reachable f in
  let n = Array.length f.Ir.blocks in
  (* back edges: b -> h where h dominates b *)
  let by_header = Hashtbl.create 8 in
  for b = 0 to n - 1 do
    if reach.(b) then
      List.iter
        (fun s -> if Dominance.dominates dom s b then begin
             let cur = Option.value ~default:[] (Hashtbl.find_opt by_header s) in
             Hashtbl.replace by_header s (b :: cur)
           end)
        (Cfg.succs f b)
  done;
  let preds = Cfg.preds f in
  let raw =
    Hashtbl.fold
      (fun header srcs acc ->
        let members = Array.make n false in
        List.iter (natural_loop preds members header) srcs;
        let body = ref [] in
        for b = n - 1 downto 0 do
          if members.(b) then body := b :: !body
        done;
        (header, !body, members) :: acc)
      by_header []
    |> List.sort (fun (_, b1, _) (_, b2, _) ->
           compare (List.length b2) (List.length b1))
    (* larger loops first: parents precede children *)
  in
  let loops =
    Array.of_list
      (List.map
         (fun (header, body, members) ->
           { header; body; members; parent = None; depth = 0 })
         raw)
  in
  (* parent links: smallest strictly-containing loop *)
  Array.iteri
    (fun i l ->
      let best = ref None in
      Array.iteri
        (fun j l' ->
          if j <> i && in_loop l' l.header
             && List.for_all (in_loop l') l.body
             && List.length l'.body > List.length l.body
          then
            match !best with
            | Some k
              when List.length loops.(k).body <= List.length l'.body ->
              ()
            | _ -> best := Some j)
        loops;
      l.parent <- !best)
    loops;
  let rec depth i =
    match loops.(i).parent with None -> 1 | Some p -> 1 + depth p
  in
  let loops = Array.mapi (fun i l -> { l with depth = depth i }) loops in
  let block_loop = Array.make n None in
  (* innermost loop per block: loops sorted large->small, so later
     (smaller) loops overwrite *)
  Array.iteri
    (fun i l -> List.iter (fun b -> block_loop.(b) <- Some i) l.body)
    loops;
  { loops; block_loop }

(* Loops sorted innermost-first (deepest first). *)
let innermost_first t =
  let idx = Array.to_list (Array.mapi (fun i _ -> i) t.loops) in
  List.sort
    (fun i j -> compare t.loops.(j).depth t.loops.(i).depth)
    idx

(* Exit edges of a loop: (from_block, to_block) with to outside. *)
let exit_edges (f : Ir.func) (l : loop) =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun s -> if in_loop l s then None else Some (b, s))
        (Cfg.succs f b))
    l.body

(* Entry edges into the header from outside the loop. *)
let entry_edges (f : Ir.func) (l : loop) =
  let preds = Cfg.preds f in
  List.filter_map
    (fun p -> if in_loop l p then None else Some p)
    preds.(l.header)
