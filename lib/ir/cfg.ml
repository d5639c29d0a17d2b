(* Control-flow-graph utilities over [Ir.func]. *)

let succs (f : Ir.func) b = Ir.succs_of_term f.blocks.(b).term

let preds (f : Ir.func) =
  let n = Array.length f.blocks in
  let p = Array.make n [] in
  for b = 0 to n - 1 do
    List.iter (fun s -> p.(s) <- b :: p.(s)) (succs f b)
  done;
  p

(* Reverse postorder from the entry; unreachable blocks are excluded. *)
let reverse_postorder (f : Ir.func) =
  let n = Array.length f.blocks in
  let seen = Array.make n false in
  let order = ref [] in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter go (succs f b);
      order := b :: !order
    end
  in
  go 0;
  !order

let reachable (f : Ir.func) =
  let r = Array.make (Array.length f.blocks) false in
  let rec go b =
    if not r.(b) then begin
      r.(b) <- true;
      match f.blocks.(b).term with
      | Ir.Br s -> go s
      | Ir.Cbr (_, s1, s2) ->
        go s1;
        go s2
      | Ir.Ret _ -> ()
    end
  in
  go 0;
  r
