(* Dominator computation (Cooper-Harvey-Kennedy iterative algorithm). *)

type t = {
  idom : int array;  (* immediate dominator; entry's idom is itself; -1 = unreachable *)
  rpo_index : int array;
}

let compute (f : Ir.func) =
  let n = Array.length f.blocks in
  let rpo = Cfg.reverse_postorder f in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let preds = Cfg.preds f in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          let processed =
            List.filter (fun p -> idom.(p) <> -1) preds.(b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  { idom; rpo_index }

(* Does block [a] dominate block [b]? *)
let dominates t a b =
  if t.idom.(b) = -1 || t.idom.(a) = -1 then false
  else begin
    let rec up b = if b = a then true else if b = 0 then a = 0 else up t.idom.(b) in
    up b
  end

let idom t b = t.idom.(b)

