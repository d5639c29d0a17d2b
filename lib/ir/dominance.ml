(* Dominator computation (Cooper-Harvey-Kennedy iterative algorithm),
   over flat arrays: a reverse postorder, and predecessor lists packed
   into one array indexed by per-block offsets. *)

type t = {
  idom : int array;  (* immediate dominator; entry's idom is itself; -1 = unreachable *)
  rpo_index : int array;
}

let compute (f : Ir.func) =
  let blocks = f.Ir.blocks in
  let n = Array.length blocks in
  (* Postorder from the entry, successors in [Ir.succs_of_term] order. *)
  let post = Array.make n 0 and seen = Array.make n false in
  let nreach = ref 0 in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      (match blocks.(b).Ir.term with
      | Ir.Br s -> go s
      | Ir.Cbr (_, s1, s2) ->
        go s1;
        if s2 <> s1 then go s2
      | Ir.Ret _ -> ());
      post.(!nreach) <- b;
      incr nreach
    end
  in
  go 0;
  let nreach = !nreach in
  (* rpo.(k) is the k-th block in reverse postorder; the entry is first. *)
  let rpo = Array.init nreach (fun k -> post.(nreach - 1 - k)) in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun k b -> rpo_index.(b) <- k) rpo;
  (* Predecessors of block b: pred.(pstart.(b)) .. pred.(pstart.(b+1) - 1),
     in descending block order like [Cfg.preds]. *)
  let pstart = Array.make (n + 1) 0 in
  let each_edge k =
    for b = n - 1 downto 0 do
      match blocks.(b).Ir.term with
      | Ir.Br s -> k b s
      | Ir.Cbr (_, s1, s2) ->
        k b s1;
        if s2 <> s1 then k b s2
      | Ir.Ret _ -> ()
    done
  in
  each_edge (fun _ s -> pstart.(s + 1) <- pstart.(s + 1) + 1);
  for b = 1 to n do
    pstart.(b) <- pstart.(b) + pstart.(b - 1)
  done;
  let fill = Array.sub pstart 0 n in
  let pred = Array.make pstart.(n) 0 in
  each_edge (fun b s ->
      pred.(fill.(s)) <- b;
      fill.(s) <- fill.(s) + 1);
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
    for k = 1 to nreach - 1 do
      let b = rpo.(k) in
      let new_idom = ref (-1) in
      for j = pstart.(b) to pstart.(b + 1) - 1 do
        let p = pred.(j) in
        if idom.(p) <> -1 then
          new_idom := if !new_idom = -1 then p else intersect p !new_idom
      done;
      if !new_idom <> -1 && idom.(b) <> !new_idom then begin
        idom.(b) <- !new_idom;
        changed := true
      end
    done
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
