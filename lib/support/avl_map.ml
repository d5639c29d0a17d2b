(* Self-balancing binary tree map with an efficient greatest-key-
   less-or-equal query. The CGCM paper stores allocation-unit metadata in
   exactly such a structure, indexed by the base address of each unit
   (Section 3.1): [greatest_leq] implements the paper's [greatestLTE].
   Keys are ints, compared directly: a descent makes no call to a
   comparison function. *)

type key = int

type 'a t =
  | Leaf
  | Node of { l : 'a t; k : int; v : 'a; r : 'a t; h : int }

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let height = function Leaf -> 0 | Node { h; _ } -> h

let mk l k v r =
  let h = 1 + max (height l) (height r) in
  Node { l; k; v; r; h }

(* Rebalance assuming subtrees differ in height by at most 2. *)
let balance l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } ->
      if height ll >= height lr then mk ll lk lv (mk lr k v r)
      else begin
        match lr with
        | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
          mk (mk ll lk lv lrl) lrk lrv (mk lrr k v r)
        | Leaf -> assert false
      end
    | Leaf -> assert false
  else if hr > hl + 1 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } ->
      if height rr >= height rl then mk (mk l k v rl) rk rv rr
      else begin
        match rl with
        | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
          mk (mk l k v rll) rlk rlv (mk rlr rk rv rr)
        | Leaf -> assert false
      end
    | Leaf -> assert false
  else mk l k v r

let rec add (key : int) value = function
  | Leaf -> mk Leaf key value Leaf
  | Node { l; k; v; r; _ } ->
    if key = k then mk l key value r
    else if key < k then balance (add key value l) k v r
    else balance l k v (add key value r)

let rec min_binding = function
  | Leaf -> None
  | Node { l = Leaf; k; v; _ } -> Some (k, v)
  | Node { l; _ } -> min_binding l

let rec max_binding = function
  | Leaf -> None
  | Node { r = Leaf; k; v; _ } -> Some (k, v)
  | Node { r; _ } -> max_binding r

let rec remove_min = function
  | Leaf -> invalid_arg "Avl_map.remove_min"
  | Node { l = Leaf; k; v; r; _ } -> (k, v, r)
  | Node { l; k; v; r; _ } ->
    let mk', mv', l' = remove_min l in
    (mk', mv', balance l' k v r)

let rec remove (key : int) = function
  | Leaf -> Leaf
  | Node { l; k; v; r; _ } ->
    if key < k then balance (remove key l) k v r
    else if key > k then balance l k v (remove key r)
    else begin
      match r with
      | Leaf -> l
      | _ ->
        let sk, sv, r' = remove_min r in
        balance l sk sv r'
    end

let rec find_opt (key : int) = function
  | Leaf -> None
  | Node { l; k; v; r; _ } ->
    if key = k then Some v else if key < k then find_opt key l else find_opt key r

(* Greatest binding whose key is <= [key]; the paper's greatestLTE. *)
let greatest_leq (key : int) t =
  let rec go best = function
    | Leaf -> best
    | Node { l; k; v; r; _ } ->
      if key = k then Some (k, v)
      else if key < k then go best l
      else go (Some (k, v)) r
  in
  go None t

(* Least binding whose key is >= [key]. *)
let least_geq (key : int) t =
  let rec go best = function
    | Leaf -> best
    | Node { l; k; v; r; _ } ->
      if key = k then Some (k, v)
      else if key > k then go best r
      else go (Some (k, v)) l
  in
  go None t

let rec fold f t acc =
  match t with
  | Leaf -> acc
  | Node { l; k; v; r; _ } -> fold f r (f k v (fold f l acc))

let iter f t = fold (fun k v () -> f k v) t ()

let bindings t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let cardinal t = fold (fun _ _ n -> n + 1) t 0

let of_list l = List.fold_left (fun t (k, v) -> add k v t) empty l

(* Structural invariants, used by the property-based tests. *)
let rec check_heights = function
  | Leaf -> true
  | Node { l; k = _; v = _; r; h } ->
    h = 1 + max (height l) (height r)
    && abs (height l - height r) <= 1
    && check_heights l && check_heights r

let rec check_order = function
  | Leaf -> true
  | Node { l; k; r; _ } ->
    (match max_binding l with None -> true | Some (m, _) -> m < k)
    && (match min_binding r with None -> true | Some (m, _) -> k < m)
    && check_order l && check_order r

let invariant t = check_heights t && check_order t
