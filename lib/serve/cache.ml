(* Cross-request compilation cache.

   Compiled modules are immutable once the pass pipeline finishes, so a
   daemon serving a stream of requests can key them by a digest of
   (source, mode) and reuse them for every tenant. Bounded LRU: the
   daemon must survive millions of distinct sources without growing
   without bound. *)

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, 'v * int ref) Hashtbl.t;  (* value, last-use tick *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 64);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch t stamp =
  t.tick <- t.tick + 1;
  stamp := t.tick

(* Evict the least-recently-used entry. Linear scan: the daemon's cache
   is a few hundred entries, and eviction only runs on insert-at-
   capacity — not worth an intrusive doubly-linked list. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k (_, stamp) acc ->
        match acc with
        | Some (_, best) when best <= !stamp -> acc
        | _ -> Some (k, !stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some (v, stamp) ->
    t.hits <- t.hits + 1;
    touch t stamp;
    Some v
  | None ->
    t.misses <- t.misses + 1;
    None

let add t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some _ -> Hashtbl.remove t.tbl k
  | None -> if Hashtbl.length t.tbl >= t.capacity then evict_lru t);
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl k (v, ref t.tick)

let find_or_add t k compute =
  match find t k with
  | Some v -> (v, `Hit)
  | None ->
    let v = compute () in
    add t k v;
    (v, `Miss)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats (t : (_, _) t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.tbl;
  }

let hit_rate (t : (_, _) t) =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
