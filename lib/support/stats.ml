(* Small numeric helpers shared by the report generators, plus the
   domain-safe counters the parallel kernel engine relies on. *)

(* A counter that tolerates unsynchronized increments from many domains
   at once. Used for hot-path tallies (e.g. sanitizer access checks)
   that are bumped from inside parallel kernel shards; heavier per-shard
   state is accumulated privately and merged at the kernel join instead
   of going through atomics. *)
module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr t = ignore (Atomic.fetch_and_add t 1)
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get t = Atomic.get t
  let set t v = Atomic.set t v
end

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Geometric mean; every input must be strictly positive. *)
let geomean = function
  | [] -> nan
  | xs ->
    let logsum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive input"
          else acc +. log x)
        0.0 xs
    in
    exp (logsum /. float_of_int (List.length xs))

let percent part total = if total <= 0.0 then 0.0 else 100.0 *. part /. total
