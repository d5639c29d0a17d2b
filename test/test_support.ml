(* Tests for the support library: the AVL map (the paper's allocation-map
   structure) and the numeric helpers. *)

module Avl = Cgcm_support.Avl_map
module Stats = Cgcm_support.Stats

let check = Alcotest.check

(* ------------------------------------------------------------------ *)

let test_empty () =
  check Alcotest.bool "empty" true (Avl.is_empty Avl.empty);
  check Alcotest.int "cardinal" 0 (Avl.cardinal Avl.empty);
  check Alcotest.bool "find" true (Avl.find_opt 3 Avl.empty = None);
  check Alcotest.bool "greatest_leq" true (Avl.greatest_leq 3 Avl.empty = None)

let test_add_find () =
  let t = Avl.of_list [ (10, "a"); (20, "b"); (30, "c") ] in
  check Alcotest.(option string) "find 20" (Some "b") (Avl.find_opt 20 t);
  check Alcotest.(option string) "find 25" None (Avl.find_opt 25 t);
  check Alcotest.int "cardinal" 3 (Avl.cardinal t)

let test_replace () =
  let t = Avl.of_list [ (1, "x"); (1, "y") ] in
  check Alcotest.(option string) "replaced" (Some "y") (Avl.find_opt 1 t);
  check Alcotest.int "cardinal" 1 (Avl.cardinal t)

let test_greatest_leq () =
  let t = Avl.of_list [ (10, "a"); (20, "b"); (30, "c") ] in
  let key k = Option.map fst (Avl.greatest_leq k t) in
  check Alcotest.(option int) "exact" (Some 20) (key 20);
  check Alcotest.(option int) "between" (Some 20) (key 25);
  check Alcotest.(option int) "below all" None (key 5);
  check Alcotest.(option int) "above all" (Some 30) (key 99)

let test_least_geq () =
  let t = Avl.of_list [ (10, "a"); (20, "b") ] in
  let key k = Option.map fst (Avl.least_geq k t) in
  check Alcotest.(option int) "exact" (Some 10) (key 10);
  check Alcotest.(option int) "between" (Some 20) (key 11);
  check Alcotest.(option int) "above" None (key 21)

let test_remove () =
  let t = Avl.of_list [ (1, "a"); (2, "b"); (3, "c") ] in
  let t = Avl.remove 2 t in
  check Alcotest.(option string) "removed" None (Avl.find_opt 2 t);
  check Alcotest.(option string) "kept" (Some "c") (Avl.find_opt 3 t);
  check Alcotest.bool "invariant" true (Avl.invariant t);
  (* removing a missing key is a no-op *)
  let t' = Avl.remove 42 t in
  check Alcotest.int "cardinal" (Avl.cardinal t) (Avl.cardinal t')

let test_bindings_sorted () =
  let t = Avl.of_list [ (3, ()); (1, ()); (2, ()); (5, ()); (4, ()) ] in
  check
    Alcotest.(list int)
    "sorted" [ 1; 2; 3; 4; 5 ]
    (List.map fst (Avl.bindings t))

let test_min_max () =
  let t = Avl.of_list [ (7, "a"); (3, "b"); (9, "c") ] in
  check Alcotest.(option int) "min" (Some 3) (Option.map fst (Avl.min_binding t));
  check Alcotest.(option int) "max" (Some 9) (Option.map fst (Avl.max_binding t))

let test_large_sequential () =
  let t = ref Avl.empty in
  for i = 1 to 1000 do
    t := Avl.add (i * 2) i !t
  done;
  check Alcotest.bool "invariant after 1000 inserts" true (Avl.invariant !t);
  check Alcotest.int "cardinal" 1000 (Avl.cardinal !t);
  (* interior queries *)
  check Alcotest.(option int) "greatest_leq odd" (Some 250)
    (Option.map snd (Avl.greatest_leq 501 !t))

(* ------------------------------------------------------------------ *)
(* Property tests: the AVL map agrees with a sorted association list.   *)

let ops_gen =
  QCheck2.Gen.(
    list
      (oneof
         [
           map (fun k -> `Add (k mod 64)) nat;
           map (fun k -> `Remove (k mod 64)) nat;
         ]))

let apply_ops ops =
  List.fold_left
    (fun (t, model) op ->
      match op with
      | `Add k -> (Avl.add k k t, (k, k) :: List.remove_assoc k model)
      | `Remove k -> (Avl.remove k t, List.remove_assoc k model))
    (Avl.empty, []) ops

let prop_model =
  QCheck2.Test.make ~name:"avl agrees with assoc-list model" ~count:300
    ops_gen (fun ops ->
      let t, model = apply_ops ops in
      Avl.invariant t
      && Avl.cardinal t = List.length model
      && List.for_all (fun (k, v) -> Avl.find_opt k t = Some v) model
      && List.for_all
           (fun k ->
             (Avl.find_opt k t <> None) = List.mem_assoc k model)
           (List.init 64 Fun.id))

let prop_greatest_leq =
  QCheck2.Test.make ~name:"greatest_leq agrees with model" ~count:300
    QCheck2.Gen.(pair ops_gen (int_bound 80))
    (fun (ops, q) ->
      let t, model = apply_ops ops in
      let expect =
        List.filter (fun (k, _) -> k <= q) model
        |> List.sort (fun (a, _) (b, _) -> compare b a)
        |> function
        | [] -> None
        | (k, v) :: _ -> Some (k, v)
      in
      Avl.greatest_leq q t = expect)

(* ------------------------------------------------------------------ *)

let test_geomean () =
  check (Alcotest.float 1e-9) "geomean of equal" 2.0
    (Stats.geomean [ 2.0; 2.0; 2.0 ]);
  check (Alcotest.float 1e-9) "geomean 1,4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument
    "Stats.geomean: non-positive input") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_mean_percent () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "percent" 25.0 (Stats.percent 1.0 4.0);
  check (Alcotest.float 1e-9) "percent zero total" 0.0 (Stats.percent 1.0 0.0)

let test_rng_deterministic () =
  let a = Cgcm_support.Rng.create 42 in
  let b = Cgcm_support.Rng.create 42 in
  for _ = 1 to 50 do
    check Alcotest.int "same stream" (Cgcm_support.Rng.int a 1000)
      (Cgcm_support.Rng.int b 1000)
  done;
  let c = Cgcm_support.Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Cgcm_support.Rng.int a 1000 <> Cgcm_support.Rng.int c 1000 then
      differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_rng_range () =
  let r = Cgcm_support.Rng.create 7 in
  for _ = 1 to 500 do
    let v = Cgcm_support.Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of range";
    let f = Cgcm_support.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range"
  done

(* Stats.Counter must survive concurrent increments from several
   domains: 4 domains hammering one counter (plus a second counter
   taking bulk adds) must lose no updates. *)
let test_counter_hammer () =
  let c = Cgcm_support.Stats.Counter.create () in
  let bulk = Cgcm_support.Stats.Counter.create () in
  Cgcm_support.Stats.Counter.set bulk 5;
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Cgcm_support.Stats.Counter.incr c
            done;
            Cgcm_support.Stats.Counter.add bulk 3))
  in
  List.iter Domain.join domains;
  check Alcotest.int "no lost increments" 40_000
    (Cgcm_support.Stats.Counter.get c);
  check Alcotest.int "adds accumulate" 17 (Cgcm_support.Stats.Counter.get bulk);
  Cgcm_support.Stats.Counter.set bulk 0;
  check Alcotest.int "set" 0 (Cgcm_support.Stats.Counter.get bulk)

(* The domain pool: every task index runs exactly once, results land in
   the right slots, failures re-raise in the caller, and the pool is
   reusable afterwards. *)
let test_pool_run () =
  let n = 100 in
  let hits = Array.make n 0 in
  (* jobs = 1 stays on the calling domain: strictly sequential. *)
  Cgcm_support.Pool.run ~jobs:1 n (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h -> check Alcotest.int (Printf.sprintf "seq task %d" i) 1 h)
    hits;
  let counts = Array.make n (-1) in
  Cgcm_support.Pool.run ~jobs:4 n (fun i -> counts.(i) <- i * i);
  Array.iteri
    (fun i v -> check Alcotest.int (Printf.sprintf "par task %d" i) (i * i) v)
    counts;
  check Alcotest.bool "pool retained workers" true
    (Cgcm_support.Pool.size () >= 2)

let test_pool_failure () =
  (match
     Cgcm_support.Pool.run ~jobs:4 8 (fun i ->
         if i = 5 then failwith "task five")
   with
  | () -> Alcotest.fail "expected the task failure to re-raise"
  | exception Failure m -> check Alcotest.string "failure message" "task five" m);
  (* the pool must still work after a failed batch *)
  let ok = Atomic.make 0 in
  Cgcm_support.Pool.run ~jobs:4 8 (fun _ -> Atomic.incr ok);
  check Alcotest.int "pool reusable after failure" 8 (Atomic.get ok)

let test_pool_jobs_parse () =
  check Alcotest.(option int) "parse 4" (Some 4)
    (Cgcm_support.Pool.parse_jobs "4");
  check Alcotest.(option int) "parse garbage" None
    (Cgcm_support.Pool.parse_jobs "four");
  check Alcotest.(option int) "parse zero" None
    (Cgcm_support.Pool.parse_jobs "0");
  check Alcotest.(option int) "clamped" (Some Cgcm_support.Pool.max_jobs)
    (Cgcm_support.Pool.parse_jobs "9999")

let tests =
  [
    Alcotest.test_case "avl empty" `Quick test_empty;
    Alcotest.test_case "avl add/find" `Quick test_add_find;
    Alcotest.test_case "avl replace" `Quick test_replace;
    Alcotest.test_case "avl greatest_leq" `Quick test_greatest_leq;
    Alcotest.test_case "avl least_geq" `Quick test_least_geq;
    Alcotest.test_case "avl remove" `Quick test_remove;
    Alcotest.test_case "avl bindings sorted" `Quick test_bindings_sorted;
    Alcotest.test_case "avl min/max" `Quick test_min_max;
    Alcotest.test_case "avl 1000 inserts" `Quick test_large_sequential;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_greatest_leq;
    Alcotest.test_case "stats geomean" `Quick test_geomean;
    Alcotest.test_case "stats mean/percent" `Quick test_mean_percent;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng range" `Quick test_rng_range;
    Alcotest.test_case "counter 4-domain hammer" `Quick test_counter_hammer;
    Alcotest.test_case "pool runs every task" `Quick test_pool_run;
    Alcotest.test_case "pool re-raises failures" `Quick test_pool_failure;
    Alcotest.test_case "pool jobs parsing" `Quick test_pool_jobs_parse;
  ]
