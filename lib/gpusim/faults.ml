(* Deterministic fault injection for the simulated driver.

   A fault *plan* is a seed plus a list of clauses; each clause targets
   one driver entry point (cuMemAlloc, cuMemcpyHtoD, cuMemcpyDtoH,
   cuLaunch) and fires either on the n-th call of that operation or with
   probability p per call under a splitmix64 stream derived from the
   seed. Plans are replayable: the same plan against the same program
   fires at exactly the same call sites, which is what lets the fault-
   soak differential tests demand bit-identical program output.

   Each operation draws from its own PRNG stream, so adding a clause for
   one operation never perturbs the fault schedule of another. *)

module Rng = Cgcm_support.Rng

type op = Alloc | Htod | Dtoh | Launch

type mode =
  | Nth of int  (* fire on the n-th call (1-based), once *)
  | Prob of float  (* fire with probability p per call *)

type clause = { c_op : op; c_mode : mode }

type spec = { seed : int; clauses : clause list }

let op_name = function
  | Alloc -> "alloc"
  | Htod -> "htod"
  | Dtoh -> "dtoh"
  | Launch -> "launch"

let op_index = function Alloc -> 0 | Htod -> 1 | Dtoh -> 2 | Launch -> 3

let op_of_name = function
  | "alloc" -> Some Alloc
  | "htod" -> Some Htod
  | "dtoh" -> Some Dtoh
  | "launch" -> Some Launch
  | _ -> None

(* The plan used when only a seed is given: a light probabilistic shower
   over every operation — enough to exercise every recovery path on the
   benchmark suite without making runs unrecoverable. *)
let default_clauses =
  List.map
    (fun op -> { c_op = op; c_mode = Prob 0.05 })
    [ Alloc; Htod; Dtoh; Launch ]

(* ------------------------------------------------------------------ *)
(* Plan syntax: SEED[:CLAUSE,CLAUSE,...] with CLAUSE = op@N | op%P     *)

let parse_clause s =
  let bad () =
    failwith
      (Printf.sprintf
         "bad fault clause %S (expected op@N or op%%P with op one of \
          alloc|htod|dtoh|launch)"
         s)
  in
  let split_on c =
    match String.index_opt s c with
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  match split_on '@' with
  | Some (opn, n) -> (
    match (op_of_name opn, int_of_string_opt n) with
    | Some op, Some n when n >= 1 -> { c_op = op; c_mode = Nth n }
    | _ -> bad ())
  | None -> (
    match split_on '%' with
    | Some (opn, p) -> (
      match (op_of_name opn, float_of_string_opt p) with
      | Some op, Some p when p >= 0.0 && p <= 1.0 ->
        { c_op = op; c_mode = Prob p }
      | _ -> bad ())
    | None -> bad ())

let parse s =
  let seed_str, rest =
    match String.index_opt s ':' with
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  let seed =
    match int_of_string_opt (String.trim seed_str) with
    | Some n -> n
    | None ->
      failwith
        (Printf.sprintf "bad fault plan %S (expected SEED[:SPEC])" s)
  in
  let clauses =
    match rest with
    | None | Some "" -> default_clauses
    | Some r ->
      String.split_on_char ',' r
      |> List.filter (fun c -> String.trim c <> "")
      |> List.map (fun c -> parse_clause (String.trim c))
  in
  { seed; clauses }

let clause_to_string c =
  match c.c_mode with
  | Nth n -> Printf.sprintf "%s@%d" (op_name c.c_op) n
  | Prob p -> Printf.sprintf "%s%%%g" (op_name c.c_op) p

let to_string spec =
  Printf.sprintf "%d:%s" spec.seed
    (String.concat "," (List.map clause_to_string spec.clauses))

(* ------------------------------------------------------------------ *)
(* A live (stateful) instance of a plan                                *)

type clause_state = { clause : clause; mutable count : int }

type t = { states : clause_state list; streams : Rng.t array }

let make spec =
  {
    states = List.map (fun c -> { clause = c; count = 0 }) spec.clauses;
    (* one independent stream per operation, derived from the seed *)
    streams = Array.init 4 (fun i -> Rng.stream ~seed:spec.seed i);
  }

(* Should the next call of [op] fail? Advances every matching clause, so
   a plan instance must be consulted exactly once per driver call. *)
let fires t op =
  let fired = ref false in
  List.iter
    (fun st ->
      if st.clause.c_op = op then
        match st.clause.c_mode with
        | Nth n ->
          st.count <- st.count + 1;
          if st.count = n then fired := true
        | Prob p ->
          if Rng.float t.streams.(op_index op) < p then fired := true)
    t.states;
  !fired
