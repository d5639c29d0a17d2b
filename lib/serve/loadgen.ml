(* Load generator for the serve daemon ([cgcm bench -- serve] and the CI
   soak job).

   Drives a running daemon over its socket with a deterministic,
   seed-derived workload: a few program variants shared across tenants
   (so the compile cache sees hits), bursts of concurrent requests (so
   admission control sees pressure), an occasional spin program with a
   tiny deadline (so the fuel path fires), and a poison tenant whose
   requests carry an always-fire fault plan (so a breaker trips). The
   report aggregates client-observed outcomes and latencies. *)

module Rng = Cgcm_support.Rng

type report = {
  lr_requests : int;
  lr_ok : int;
  lr_shed : int;
  lr_deadline : int;
  lr_circuit_open : int;
  lr_errors : int;
  lr_degraded : int;
  lr_retries : int;
  lr_cache_hits : int;
  lr_cache_misses : int;
  lr_wall_s : float;
  lr_rps : float;
  lr_p50_ms : float;
  lr_p99_ms : float;
  lr_shed_rate : float;
  lr_cache_hit_rate : float;
}

(* A small family of CGC programs: one DOALL-able kernel over global
   arrays, sized by variant so distinct variants compile to distinct
   modules while repeats hit the cache. *)
let source ~variant =
  let n = 48 + (16 * (variant mod 4)) in
  Printf.sprintf
    {|// loadgen variant %d
global float A[%d];
global float B[%d];

void init() {
  for (int i = 0; i < %d; i++) {
    A[i] = (i %% 13 + 1) * 0.25;
    B[i] = 0.0;
  }
}

void saxpy(float k) {
  for (int i = 0; i < %d; i++) {
    B[i] = A[i] * k + B[i] + 1.0;
  }
}

int main() {
  init();
  saxpy(1.5);
  saxpy(0.5);
  float s = 0.0;
  for (int i = 0; i < %d; i++) {
    s = s + B[i];
  }
  print(s);
  return 0;
}
|}
    variant n n n n n

(* Unbounded work: only a deadline ends it. *)
let spin_source =
  {|int main() {
  float s = 0.0;
  int i = 0;
  while (i >= 0) {
    s = s + 1.0;
    i = i + 1;
    if (i > 1000000000) { i = 0; }
  }
  print(s);
  return 0;
}
|}

let modes = [| "opt"; "opt"; "opt"; "unopt"; "seq"; "unified" |]

(* Every 17th request (from the fourth) is a deadline probe. *)
let deadline_every = 17

let plan_request rng ~tenants ~poison k : Wire.request =
  if poison && k mod 9 = 4 then
    (* The poison tenant's driver always faults: transfers and launches
       fail on every attempt, so retries exhaust and its breaker trips.
       Non-strict, so once open it degrades to CPU-only and recovers. *)
    {
      rq_id = k;
      rq_tenant = "poison";
      rq_source = source ~variant:(k mod 4);
      rq_mode = "opt";
      rq_deadline = None;
      rq_strict = false;
      rq_faults = Some "7:htod%1.0,launch%1.0";
    }
  else if k mod deadline_every = 3 then
    {
      rq_id = k;
      rq_tenant = Printf.sprintf "t%d" (k mod tenants);
      rq_source = spin_source;
      rq_mode = "seq";
      rq_deadline = Some 20_000;
      rq_strict = false;
      rq_faults = None;
    }
  else
    {
      rq_id = k;
      rq_tenant = Printf.sprintf "t%d" (k mod tenants);
      rq_source = source ~variant:(Rng.int rng 4);
      rq_mode = modes.(Rng.int rng (Array.length modes));
      rq_deadline = None;
      rq_strict = false;
      rq_faults = None;
    }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let run ~socket_path ~tenants ~requests ?(burst = 16) ?(poison = true) ~seed
    () : report =
  let rng = Rng.stream ~seed 0 in
  let reqs = List.init requests (plan_request rng ~tenants ~poison) in
  let lat = ref [] in
  let ok = ref 0 and shed = ref 0 and deadline = ref 0 in
  let copen = ref 0 and errors = ref 0 and degraded = ref 0 in
  let retries = ref 0 and hits = ref 0 and misses = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* Bursts of [burst] in-flight requests: each rides its own
     connection, all frames are written before any reply is read, so the
     daemon's queue genuinely fills and admission control gets tested. *)
  let rec bursts = function
    | [] -> ()
    | rest ->
      let rec take n acc = function
        | r :: tl when n > 0 -> take (n - 1) (r :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let batch, rest = take burst [] rest in
      let conns =
        List.map
          (fun (r : Wire.request) ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            let sent = Unix.gettimeofday () in
            Wire.write_frame fd (Wire.request_to_json r);
            (fd, sent))
          batch
      in
      List.iter
        (fun (fd, sent) ->
          (match Wire.reply_of_json (Wire.read_frame fd) with
          | reply ->
            lat := ((Unix.gettimeofday () -. sent) *. 1000.0) :: !lat;
            (match reply.Wire.rp_status with
            | Wire.Ok -> incr ok
            | Wire.Overloaded -> incr shed
            | Wire.Deadline_exceeded -> incr deadline
            | Wire.Circuit_open -> incr copen
            | Wire.Error -> incr errors);
            if reply.Wire.rp_degraded then incr degraded;
            retries := !retries + reply.Wire.rp_retries;
            (match reply.Wire.rp_cache with
            | "hit" -> incr hits
            | "miss" -> incr misses
            | _ -> ())
          | exception _ -> incr errors);
          try Unix.close fd with Unix.Unix_error _ -> ())
        conns;
      bursts rest
  in
  bursts reqs;
  let wall_s = Unix.gettimeofday () -. t0 in
  let sorted = Array.of_list !lat in
  Array.sort compare sorted;
  let lookups = !hits + !misses in
  {
    lr_requests = requests;
    lr_ok = !ok;
    lr_shed = !shed;
    lr_deadline = !deadline;
    lr_circuit_open = !copen;
    lr_errors = !errors;
    lr_degraded = !degraded;
    lr_retries = !retries;
    lr_cache_hits = !hits;
    lr_cache_misses = !misses;
    lr_wall_s = wall_s;
    lr_rps = (if wall_s > 0.0 then float_of_int requests /. wall_s else 0.0);
    lr_p50_ms = percentile sorted 0.50;
    lr_p99_ms = percentile sorted 0.99;
    lr_shed_rate = float_of_int !shed /. float_of_int (max 1 requests);
    lr_cache_hit_rate =
      (if lookups = 0 then 0.0
       else float_of_int !hits /. float_of_int lookups);
  }

let report_json r : Json.t =
  Obj
    [
      ("requests", Json.Int r.lr_requests);
      ("ok", Json.Int r.lr_ok);
      ("shed", Json.Int r.lr_shed);
      ("deadline_exceeded", Json.Int r.lr_deadline);
      ("circuit_open", Json.Int r.lr_circuit_open);
      ("errors", Json.Int r.lr_errors);
      ("degraded", Json.Int r.lr_degraded);
      ("retries", Json.Int r.lr_retries);
      ("cache_hits", Json.Int r.lr_cache_hits);
      ("cache_misses", Json.Int r.lr_cache_misses);
      ("wall_s", Json.Float r.lr_wall_s);
      ("requests_per_sec", Json.Float r.lr_rps);
      ("p50_ms", Json.Float r.lr_p50_ms);
      ("p99_ms", Json.Float r.lr_p99_ms);
      ("shed_rate", Json.Float r.lr_shed_rate);
      ("cache_hit_rate", Json.Float r.lr_cache_hit_rate);
    ]
