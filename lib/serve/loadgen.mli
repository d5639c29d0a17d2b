(** Deterministic load generator for the serve daemon
    ([cgcm bench -- serve] and the CI soak job): bursts of concurrent
    requests over a seed-derived workload mixing a few cached program
    variants, deadline-bombed spin programs, and a poison tenant whose
    fault plan always fires. *)

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
  lr_cache_hit_rate : float;  (** client-observed, from reply cache tags *)
}

val source : variant:int -> string
(** One of the workload's CGC program variants (deterministic). *)

val spin_source : string
(** Unbounded work; only a deadline ends it. *)

val run :
  socket_path:string ->
  tenants:int ->
  requests:int ->
  ?burst:int ->
  ?poison:bool ->
  seed:int ->
  unit ->
  report
(** Drive a running daemon. [burst] requests are in flight at once, each
    on its own connection, all written before any reply is read — so
    admission control genuinely sees the burst. *)

val report_json : report -> Json.t
