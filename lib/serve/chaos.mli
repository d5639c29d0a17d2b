(** Kill-restart chaos harness for the serve daemon.

    Forks a real daemon (journal armed), drives a seeded request
    schedule over the unix socket, [kill -9]s the daemon at a seeded
    request index, appends a torn record to the journal, as a crash
    mid-append would, then restarts it with recovery and drives the rest
    of the schedule. Each request waits at most 20 s for its reply. The
    run gates on the crash-only contract:

    - every [Ok] reply, before and after the kill, is bit-identical to
      a fresh single-shot [Pipeline.run] of the same (mode, source);
    - every compiled module a pre-kill reply vouched for is a cache
      [hit] after recovery (durability of the journaled recipe);
    - recovery reports the injected torn tail;
    - both daemon generations shut down with zero device leaks and
      zero invariant violations (an unexpected daemon death is itself
      a violation).

    Failing schedules are shrunk greedily (drop requests, pull the kill
    earlier) to a minimal reproduction, mirroring the fuzzer's
    first-improvement discipline.

    Fork-based: callable only from a process that has not spawned
    domains (the [cgcm chaos] CLI qualifies; the alcotest suite, which
    shards kernel launches across domains first, does not). *)

type config = {
  ch_seed : int;
  ch_requests : int;  (** schedule length *)
  ch_dir : string;  (** working directory for socket/journal/logs *)
  ch_shards : int;
      (** shard count for the daemons under test: the kill lands while
          several per-shard journal segments are live, recovery must
          reassemble all of them, and the hit-after-recovery gate is
          tracked per shard (each has its own cache). The torn tail is
          injected into shard 0's segment. *)
}

val default_config : seed:int -> dir:string -> config
(** 30 requests, 1 shard. *)

type schedule = {
  sc_reqs : Wire.request list;
  sc_kill_at : int;
      (** the request index whose frame is written, after which the
          daemon is [kill -9]'d without reading the reply *)
}

type violation = { vio_phase : string; vio_detail : string }

type outcome = {
  oc_config : config;
  oc_schedule : schedule;
  oc_pre_ok : int;  (** replies received before the kill *)
  oc_lost : int;  (** requests in flight at the kill (no reply) *)
  oc_post_ok : int;  (** replies received after recovery *)
  oc_recovered_modules : int;
  oc_rewarmed : int;
  oc_recovered_tenants : int;
  oc_torn_replay : bool;  (** recovery saw the torn tail *)
  oc_post_hits : int;  (** post-recovery hits on pre-kill modules *)
  oc_violations : violation list;  (** empty = the gate holds *)
}

val run : config -> outcome
(** One kill-restart cycle over {!plan}'s schedule for the config's
    seed. *)

val run_schedule : config -> schedule -> outcome
(** The same cycle over an explicit schedule (the shrinker's hook). *)

val shrink :
  ?budget:int ->
  ?budget_ms:float ->
  run:(schedule -> outcome) ->
  schedule ->
  outcome ->
  schedule * outcome
(** Greedy first-improvement shrinking of a failing schedule: drop
    requests and pull the kill index earlier while any violation
    persists, bounded by [budget] (default 24) evaluations and
    [budget_ms] (default 120000) wall-clock. *)

val render_outcome : outcome -> string
(** One summary line, plus one line per violation. *)

val render_schedule : schedule -> string
(** The minimal reproduction: kill index and one line per request. *)
