(** Shard group: per-shard engines on worker domains behind a message
    interface.

    The sharded serve daemon splits into a {e router} (the socket loop
    in {!Server}) and a group of {e shards}, each owning a complete
    {!Engine.t} — compiled-module LRU, warm residency device, journal
    segment, circuit breakers. Tenants are assigned to shards by a
    deterministic string hash, so all mutable engine state has exactly
    one owning domain; the router communicates with shards only through
    per-shard inboxes and one shared reply outbox (whose self-pipe wakes
    the router's [select]). With [count = 1] no domains are spawned and
    the router drives the single engine inline: measured on serve-cold,
    that saves the worker domain's 2 MB of peak RSS, while the worker's
    throughput edge stayed within run-to-run spread (DESIGN.md §16). *)

type group

val tenant_shard : shards:int -> string -> int
(** Deterministic tenant placement: FNV-1a over the tenant name, mod
    [shards]. A pure function of (name, shard count) — stable across
    processes, restarts, and tenant-set growth — so journal recovery
    replays each tenant's state into the shard that owned it before a
    crash. Always 0 when [shards <= 1]. *)

val create :
  ?engine_config:Engine.config ->
  ?journal_path:string ->
  ?count:int ->
  unit ->
  group
(** Build [count] (default 1, max 64) engines. With [journal_path],
    each shard replays, re-creates and recovers its own journal segment
    ({!Journal.segment_path}) before serving; without it no shard
    journals. *)

val start : group -> unit
(** Spawn one worker domain per shard. No-op when [count = 1] (the
    router drives the engine via {!step_inline} instead). Do not call
    from a process that intends to [Unix.fork] afterwards: OCaml 5
    forbids forking a multi-domain process. *)

val count : group -> int

val engine : group -> int -> Engine.t
(** Shard [i]'s engine. Off the router thread this is safe only for
    racy stat reads (documented stale-but-safe) or after {!stop}. *)

val engines : group -> Engine.t array

val shard_of : group -> string -> int
(** [tenant_shard ~shards:(count g)] over the tenant name. *)

val recovered : group -> Engine.recovery option
(** Aggregated journal recovery across shards ([Engine.sum_recoveries]). *)

val post : group -> shard:int -> token:int -> ?shed:string -> Wire.request -> unit
(** Hand a decoded request to its shard. [shed] marks a router-side
    door rejection (a daemon draining for shutdown); the shard still owns the
    stat mutation and the [Overloaded] reply. Inline groups admit the
    request immediately on the caller's thread. *)

val step_inline : group -> unit
(** Inline groups only: execute one queued request ([Engine.step]). *)

val pending_inline : group -> int
(** Inline groups: the engine's queue depth. 0 for multi-shard groups
    (workers drain their own queues). *)

val wake_fd : group -> Unix.file_descr option
(** Read end of the reply self-pipe — add it to the router's [select]
    read set. [None] for inline groups. *)

val drain_replies : group -> (int * Wire.reply) list
(** All finished [(token, reply)] pairs, in completion order,
    draining the wake pipe alongside. *)

val stop : group -> int
(** Close every inbox, join the worker domains (the happens-before edge
    handing the engines back to the caller), shut each engine down, and
    return the summed residual device-block count (0 = leak-free). *)
