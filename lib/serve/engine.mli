(** The serve daemon's request engine, independent of any transport.

    Holds the robustness envelope — admission control with typed
    [Overloaded] sheds, per-request deadlines via the interpreter's fuel
    budget, immediate retry of injected transient faults under a fresh
    fault substream, per-tenant circuit breakers that degrade to
    CPU-only execution, and crash-only invariant audits between
    requests — plus the cross-request compiled-module LRU and the shared
    {!Residency} state. The socket server is a thin shell over
    {!submit}/{!step}; tests drive the engine directly.

    The envelope's other settings are fixed: a request without its own
    deadline gets 50,000,000 fuel; an injected fault is retried up to 3
    times; 3 consecutive device-path failures trip a tenant's breaker;
    the LRU holds 128 modules; and admission sheds once warm residency
    reaches 0.9 of [device_mem]. *)

type config = {
  max_queue : int;  (** admission bound: shed beyond this queue depth *)
  device_mem : int;  (** daemon device capacity; [max_int] = unbounded *)
  faults : Cgcm_gpusim.Faults.spec option;
      (** daemon-wide injected-fault plan; each execution attempt gets a
          derived seed substream *)
}

val default_config : config

type breaker = Closed | Open of int | Half_open

type stats = {
  mutable received : int;
  mutable ok : int;
  mutable shed : int;
  mutable deadline_exceeded : int;
  mutable circuit_rejected : int;  (** strict requests under an open breaker *)
  mutable failed : int;
  mutable degraded_runs : int;  (** CPU-only runs under an open breaker *)
  mutable retries : int;
  mutable circuit_trips : int;
}

val sum_stats : stats list -> stats
(** Cross-shard aggregation: every counter summed. A sharded daemon's
    global stats are exactly the sums of its shards' stats, because each
    request is owned by exactly one shard. *)

type recovery = {
  rec_records : int;  (** intact journal records replayed *)
  rec_torn : bool;  (** replay ended at a torn/corrupt record *)
  rec_compiled : int;  (** cache entries rebuilt by recompilation *)
  rec_rewarmed : int;  (** warm manifest entries re-established *)
  rec_tenants : int;  (** breaker states restored *)
  rec_skipped : int;  (** unreplayable records (corrupt mode/source) *)
}

val sum_recoveries : recovery list -> recovery option
(** Aggregate per-shard recoveries: counts sum, torn if any shard's
    replay was torn; [None] for the empty list (no shard replayed). *)

type t

val create : ?config:config -> ?journal:Journal.t -> unit -> t
(** With [journal], every durable fact (compile recipe, warm manifest
    entry, breaker transition) is appended — and fsynced per the
    journal's cadence — before the reply depending on it is sent. *)

val stats : t -> stats
val residency : t -> Residency.t
val cache_stats : t -> Cache.stats
val cache_hit_rate : t -> float
val pending : t -> int
val breaker_of : t -> string -> breaker
val trips_of : t -> string -> int
val journal : t -> Journal.t option
val recovered : t -> recovery option

val cache_key_of_mode : mode:string -> string -> string
(** The compiled-module cache key a request with this mode and source
    resolves to (exposed for the chaos harness's hit predictions). *)

val recover : t -> Journal.replay -> recovery
(** Rebuild the engine from a replayed journal: recompile every
    journaled (mode, source), rewarm the residency manifest, restore
    breaker states, and advance the device generation to its journaled
    high-water mark. Corrupt records are skipped and counted, never
    fatal. Call once, before serving. *)

val submit :
  t -> Wire.request -> (Wire.reply -> unit) -> [ `Queued | `Shed ]
(** Admission: either enqueue the request or deliver an [Overloaded]
    reply immediately (queue full, or warm residency past the
    high-water mark — the latter also evicts one LRU warm unit so the
    pressure clears). *)

val shed_request :
  t -> Wire.request -> (Wire.reply -> unit) -> reason:string -> unit
(** Shed a request at the door with a typed [Overloaded] reply carrying
    [reason], counting it as received. The sharded router forwards
    door-rejections here so every stat mutation happens on the engine's
    owning shard. *)

val step : t -> bool
(** Execute one queued request, deliver its reply, and audit the shared
    residency invariants. False when the queue is empty. *)

val drain : t -> unit

val process : t -> Wire.request -> Wire.reply
(** Execute one request immediately, bypassing the queue (used by
    {!step} and by tests that want synchronous replies). *)

val shutdown : t -> int
(** Drain the queue, then tear down all warm residency and return the
    number of device blocks still live (0 = clean). *)

val final_line : t -> residual:int -> string
(** The daemon's final stats line: received/ok/shed/deadline/
    circuit_open/errors/degraded/retries/trips/cross-evictions/cache hit
    rate/leaks. *)

val final_line_of :
  stats:stats ->
  cross_evictions:int ->
  cache_hit_rate:float ->
  residual:int ->
  string
(** {!final_line} over explicit (typically cross-shard aggregated)
    values. *)
