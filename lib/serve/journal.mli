(** Write-ahead journal of the serve daemon's recoverable state.

    The daemon's cross-request value — compiled-module cache, warm
    per-tenant device residency, circuit-breaker verdicts — is purely
    in-memory; a crash would forfeit all of it and every tenant would
    pay cold-start costs again. The journal makes that state crash-only:
    every durable fact is appended as a CRC-framed record (fsynced on
    every append) {e before} the reply that depends on it is
    sent, and a periodic snapshot bounds the file by folding the log
    into one record.

    What is journaled is the {e recipe}, not the bytes: sources and
    modes (recompilation is deterministic), warm manifests (rewarming
    re-establishes the same deterministic residency a fresh daemon
    would build), breaker states, and the device's [globals_gen]
    high-water mark. Device memory contents are deliberately not
    journaled — a kill forfeits them, and recovery rebuilds residency
    exactly as a fresh daemon serving the same requests would have.

    Replay tolerates a torn tail: a record cut short by the crash (or
    corrupted in its length, CRC or payload) ends replay at the last
    intact record instead of failing recovery. *)

(** Circuit-breaker state as journaled (mirrors [Engine.breaker] without
    a dependency cycle). *)
type breaker = B_closed | B_open of int  (** degraded runs left *) | B_half_open

type tenant_rec = {
  jt_name : string;
  jt_breaker : breaker;
  jt_consec : int;  (** consecutive circuit-countable failures *)
  jt_trips : int;
}

type compile_rec = { jc_mode : string; jc_source : string }

type warm_rec = {
  jw_tenant : string;
  jw_key : string;  (** the engine's cache key (digest of plan+source) *)
  jw_mode : string;
  jw_source : string;
}

type state = {
  js_compiles : compile_rec list;  (** oldest first, deduplicated *)
  js_warm : warm_rec list;  (** one per (tenant, key), oldest first *)
  js_tenants : tenant_rec list;
  js_globals_gen : int;  (** device generation high-water mark *)
}

type record =
  | Compile of compile_rec
  | Warm of warm_rec * int  (** [globals_gen] at warm time *)
  | Breaker of tenant_rec
  | Snapshot of state

type t

val create :
  ?snapshot_every:int ->
  ?initial:state ->
  path:string ->
  unit ->
  t
(** Start a fresh journal at [path] (truncating any previous file).
    [initial] (a replayed state, during recovery) is written immediately
    as a snapshot record so the new journal is self-contained from its
    first byte. [snapshot_every] (default 256) bounds the log by
    rotating once that many records accumulate since the last
    snapshot. *)

val append : t -> record -> unit
(** Frame, write and fsync one record, fold it into the in-memory
    aggregate, and rotate through a snapshot when due. *)

val close : t -> unit

val segment_path : string -> shards:int -> int -> string
(** The journal file for shard [i] of a [shards]-way daemon: the base
    path itself when [shards <= 1] (byte-compatible with single-shard
    journals), otherwise [base.shardI]. Tenants hash to shards
    deterministically, so a restart with the same shard count replays
    each tenant's state into the same shard. *)

type jstats = {
  j_appends : int;
  j_snapshots : int;  (** rotations taken *)
  j_fsyncs : int;
}

val stats : t -> jstats

type replay = {
  rp_state : state;
  rp_records : int;  (** intact records applied *)
  rp_torn : bool;  (** replay ended at a torn/corrupt record *)
}

val replay : path:string -> replay option
(** Read and fold the journal at [path]; [None] when no file exists.
    A bad magic header yields an empty, torn state rather than an
    error — crash-only recovery never refuses to start. *)
