(** The [cgcm serve] daemon: a select-driven unix-socket router over a
    {!Shard} group of request {!Engine}s.

    The router owns the sockets; shards own the engines. A "run" frame's
    tenant hashes to a shard, the request travels through that shard's
    inbox, and the reply returns through the group outbox tagged with
    its connection token. With [shards = 1] (the default) no worker
    domains exist and the router drives the single engine inline. With
    [shards > 1] socket I/O overlaps shard execution.

    Lifecycle hardening: startup probes (rather than clobbers) an
    existing socket file; {!stop} triggers a graceful drain; peers that
    stall mid-frame or never read their replies are dropped with a
    typed error frame.

    A "run" frame that is no valid request (no [source], or not a JSON
    object) is answered with a typed [{"status":"error"}] frame on its
    own connection, which stays open.

    Ops besides "run": "ping", "shutdown" and "stats". The "stats"
    reply sums the shards' engine counters (received, ok, shed, cache
    hits and misses, warm bytes, ...). Its [pending] is the router's
    count of posted "run" requests with no reply yet, wherever they
    wait: in a shard's inbox, in its engine queue, or executing. It
    adds the process's own GC
    counters once, from [Gc.quick_stat]: [gc_minor_collections],
    [gc_major_collections] and [gc_major_words] (words allocated on or
    promoted to the major heap). A shard domain's allocation joins them
    at its next minor collection. Deltas across a run of requests give
    the daemon's GC cost per request; a cache hit stays off the major
    heap (DESIGN.md §16). *)

type t

val create :
  ?engine_config:Engine.config ->
  ?journal_path:string ->
  ?shards:int ->
  ?read_deadline_s:float ->
  ?log:(string -> unit) ->
  socket_path:string ->
  unit ->
  t
(** Bind and listen on [socket_path]. An existing socket file is probed
    first: a live daemon behind it raises
    [Cgcm_support.Errors.Serve_socket_busy]; a dead daemon's stale file
    is reclaimed. [shards] (default 1) sets the worker-domain count;
    [journal_path] makes each shard replay, re-create and recover its
    own journal segment before serving ({!Journal.segment_path} — the
    base path itself when [shards = 1]). [read_deadline_s] (default
    10) bounds how long a peer may hold a frame open (slow-loris); the
    slow-loris test sets 0.2 so that it finishes in a fraction of a
    second. The graceful drain is bounded at 10 s. *)

val engine : t -> Engine.t
(** Shard 0's engine. With [shards > 1] this is only safe for racy stat
    reads or after {!run} returns; single-shard tests may drive it
    directly as before. *)

val shards : t -> int

val recovered : t -> Engine.recovery option
(** Aggregated journal recovery across shards. *)

val stop : t -> unit
(** Ask {!run} to wind down after the current iteration (signal-handler
    safe: it only sets a flag). *)

val draining : t -> bool
(** True once the graceful drain has begun: the listen socket is closed
    and unlinked, and new "run" frames are shed with a typed reply. *)

val run : t -> string * int
(** Serve until {!stop} or a [shutdown] frame, then drain gracefully:
    the listen socket closes and unlinks immediately (new connects fail
    fast), queued requests execute, replies flush, late frames on
    surviving connections are shed with a typed [Overloaded] reply —
    all bounded by the drain grace. Spawns the worker domains on entry
    and joins them on the way out. Returns the aggregated final stats
    line and the summed residual device block count (0 = leak-free). *)
