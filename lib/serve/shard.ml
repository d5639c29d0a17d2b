(* Shard group: the execution side of a sharded serve daemon.

   A group owns N full {!Engine}s — each with its own compiled-module
   LRU, warm residency device, journal segment and breakers — and, when
   N > 1, one long-lived worker domain per engine. Tenants hash to
   shards deterministically ({!tenant_shard}), so every piece of
   mutable engine state (residency, [globals_gen], breakers, stats) has
   exactly one owning domain and nothing is ever shared; the router
   never touches an engine that has a worker domain, it only exchanges
   messages with it.

   Plumbing:

   - inbox: per-shard queue (mutex + condition) the router pushes
     decoded requests into; the worker drains it, admits every message
     through [Engine.submit] (or [Engine.shed_request], for requests
     that arrived while the daemon drains), then executes one request
     ([Engine.step]) before looking at the inbox again, so admission
     keeps shedding while a burst drains, exactly like the single-loop
     daemon;
   - outbox: one shared queue of (token, reply) the workers push
     replies into, plus a self-pipe whose write end the workers poke so
     the router's [select] wakes for write-back — this is the overlap
     layer: the router keeps reading and writing sockets while shards
     compute;
   - with N = 1 no domain is spawned and the router drives the engine
     inline ([step_inline]); a worker domain there measured no resolved
     throughput gain on serve-cold and 2 MB more peak RSS (DESIGN.md
     §16).

   Shutdown: close every inbox, join the worker domains (the join is
   the happens-before edge that hands each engine back to the router's
   domain), then shut each engine down sequentially. *)

type msg = {
  m_token : int;  (* router's connection token, echoed with the reply *)
  m_shed : string option;  (* Some reason = reject at the door *)
  m_req : Wire.request;
}

type shard = {
  s_engine : Engine.t;
  s_inbox : msg Queue.t;
  s_lock : Mutex.t;
  s_cond : Condition.t;
  mutable s_closed : bool;
  mutable s_domain : unit Domain.t option;
}

type group = {
  g_shards : shard array;
  g_out : (int * Wire.reply) Queue.t;  (* token, reply *)
  g_out_lock : Mutex.t;
  g_wake_r : Unix.file_descr option;
  g_wake_w : Unix.file_descr option;
  g_wake_byte : Bytes.t;  (* only ever read, so the workers share it *)
  g_drain_buf : Bytes.t;  (* the router's wake-pipe drain *)
}

(* ------------------------------------------------------------------ *)
(* Tenant placement                                                    *)

(* FNV-1a (32-bit) over the tenant name: deterministic across processes
   and restarts (never OCaml's randomized/hash-table hashing), so
   journal recovery lands each tenant's warm state on the shard that
   owned it before the crash. A pure function of (name, shard count):
   growing the tenant set never moves an existing tenant. *)
let tenant_shard ~shards name =
  if shards <= 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x01000193 land 0xffffffff)
      name;
    !h mod shards
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(engine_config = Engine.default_config) ?journal_path
    ?(count = 1) () =
  if count < 1 || count > 64 then
    invalid_arg "Shard.create: count must be in [1, 64]";
  let mk i =
    let journal, replayed =
      match journal_path with
      | Some base ->
        let seg = Journal.segment_path base ~shards:count i in
        let replayed = Journal.replay ~path:seg in
        let j =
          Journal.create ~path:seg
            ?initial:(Option.map (fun r -> r.Journal.rp_state) replayed)
            ()
        in
        (Some j, replayed)
      | None -> (None, None)
    in
    let engine = Engine.create ~config:engine_config ?journal () in
    Option.iter
      (fun rp -> ignore (Engine.recover engine rp : Engine.recovery))
      replayed;
    {
      s_engine = engine;
      s_inbox = Queue.create ();
      s_lock = Mutex.create ();
      s_cond = Condition.create ();
      s_closed = false;
      s_domain = None;
    }
  in
  let shards = Array.init count mk in
  let wake_r, wake_w =
    if count > 1 then begin
      let r, w = Unix.pipe () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      (Some r, Some w)
    end
    else (None, None)
  in
  {
    g_shards = shards;
    g_out = Queue.create ();
    g_out_lock = Mutex.create ();
    g_wake_r = wake_r;
    g_wake_w = wake_w;
    g_wake_byte = Bytes.make 1 'w';
    g_drain_buf = Bytes.create 256;
  }

let count g = Array.length g.g_shards
let inline g = count g = 1
let engine g i = g.g_shards.(i).s_engine
let engines g = Array.map (fun s -> s.s_engine) g.g_shards
let shard_of g tenant = tenant_shard ~shards:(count g) tenant
let wake_fd g = g.g_wake_r

let recovered g =
  Engine.sum_recoveries
    (Array.to_list g.g_shards
    |> List.filter_map (fun s -> Engine.recovered s.s_engine))

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

let wake g =
  match g.g_wake_w with
  | None -> ()
  | Some fd -> (
    try ignore (Unix.write fd g.g_wake_byte 0 1 : int)
    with
    | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EPIPE), _, _) ->
      (* a full pipe already guarantees a pending wake-up *)
      ())

let push_reply g token reply =
  Mutex.lock g.g_out_lock;
  Queue.add (token, reply) g.g_out;
  Mutex.unlock g.g_out_lock;
  wake g

let admit g s (m : msg) =
  let deliver = push_reply g m.m_token in
  match m.m_shed with
  | Some reason -> Engine.shed_request s.s_engine m.m_req deliver ~reason
  | None ->
    ignore (Engine.submit s.s_engine m.m_req deliver : [ `Queued | `Shed ])

(* The shard loop: drain the inbox (admitting everything, so queue-full
   sheds fire while a burst is in flight), execute ONE request, then
   look at the inbox again. Interleaving admission with execution at
   request granularity is what preserves the single-loop daemon's
   shed-at-the-door behavior. *)
let worker g s =
  let running = ref true in
  while !running do
    Mutex.lock s.s_lock;
    while
      Queue.is_empty s.s_inbox
      && (not s.s_closed)
      && Engine.pending s.s_engine = 0
    do
      Condition.wait s.s_cond s.s_lock
    done;
    let msgs = ref [] in
    while not (Queue.is_empty s.s_inbox) do
      msgs := Queue.pop s.s_inbox :: !msgs
    done;
    let closed = s.s_closed in
    Mutex.unlock s.s_lock;
    List.iter (admit g s) (List.rev !msgs);
    let processed = Engine.step s.s_engine in
    if (not processed) && closed then begin
      (* closed and idle: exit only if nothing slipped in meanwhile *)
      Mutex.lock s.s_lock;
      if Queue.is_empty s.s_inbox && Engine.pending s.s_engine = 0 then
        running := false;
      Mutex.unlock s.s_lock
    end
  done

let start g =
  if not (inline g) then
    Array.iter
      (fun s ->
        if s.s_domain = None then
          s.s_domain <- Some (Domain.spawn (fun () -> worker g s)))
      g.g_shards

(* ------------------------------------------------------------------ *)
(* Router side                                                         *)

let post g ~shard ~token ?shed req =
  let s = g.g_shards.(shard) in
  let m = { m_token = token; m_shed = shed; m_req = req } in
  if inline g then admit g s m
  else begin
    Mutex.lock s.s_lock;
    Queue.add m s.s_inbox;
    Condition.signal s.s_cond;
    Mutex.unlock s.s_lock
  end

(* Inline mode only: one engine step per router iteration, the original
   single-threaded daemon's cadence. *)
let step_inline g =
  if inline g then ignore (Engine.step g.g_shards.(0).s_engine : bool)

let pending_inline g =
  if inline g then Engine.pending g.g_shards.(0).s_engine else 0

(* Collect every finished reply, draining the wake pipe alongside. *)
let drain_replies g =
  (match g.g_wake_r with
  | None -> ()
  | Some fd -> (
    let b = g.g_drain_buf in
    try
      while Unix.read fd b 0 (Bytes.length b) > 0 do
        ()
      done
    with
    | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      ()));
  Mutex.lock g.g_out_lock;
  let out = ref [] in
  while not (Queue.is_empty g.g_out) do
    out := Queue.pop g.g_out :: !out
  done;
  Mutex.unlock g.g_out_lock;
  List.rev !out

(* Close inboxes, join workers (the happens-before edge handing each
   engine back to this domain), then shut every engine down. Returns
   the summed residual device-block count (0 = leak-free). *)
let stop g =
  Array.iter
    (fun s ->
      Mutex.lock s.s_lock;
      s.s_closed <- true;
      Condition.broadcast s.s_cond;
      Mutex.unlock s.s_lock)
    g.g_shards;
  Array.iter
    (fun s ->
      match s.s_domain with
      | Some d ->
        Domain.join d;
        s.s_domain <- None
      | None -> ())
    g.g_shards;
  let residual =
    Array.fold_left (fun acc s -> acc + Engine.shutdown s.s_engine) 0 g.g_shards
  in
  (match g.g_wake_r with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (match g.g_wake_w with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  residual
