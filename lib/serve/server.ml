(* The cgcm serve daemon: a select-driven unix-socket router over a
   {!Shard} group of request {!Engine}s.

   The router owns everything socket-shaped — accepting connections,
   framing, write-back, lifecycle — and nothing engine-shaped. A "run"
   frame is decoded, its tenant hashed to a shard, and the request
   posted to that shard's inbox; the reply comes back through the
   group's outbox tagged with the connection token it belongs to. With
   [shards = 1] (the default) no worker domains exist and the router
   drives the single engine inline, one queued request per loop
   iteration, which measured lighter on memory than one worker domain
   at no resolved throughput cost (DESIGN.md §16).
   With [shards > 1] the router keeps reading and writing sockets while
   the shards compute: I/O and execution overlap, and tenants on
   different shards no longer queue behind each other's requests.

   Admission is the engine's alone: its queue and device-memory bounds
   shed on the owning shard. Even the router's one door rejection, a
   "run" frame that arrives while the daemon drains, is forwarded to
   the owning shard as a shed message, so every stat mutation happens
   on the shard's domain; the router's only reads
   of live engine state are the stats op's aggregation, which is
   documented stale-but-safe (racy reads of word-sized counters) and
   exact once the daemon quiesces.

   Lifecycle hardening (unchanged from the single-loop daemon):

   - startup probes an existing socket file instead of clobbering it: a
     live daemon behind it is a typed [Serve_socket_busy] refusal, a
     dead one's stale file is reclaimed;
   - SIGTERM (or a shutdown frame) triggers a graceful drain — the
     listen socket closes and unlinks immediately so new connects fail
     fast, in-flight requests finish and their replies flush, late
     "run" frames on surviving connections get a typed shed;
   - hostile clients are bounded: a peer holding a frame open past the
     read deadline (slow-loris) or exceeding the write-back cap is sent
     a typed error and dropped; oversized length prefixes never reach
     buffering (see {!Wire.decoder_feed}). *)

module Errors = Cgcm_support.Errors

type conn = {
  token : int;  (* routes replies back from the shard outbox *)
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable out : Bytes.t list;  (* pending write-back, oldest first *)
  mutable out_off : int;  (* progress into the head buffer *)
  mutable out_bytes : int;  (* total buffered write-back *)
  mutable frame_t0 : float option;  (* when the pending partial frame began *)
}

type t = {
  shards : Shard.group;
  socket_path : string;
  listen_fd : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  by_token : (int, conn) Hashtbl.t;
  mutable next_token : int;
  mutable inflight : int;  (* "run" requests posted minus replied *)
  rbuf : Bytes.t;
      (* every socket read lands here; the decoder copies what it keeps *)
  log : string -> unit;
  read_deadline_s : float;
  mutable stopping : bool;
  mutable draining : bool;
  mutable listening : bool;
}

(* A peer that never reads its replies must not buffer the daemon into
   the ground; past this, it is dropped. Generous: dozens of max-size
   frames. *)
let max_conn_out_bytes = 64 * 1024 * 1024

(* How long the graceful drain may take before teardown. *)
let drain_grace_s = 10.0

(* Probe an existing socket file: a connect that succeeds means a live
   daemon owns the name; ECONNREFUSED (or a vanished file) means a
   crashed daemon left it behind and the name is reclaimable. *)
let socket_live path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let create ?(engine_config = Engine.default_config) ?journal_path ?(shards = 1)
    ?(read_deadline_s = 10.0) ?(log = ignore) ~socket_path () =
  (if Sys.file_exists socket_path then
     if socket_live socket_path then
       raise (Errors.Serve_socket_busy { sb_path = socket_path })
     else begin
       log
         (Printf.sprintf "serve: reclaiming stale socket %s (no live daemon)"
            socket_path);
       try Unix.unlink socket_path with Unix.Unix_error _ -> ()
     end);
  let group = Shard.create ~engine_config ?journal_path ~count:shards () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  {
    shards = group;
    socket_path;
    listen_fd;
    conns = Hashtbl.create 16;
    by_token = Hashtbl.create 16;
    next_token = 0;
    inflight = 0;
    rbuf = Bytes.create 8192;
    log;
    read_deadline_s;
    stopping = false;
    draining = false;
    listening = true;
  }

let engine t = Shard.engine t.shards 0
let shards t = Shard.count t.shards
let recovered t = Shard.recovered t.shards
let stop t = t.stopping <- true
let draining t = t.draining

let drop_conn t c =
  Hashtbl.remove t.conns c.fd;
  Hashtbl.remove t.by_token c.token;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let send t c (v : Json.t) =
  let b = Wire.encode_frame v in
  c.out <- c.out @ [ b ];
  c.out_bytes <- c.out_bytes + Bytes.length b;
  if c.out_bytes > max_conn_out_bytes then begin
    t.log "serve: write-back cap exceeded, dropping peer";
    drop_conn t c
  end

(* Flush as much buffered write-back as the socket accepts. A dead peer
   (EPIPE) just loses its replies; the daemon carries on. *)
let flush_conn t c =
  try
    let continue = ref true in
    while !continue && c.out <> [] do
      match c.out with
      | [] -> continue := false
      | b :: rest ->
        let n =
          Unix.write c.fd b c.out_off (Bytes.length b - c.out_off)
        in
        c.out_off <- c.out_off + n;
        c.out_bytes <- c.out_bytes - n;
        if c.out_off >= Bytes.length b then begin
          c.out <- rest;
          c.out_off <- 0
        end
    done
  with
  | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> drop_conn t c

let error_frame msg : Json.t =
  Obj [ ("status", Json.Str "error"); ("error", Json.Str msg) ]

(* Deliver a typed last-words error frame, then drop: a misbehaving
   peer learns why instead of seeing a bare hangup. Best-effort — the
   flush takes whatever the socket accepts right now. *)
let send_error_and_drop t c msg =
  send t c (error_frame msg);
  if Hashtbl.mem t.conns c.fd then begin
    flush_conn t c;
    drop_conn t c
  end

(* The counters the stats op and the final line report, summed over
   the shards' engines. *)
type totals = {
  stats : Engine.stats;
  hits : int;
  misses : int;
  hit_rate : float;
  cross_evictions : int;
}

let totals engines =
  let sum f = Array.fold_left (fun acc e -> acc + f e) 0 engines in
  let hits = sum (fun e -> (Engine.cache_stats e).Cache.hits) in
  let misses = sum (fun e -> (Engine.cache_stats e).Cache.misses) in
  {
    stats = Engine.sum_stats (Array.to_list (Array.map Engine.stats engines));
    hits;
    misses;
    hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    cross_evictions =
      sum (fun e -> Residency.cross_evictions (Engine.residency e));
  }

(* Aggregated across shards. Off the router's domain these are racy
   reads of word-sized counters — stale but never torn (OCaml memory
   model); once the daemon quiesces (replies drained through the outbox
   mutex) they are exact. The [gc_*] fields are the runtime's own
   process-wide counters, reported once: a shard domain's allocation
   joins them at its next minor collection. *)
let stats_json t : Json.t =
  let gc = Gc.quick_stat () in
  let engines = Shard.engines t.shards in
  let tot = totals engines in
  let s = tot.stats in
  let el = Array.to_list engines in
  let journal_stats =
    List.filter_map (fun e -> Option.map Journal.stats (Engine.journal e)) el
  in
  Obj
    ([
       ("status", Json.Str "ok");
       ("shards", Json.Int (Shard.count t.shards));
       ("received", Json.Int s.Engine.received);
       ("ok", Json.Int s.Engine.ok);
       ("shed", Json.Int s.Engine.shed);
       ("deadline_exceeded", Json.Int s.Engine.deadline_exceeded);
       ("circuit_open", Json.Int s.Engine.circuit_rejected);
       ("errors", Json.Int s.Engine.failed);
       ("degraded", Json.Int s.Engine.degraded_runs);
       ("retries", Json.Int s.Engine.retries);
       ("trips", Json.Int s.Engine.circuit_trips);
       ("pending", Json.Int t.inflight);
       ("cache_hits", Json.Int tot.hits);
       ("cache_misses", Json.Int tot.misses);
       ("cache_hit_rate", Json.Float tot.hit_rate);
       ( "warm_bytes",
         Json.Int
           (List.fold_left
              (fun acc e -> acc + Residency.warm_bytes (Engine.residency e))
              0 el) );
       ("cross_evictions", Json.Int tot.cross_evictions);
       ("draining", Json.Bool t.draining);
       ("gc_minor_collections", Json.Int gc.Gc.minor_collections);
       ("gc_major_collections", Json.Int gc.Gc.major_collections);
       ("gc_major_words", Json.Int (int_of_float gc.Gc.major_words));
     ]
    @ (match journal_stats with
      | [] -> []
      | js ->
        [
          ( "journal_appends",
            Json.Int
              (List.fold_left (fun a j -> a + j.Journal.j_appends) 0 js) );
          ( "journal_snapshots",
            Json.Int
              (List.fold_left (fun a j -> a + j.Journal.j_snapshots) 0 js) );
        ])
    @
    match Shard.recovered t.shards with
    | Some r ->
      [
        ("recovered", Json.Bool true);
        ("recovered_records", Json.Int r.Engine.rec_records);
        ("recovered_modules", Json.Int r.Engine.rec_compiled);
        ("rewarmed", Json.Int r.Engine.rec_rewarmed);
        ("recovered_tenants", Json.Int r.Engine.rec_tenants);
        ("journal_torn", Json.Bool r.Engine.rec_torn);
      ]
    | None -> [])

(* A frame that decodes but is no valid request is answered with a
   typed error on its own connection; the frame boundary is intact, so
   the peer may go on sending. *)
let handle_frame t c (v : Json.t) =
  match Json.str_field ~default:"run" "op" v with
  | "run" -> (
    match Wire.request_of_json v with
    | req ->
      let shed = if t.draining then Some "draining" else None in
      t.inflight <- t.inflight + 1;
      Shard.post t.shards
        ~shard:(Shard.shard_of t.shards req.Wire.rq_tenant)
        ~token:c.token ?shed req
    | exception Wire.Protocol_error msg ->
      t.log (Printf.sprintf "serve: malformed request: %s" msg);
      send t c (error_frame ("cgcm serve: protocol error: " ^ msg)))
  | "ping" -> send t c (Obj [ ("status", Json.Str "ok") ])
  | "stats" -> send t c (stats_json t)
  | "shutdown" ->
    t.stopping <- true;
    send t c (Obj [ ("status", Json.Str "ok"); ("stopping", Json.Bool true) ])
  | op -> send t c (error_frame (Printf.sprintf "unknown op %S" op))

let read_conn t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> drop_conn t c
  | n -> (
    match
      Wire.decoder_feed c.dec t.rbuf n;
      Wire.decoder_drain c.dec
    with
    | frames ->
      (* Arm (or clear) the slow-loris clock: it runs only while a
         partial frame is pending. *)
      c.frame_t0 <-
        (if Wire.decoder_buffered c.dec then
           match c.frame_t0 with
           | Some _ as s -> s
           | None -> Some (Unix.gettimeofday ())
         else None);
      List.iter (handle_frame t c) frames
    | exception Wire.Protocol_error msg ->
      t.log (Printf.sprintf "serve: protocol error, dropping peer: %s" msg);
      send_error_and_drop t c ("cgcm serve: protocol error: " ^ msg))
  | exception
      Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> drop_conn t c
  | exception Wire.Protocol_error msg ->
    t.log (Printf.sprintf "serve: protocol error, dropping peer: %s" msg);
    send_error_and_drop t c ("cgcm serve: protocol error: " ^ msg)

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let token = t.next_token in
      t.next_token <- t.next_token + 1;
      let c =
        {
          token;
          fd;
          dec = Wire.decoder ();
          out = [];
          out_off = 0;
          out_bytes = 0;
          frame_t0 = None;
        }
      in
      Hashtbl.replace t.conns fd c;
      Hashtbl.replace t.by_token token c
    | exception
        Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      continue := false
  done

(* Drop every peer that has held a frame open past the read deadline —
   a slow-loris cannot wedge the loop, it can only own one connection
   slot for [read_deadline_s]. *)
let enforce_read_deadlines t =
  let now = Unix.gettimeofday () in
  let stale =
    Hashtbl.fold
      (fun _ c acc ->
        match c.frame_t0 with
        | Some t0 when now -. t0 > t.read_deadline_s -> c :: acc
        | _ -> acc)
      t.conns []
  in
  List.iter
    (fun c ->
      t.log "serve: read deadline exceeded on a partial frame, dropping peer";
      send_error_and_drop t c
        (Printf.sprintf
           "cgcm serve: read deadline exceeded: partial frame older than %g s"
           t.read_deadline_s))
    stale

(* Route finished replies back to their connections. A reply whose peer
   vanished mid-flight is dropped (its work still counted on the
   shard); in-flight accounting always decrements. *)
let route_replies t =
  List.iter
    (fun (token, reply) ->
      t.inflight <- t.inflight - 1;
      match Hashtbl.find_opt t.by_token token with
      | Some c -> send t c (Wire.reply_to_json reply)
      | None -> ())
    (Shard.drain_replies t.shards)

let iterate t =
  let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns [] in
  let wfds =
    Hashtbl.fold (fun fd c acc -> if c.out <> [] then fd :: acc else acc)
      t.conns []
  in
  let rfds_in = if t.listening then t.listen_fd :: conn_fds else conn_fds in
  let rfds_in =
    match Shard.wake_fd t.shards with
    | Some fd -> fd :: rfds_in
    | None -> rfds_in
  in
  (* Inline: block only when idle; with work queued, poll and keep
     executing. Sharded: block up to the tick — the wake pipe interrupts
     the select the instant a shard finishes a reply. *)
  let timeout = if Shard.pending_inline t.shards > 0 then 0.0 else 0.05 in
  let rfds, wready, _ =
    try Unix.select rfds_in wfds [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if t.listening && List.mem t.listen_fd rfds then accept_ready t;
  List.iter
    (fun fd ->
      if fd <> t.listen_fd then
        match Hashtbl.find_opt t.conns fd with
        | Some c -> read_conn t c
        | None -> ())
    rfds;
  enforce_read_deadlines t;
  Shard.step_inline t.shards;
  route_replies t;
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.conns fd with
      | Some c -> flush_conn t c
      | None -> ())
    (wready @ conn_fds)

let pending_writes t =
  Hashtbl.fold (fun _ c acc -> acc || c.out <> []) t.conns false

(* Stop accepting: close and unlink the listen socket so new connects
   fail fast (ENOENT) the moment the drain begins, rather than sitting
   in a backlog that will never be served. *)
let close_listener t =
  if t.listening then begin
    t.listening <- false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()
  end

(* Run until asked to stop, then drain gracefully: queued requests
   still execute and their replies flush before teardown, while frames
   that arrive during the drain are shed with a typed reply. *)
let run t =
  Shard.start t.shards;
  while not t.stopping do
    iterate t
  done;
  t.draining <- true;
  close_listener t;
  t.log "serve: draining (in-flight requests finish, new work is shed)";
  let deadline = Unix.gettimeofday () +. drain_grace_s in
  while
    (t.inflight > 0 || pending_writes t)
    && Unix.gettimeofday () < deadline
  do
    iterate t
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.by_token;
  close_listener t;
  let residual = Shard.stop t.shards in
  let tot = totals (Shard.engines t.shards) in
  let line =
    Engine.final_line_of ~stats:tot.stats ~cross_evictions:tot.cross_evictions
      ~cache_hit_rate:tot.hit_rate ~residual
  in
  t.log line;
  (line, residual)
