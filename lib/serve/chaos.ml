(* Kill-restart chaos harness: fork a real daemon, drive a seeded
   schedule, kill -9 mid-burst, restart with recovery, and gate on the
   crash-only contract (bit-identity, journal durability, zero leaks,
   zero invariant violations). See chaos.mli for the full contract.

   Process model: the parent is the driver and oracle; each daemon
   generation is a forked child that execs nothing — it runs
   [Server.run] directly and leaves with [Unix._exit], so the parent's
   exit handlers never run twice. Fork is safe here because the chaos
   CLI spawns no domains before forking (OCaml 5 forbids forking a
   multi-domain process); the alcotest suite, which warms the multicore
   pool, must not call this. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Rng = Cgcm_support.Rng

type config = {
  ch_seed : int;
  ch_requests : int;
  ch_dir : string;
  ch_torn_tail : bool;
  ch_timeout_ms : int;
  ch_shards : int;
}

let default_config ~seed ~dir =
  {
    ch_seed = seed;
    ch_requests = 30;
    ch_dir = dir;
    ch_torn_tail = true;
    ch_timeout_ms = 20_000;
    ch_shards = 1;
  }

type schedule = { sc_reqs : Wire.request list; sc_kill_at : int }

type violation = { vio_phase : string; vio_detail : string }

type outcome = {
  oc_config : config;
  oc_schedule : schedule;
  oc_pre_ok : int;
  oc_lost : int;
  oc_post_ok : int;
  oc_recovered_modules : int;
  oc_rewarmed : int;
  oc_recovered_tenants : int;
  oc_torn_replay : bool;
  oc_post_hits : int;
  oc_violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Seeded schedules                                                    *)

(* The backend-suffixed modes keep the journal's compile recipes honest:
   a kill-restart must rebuild "+paged" requests under the paged backend
   or the post-recovery bit-identity check would be comparing against
   the wrong reference. *)
let modes =
  [ "opt"; "unopt"; "unified"; "seq"; "ie"; "opt+paged"; "unopt+paged" ]

(* The seeded schedule: a deterministic mix of program variants,
   modes, tenants and deadline-bombed spins, with a mid-burst kill
   index. *)
let plan ~seed ~requests =
  let rng = Rng.stream ~seed 0 in
  let reqs =
    List.init requests (fun k ->
        if k mod 9 = 4 then
          (* a deadline-bombed spin: Deadline_exceeded replies must also
             survive the kill boundary deterministically *)
          {
            Wire.rq_id = k;
            rq_tenant = Printf.sprintf "t%d" (Rng.int rng 3);
            rq_source = Loadgen.spin_source;
            rq_mode = "opt";
            rq_deadline = Some 200_000;
            rq_strict = false;
            rq_faults = None;
          }
        else
          {
            Wire.rq_id = k;
            rq_tenant = Printf.sprintf "t%d" (Rng.int rng 3);
            rq_source = Loadgen.source ~variant:(Rng.int rng 4);
            rq_mode = Rng.pick rng modes;
            rq_deadline = None;
            rq_strict = false;
            rq_faults = None;
          })
  in
  let kill_at =
    if requests <= 2 then max 0 (requests - 1)
    else (requests / 3) + Rng.int rng (max 1 (requests / 3))
  in
  { sc_reqs = reqs; sc_kill_at = kill_at }

(* ------------------------------------------------------------------ *)
(* The bit-identity oracle                                             *)

(* A single-shot reply, memoized in [tbl]: each chaos run brings its own
   table, so no state outlives the run. *)
let reference tbl ~mode source =
  let key = mode ^ "\x00" ^ source in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let exec, backend =
      match Pipeline.parse_mode mode with
      | Ok eb -> eb
      | Error e -> invalid_arg ("Chaos.reference: " ^ e)
    in
    let _, r = Pipeline.run ~backend exec source in
    let v = (r.Interp.output, Int64.to_int r.Interp.exit_code) in
    Hashtbl.replace tbl key v;
    v

(* ------------------------------------------------------------------ *)
(* Daemon child                                                        *)

(* Forking is still safe with --shards: the child is single-domain at
   fork time and only spawns its shard domains inside [Server.run],
   after the fork. *)
let spawn_daemon ~socket_path ~journal_path ~log_path ~shards =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let logc = open_out log_path in
        let log s =
          output_string logc s;
          output_char logc '\n';
          flush logc
        in
        let srv = Server.create ~journal_path ~shards ~log ~socket_path () in
        Sys.set_signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> Server.stop srv));
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let _line, residual = Server.run srv in
        close_out logc;
        if residual = 0 then 0 else 1
      with e ->
        (try
           let oc =
             open_out_gen [ Open_append; Open_creat ] 0o644 log_path
           in
           output_string oc ("daemon exception: " ^ Printexc.to_string e ^ "\n");
           close_out oc
         with _ -> ());
        3
    in
    Unix._exit code
  | pid -> pid

(* ------------------------------------------------------------------ *)
(* One kill-restart cycle                                              *)

(* The injected torn tail: a framed record whose announced length
   promises more bytes than follow — exactly what a kill mid-append
   leaves behind. Replay must salvage everything before it. *)
let append_torn_record path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.create 20 in
      (* header: len=300, crc=0x1BADB002; then only 12 payload bytes *)
      Bytes.set_uint8 b 0 0;
      Bytes.set_uint8 b 1 0;
      Bytes.set_uint8 b 2 1;
      Bytes.set_uint8 b 3 44;
      Bytes.set_uint8 b 4 0x1B;
      Bytes.set_uint8 b 5 0xAD;
      Bytes.set_uint8 b 6 0xB0;
      Bytes.set_uint8 b 7 0x02;
      Bytes.blit_string "{\"t\":\"comp" 0 b 8 10;
      ignore (Unix.write fd b 0 20 : int))

let wexit = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let run_schedule cfg (sched : schedule) : outcome =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = cfg.ch_dir in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let name base = Filename.concat dir (Printf.sprintf "%s-%d" base cfg.ch_seed) in
  let socket_path = name "chaos.sock" in
  let journal_path = name "chaos.journal" in
  let shards = max 1 cfg.ch_shards in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (* every shard segment must go: a leftover from a previous run would
     make generation 1 recover instead of starting fresh *)
  for i = 0 to shards - 1 do
    try Unix.unlink (Journal.segment_path journal_path ~shards i)
    with Unix.Unix_error _ -> ()
  done;
  let reference = reference (Hashtbl.create 16) in
  let violations = ref [] in
  let vio phase detail =
    violations := { vio_phase = phase; vio_detail = detail } :: !violations
  in
  let pre_ok = ref 0 and lost = ref 0 and post_ok = ref 0 in
  let post_hits = ref 0 in
  let rec_modules = ref 0 and rewarmed = ref 0 and rec_tenants = ref 0 in
  let torn_replay = ref false in
  (* keys whose compiled module a pre-kill reply vouched for: the
     journal recorded (and fsynced) the compile before that reply was
     sent, so after recovery these must be cache hits. Keyed by
     (shard, cache key): each shard has its own cache, so a module
     vouched on one shard says nothing about another's. *)
  let vouched : (int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let vouch_key (req : Wire.request) =
    ( Shard.tenant_shard ~shards req.Wire.rq_tenant,
      Engine.cache_key_of_mode ~mode:req.Wire.rq_mode req.Wire.rq_source )
  in
  let check_reply phase (req : Wire.request) (rp : Wire.reply) =
    if rp.Wire.rp_id <> req.Wire.rq_id then
      vio phase
        (Printf.sprintf "request %d answered with id %d" req.Wire.rq_id
           rp.Wire.rp_id);
    match rp.Wire.rp_status with
    | Wire.Ok ->
      let out, code = reference ~mode:req.Wire.rq_mode req.Wire.rq_source in
      if rp.Wire.rp_output <> out || rp.Wire.rp_exit_code <> code then
        vio phase
          (Printf.sprintf
             "request %d (%s): reply not bit-identical to a fresh run"
             req.Wire.rq_id req.Wire.rq_mode)
    | Wire.Deadline_exceeded -> ()
    | s ->
      vio phase
        (Printf.sprintf "request %d (%s): unexpected status %s"
           req.Wire.rq_id req.Wire.rq_mode (Wire.status_name s))
  in
  (* --- generation 1: serve until the kill ------------------------- *)
  let pid1 =
    spawn_daemon ~socket_path ~journal_path ~log_path:(name "daemon1.log")
      ~shards
  in
  if not (Client.wait_ready ~socket_path ()) then begin
    vio "startup" "first daemon never answered pings";
    ignore (Unix.kill pid1 Sys.sigkill);
    ignore (Unix.waitpid [] pid1)
  end
  else begin
    let reqs = Array.of_list sched.sc_reqs in
    let n = Array.length reqs in
    let kill_at = min sched.sc_kill_at (max 0 (n - 1)) in
    (* pre-kill: drive sequentially, each reply checked on arrival *)
    (try
       for i = 0 to kill_at - 1 do
         let rp =
           Client.request ~timeout_ms:cfg.ch_timeout_ms ~socket_path reqs.(i)
         in
         incr pre_ok;
         check_reply "pre-kill" reqs.(i) rp;
         Hashtbl.replace vouched (vouch_key reqs.(i)) ()
       done
     with e ->
       vio "pre-kill" ("daemon died before the kill: " ^ Printexc.to_string e));
    (* the kill-boundary request: its frame goes out, the daemon dies
       before (or while) answering — the reply is legitimately lost *)
    (if n > 0 && !violations = [] then
       try
         ignore
           (Client.with_conn socket_path (fun fd ->
                Wire.write_frame fd (Wire.request_to_json reqs.(kill_at));
                Unix.kill pid1 Sys.sigkill;
                incr lost;
                (* the daemon is gone; the read must fail, not hang *)
                match
                  Client.read_frame_deadline fd ~socket_path ~timeout_ms:2000
                with
                | (_ : Json.t) ->
                  (* it answered before the signal landed: that reply
                     must still be correct, and nothing was lost *)
                  decr lost;
                  ()
                | exception _ -> ())
             : unit)
       with _ -> ()
     else if n > 0 then Unix.kill pid1 Sys.sigkill);
    (match Unix.waitpid [] pid1 with
    | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | _, st -> vio "kill" ("first daemon ended with " ^ wexit st)
    | exception Unix.Unix_error _ -> ());
    (* --- corruption: the torn tail -------------------------------- *)
    if cfg.ch_torn_tail then
      append_torn_record (Journal.segment_path journal_path ~shards 0);
    (* --- generation 2: recover and finish the schedule ------------ *)
    let pid2 =
      spawn_daemon ~socket_path ~journal_path ~log_path:(name "daemon2.log")
        ~shards
    in
    if not (Client.wait_ready ~socket_path ()) then begin
      vio "recovery" "restarted daemon never answered pings";
      ignore (Unix.kill pid2 Sys.sigkill);
      ignore (Unix.waitpid [] pid2)
    end
    else begin
      let stats = Client.stats ~socket_path in
      let recovered = Json.bool_field ~default:false "recovered" stats in
      torn_replay := Json.bool_field ~default:false "journal_torn" stats;
      rec_modules := Json.int_field ~default:0 "recovered_modules" stats;
      rewarmed := Json.int_field ~default:0 "rewarmed" stats;
      rec_tenants := Json.int_field ~default:0 "recovered_tenants" stats;
      if not recovered then vio "recovery" "stats do not report a recovery";
      if cfg.ch_torn_tail && not !torn_replay then
        vio "recovery" "injected torn tail went undetected by replay";
      if !rec_modules < Hashtbl.length vouched then
        vio "recovery"
          (Printf.sprintf
             "only %d modules recovered; %d were vouched for pre-kill"
             !rec_modules (Hashtbl.length vouched));
      (* post-recovery: finish the schedule, kill-boundary request
         included (a real client would retry it) *)
      (try
         for i = kill_at to n - 1 do
           let rp =
             Client.request ~timeout_ms:cfg.ch_timeout_ms ~socket_path
               reqs.(i)
           in
           incr post_ok;
           check_reply "post-recovery" reqs.(i) rp;
           if Hashtbl.mem vouched (vouch_key reqs.(i)) then
             if rp.Wire.rp_cache = "hit" then incr post_hits
             else if rp.Wire.rp_cache = "miss" then
               vio "post-recovery"
                 (Printf.sprintf
                    "request %d recompiled a module the journal vouched for"
                    reqs.(i).Wire.rq_id)
         done
       with e ->
         vio "post-recovery"
           ("restarted daemon died: " ^ Printexc.to_string e));
      (* clean shutdown: drain, leak-check, exit 0 *)
      if not (Client.shutdown ~socket_path) then
        vio "shutdown" "restarted daemon did not acknowledge shutdown";
      (match Unix.waitpid [] pid2 with
      | _, Unix.WEXITED 0 -> ()
      | _, st ->
        vio "shutdown"
          ("restarted daemon did not shut down leak-free: " ^ wexit st)
      | exception Unix.Unix_error _ -> ());
      (if !violations = [] then
         (* belt and braces: the logged final line must say so too *)
         let log2 = name "daemon2.log" in
         let ic = open_in log2 in
         let ok = ref false in
         (try
            while not !ok do
              let line = input_line ic in
              if
                String.length line >= 14
                && String.sub line (String.length line - 14) 14
                   = "device_leaks=0"
              then ok := true
            done
          with End_of_file -> ());
         close_in ic;
         if not !ok then
           vio "shutdown" "final stats line does not report device_leaks=0")
    end
  end;
  {
    oc_config = cfg;
    oc_schedule = sched;
    oc_pre_ok = !pre_ok;
    oc_lost = !lost;
    oc_post_ok = !post_ok;
    oc_recovered_modules = !rec_modules;
    oc_rewarmed = !rewarmed;
    oc_recovered_tenants = !rec_tenants;
    oc_torn_replay = !torn_replay;
    oc_post_hits = !post_hits;
    oc_violations = List.rev !violations;
  }

let run cfg =
  run_schedule cfg (plan ~seed:cfg.ch_seed ~requests:cfg.ch_requests)

(* ------------------------------------------------------------------ *)
(* Shrinking (the fuzzer's greedy first-improvement discipline)        *)

let candidates (s : schedule) : schedule list =
  let reqs = Array.of_list s.sc_reqs in
  let n = Array.length reqs in
  let drop i =
    {
      sc_reqs =
        List.filteri (fun j _ -> j <> i) s.sc_reqs;
      sc_kill_at = (if i < s.sc_kill_at then s.sc_kill_at - 1 else s.sc_kill_at);
    }
  in
  let drops = List.init n drop in
  let earlier =
    if s.sc_kill_at > 1 then [ { s with sc_kill_at = s.sc_kill_at / 2 } ]
    else []
  in
  List.filter (fun c -> c.sc_reqs <> []) (earlier @ drops)

let shrink ?(budget = 24) ?(budget_ms = 120_000.0) ~run sched outcome =
  let t0 = Unix.gettimeofday () in
  let evals = ref 0 in
  let best = ref (sched, outcome) in
  let within () =
    !evals < budget && (Unix.gettimeofday () -. t0) *. 1000.0 < budget_ms
  in
  let rec go () =
    let sched, _ = !best in
    let improved =
      List.exists
        (fun c ->
          if not (within ()) then false
          else begin
            incr evals;
            let o = run c in
            if o.oc_violations <> [] then begin
              best := (c, o);
              true
            end
            else false
          end)
        (candidates sched)
    in
    if improved && within () then go ()
  in
  go ();
  !best

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render_outcome o =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "chaos seed=%d: %d requests, kill@%d: pre=%d lost=%d post=%d \
        hits-after-recovery=%d violations=%d"
       o.oc_config.ch_seed
       (List.length o.oc_schedule.sc_reqs)
       o.oc_schedule.sc_kill_at o.oc_pre_ok o.oc_lost o.oc_post_ok
       o.oc_post_hits
       (List.length o.oc_violations));
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "\n  [%s] %s" v.vio_phase v.vio_detail))
    o.oc_violations;
  Buffer.contents b

let render_schedule (s : schedule) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "schedule: %d requests, kill -9 at index %d\n"
       (List.length s.sc_reqs) s.sc_kill_at);
  List.iteri
    (fun i (r : Wire.request) ->
      Buffer.add_string b
        (Printf.sprintf "  %c %2d id=%d tenant=%s mode=%s%s src=%d bytes\n"
           (if i = s.sc_kill_at then '*' else ' ')
           i r.Wire.rq_id r.Wire.rq_tenant r.Wire.rq_mode
           (match r.Wire.rq_deadline with
           | Some d -> Printf.sprintf " deadline=%d" d
           | None -> "")
           (String.length r.Wire.rq_source)))
    s.sc_reqs;
  Buffer.contents b
