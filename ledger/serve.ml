(* The serve workloads: a [cgcm serve] daemon in a child process, driven
   by a closed loop of [clients] connections from this process, one
   connection per request as [cgcm request] makes them. Replies are
   checked against in-process sequential runs after the timed passes,
   so the check costs no timed time. *)

module Json = Cgcm_serve.Json
module Wire = Cgcm_serve.Wire
module Client = Cgcm_serve.Client

let hot_copies = 16 (* x 64 combinations = 1,024 requests per pass *)

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)

type daemon = { pid : int; socket : string }

let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* A failed run must not leave daemons behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let spawned = ref 0

let spawn ~dir ~shards =
  incr spawned;
  let socket = Printf.sprintf "%s/d%d-%d.sock" dir (Unix.getpid ()) !spawned in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; socket; "--shards"; string_of_int shards |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  (* polled finely: start-up takes milliseconds, and is [setup_s] *)
  while not (Client.ping ~socket_path:socket) do
    if Unix.gettimeofday () > deadline then failwith "ledger: daemon did not come up";
    Unix.sleepf 0.0001
  done;
  { pid; socket }

(* Shut the daemon down; true when it exited 0, i.e. leak-free. *)
let stop d =
  ignore (Client.shutdown ~socket_path:d.socket : bool);
  reap d.pid

(* The daemon itself: [main.exe daemon --socket PATH --shards N]. *)
let daemon_main ~socket ~shards =
  let server = Cgcm_serve.Server.create ~shards ~socket_path:socket () in
  let line, residual = Cgcm_serve.Server.run server in
  prerr_endline line;
  exit (if residual = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type reply = {
  item : Workload.item;
  latency_ms : float;
  result : (Wire.reply, string) result;
}

type slot = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  index : int;
  sent : int;
  span : Span.span option;
  await : Span.span option;
}

(* Keep [clients] requests in flight: each starts when a reply frees its
   slot. With [spans], each request gets a span on its slot's lane, with
   children for the send and the wait for the reply. *)
let closed_loop ?spans ~clients ~socket (items : Workload.item array) =
  let n = Array.length items in
  let replies = Array.make n None in
  let next = ref 0 in
  let slots = Array.make clients None in
  let finish k s result =
    (try Unix.close s.fd with Unix.Unix_error _ -> ());
    Option.iter Span.stop s.await;
    Option.iter Span.stop s.span;
    replies.(s.index) <-
      Some { item = items.(s.index); latency_ms = Harness.ms_since s.sent; result };
    slots.(k) <- None
  in
  let rec launch k =
    if !next < n then begin
      let index = !next in
      incr next;
      let req = items.(index).Workload.req in
      let sent = Span.now_ns () in
      let lane = k + 1 and op = req.Wire.rq_id in
      let span = Option.map (fun t -> Span.start t ~lane ~op "request") spans in
      let child name =
        match (spans, span) with
        | Some t, Some p -> Some (Span.start t ~parent:p.Span.id ~lane ~op name)
        | _ -> None
      in
      let send = child "client.send" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let s = { fd; dec = Wire.decoder (); index; sent; span; await = None } in
      match
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Wire.write_frame fd (Wire.request_to_json req)
      with
      | () ->
        Option.iter Span.stop send;
        slots.(k) <- Some { s with await = child "client.await" }
      | exception e ->
        Option.iter Span.stop send;
        finish k s (Error (Printexc.to_string e));
        launch k
    end
  in
  for k = 0 to clients - 1 do
    launch k
  done;
  let buf = Bytes.create 65536 in
  let active () =
    Array.to_list slots |> List.filter_map (Option.map (fun s -> s.fd))
  in
  while active () <> [] do
    let ready, _, _ =
      try Unix.select (active ()) [] [] 60.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready = [] then
      Array.iteri
        (fun k s ->
          Option.iter
            (fun s ->
              finish k s (Error "no reply within 60 s");
              launch k)
            s)
        slots
    else
      Array.iteri
        (fun k s ->
          match s with
          | Some s when List.mem s.fd ready -> (
            match Unix.read s.fd buf 0 (Bytes.length buf) with
            | 0 ->
              finish k s (Error "daemon closed the connection");
              launch k
            | got -> (
              match
                Wire.decoder_feed s.dec buf got;
                Wire.decoder_drain s.dec
              with
              | v :: _ ->
                finish k s
                  (match Wire.reply_of_json v with
                  | r -> Ok r
                  | exception e -> Error (Printexc.to_string e));
                launch k
              | [] -> ()
              | exception e ->
                finish k s (Error (Printexc.to_string e));
                launch k)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception e ->
              finish k s (Error (Printexc.to_string e));
              launch k)
          | _ -> ())
        slots
  done;
  Array.map Option.get replies

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  replies : reply array;
  wall_s : float;
  stats : (string * int) list;  (** daemon counters, delta over the pass *)
  rss_mb : float;  (** the daemon's peak RSS at the end of the pass *)
}

let counters = [ "ok"; "cache_hits"; "cache_misses"; "batched_runs"; "warm_coalesced" ]

let read_counters socket =
  let s = Client.stats ~socket_path:socket in
  List.map (fun k -> (k, Json.int_field ~default:0 k s)) counters

let run_pass ?spans d items =
  let before = read_counters d.socket in
  let t0 = Span.now_ns () in
  let replies = closed_loop ?spans ~clients:2 ~socket:d.socket (Array.of_list items) in
  let wall_s = Harness.seconds_since t0 in
  let after = read_counters d.socket in
  {
    replies;
    wall_s;
    stats = List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before;
    rss_mb = Harness.peak_rss_mb d.pid;
  }

(* ------------------------------------------------------------------ *)
(* Reference runs and checks                                           *)

(* One in-process run of each distinct (program, mode) in [items], and
   the wall time of those runs. With [spans], the runs are the traced
   layer pass. *)
let references ?spans items =
  let distinct = Hashtbl.create 128 in
  List.iter
    (fun (it : Workload.item) ->
      List.iter
        (fun mode -> Hashtbl.replace distinct (it.program, mode) it.source)
        [ "seq"; it.req.Wire.rq_mode ])
    items;
  let keys = Hashtbl.fold (fun k src acc -> (k, src) :: acc) distinct [] |> List.sort compare in
  let t = Hashtbl.create 128 and layer_runs = ref [] in
  let t0 = Span.now_ns () in
  List.iteri
    (fun op ((program, mode), source) ->
      let r =
        match spans with
        | None -> Harness.attempt (fun () -> Runner.run ~mode source)
        | Some spans ->
          Harness.attempt (fun () ->
              let facts, compile = Runner.run_traced spans ~lane:0 ~op ~mode source in
              layer_runs := { Layers.mode; facts; compile } :: !layer_runs;
              facts)
      in
      Hashtbl.replace t (program, mode) r)
    keys;
  (t, List.rev !layer_runs, Span.now_ns () - t0)

let check refs (r : reply) =
  let seq = Hashtbl.find_opt refs (r.item.program, "seq") in
  match (r.result, seq) with
  | Error e, _ -> Error e
  | _, (None | Some (Error _)) -> Error "no sequential reference"
  | Ok rp, Some (Ok (f : Runner.facts)) ->
    if rp.Wire.rp_status <> Wire.Ok then
      Error (Wire.status_name rp.rp_status ^ ": " ^ rp.rp_error)
    else if rp.rp_output <> f.output || Int64.of_int rp.rp_exit_code <> f.exit_code
    then Error "output differs from the sequential run"
    else Ok ()

let sim_runs refs items =
  List.filter_map
    (fun (it : Workload.item) ->
      match Hashtbl.find_opt refs (it.program, it.req.Wire.rq_mode) with
      | Some (Ok f) -> Some (it.program, it.req.rq_mode, f)
      | _ -> None)
    items

let seq_cycles refs program =
  match Hashtbl.find_opt refs (program, "seq") with
  | Some (Ok f) -> f.Runner.cycles
  | _ -> nan

(* Mean latency of a pass's last tenth over its first tenth, in send
   order: how much the daemon slowed while the pass ran. *)
let latency_growth replies =
  let n = Array.length replies in
  let k = max 1 (n / 10) in
  let mean lo =
    let s = ref 0.0 in
    for i = lo to lo + k - 1 do
      s := !s +. replies.(i).latency_ms
    done;
    !s /. float_of_int k
  in
  mean (n - k) /. mean 0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type shape = {
  shards : int;
  fresh_daemon_per_pass : bool;
  warmup : Workload.item list;
  requests : pass:int -> Workload.item list;
}

let shape ~seed = function
  | Workload.Serve_hot ->
    {
      shards = 2;
      fresh_daemon_per_pass = false;
      warmup = Workload.hot_warmup ();
      requests = (fun ~pass -> Workload.hot_requests ~seed ~pass ~copies:hot_copies);
    }
  | Workload.Serve_cold ->
    {
      shards = 1;
      fresh_daemon_per_pass = true;
      warmup = [];
      requests = (fun ~pass -> Workload.cold_requests ~seed ~pass);
    }
  | w -> invalid_arg ("Serve.shape: " ^ Workload.name w)

(* Set-up: start a daemon and, for serve-hot, fill every shard's cache
   with a sequential warm-up. *)
let setup ~dir sh () =
  let d = spawn ~dir ~shards:sh.shards in
  (d, closed_loop ~clients:1 ~socket:d.socket (Array.of_list sh.warmup))

let ok_count checks = List.length (List.filter (fun c -> c = Ok ()) checks)

let failures checks =
  List.filter_map
    (fun ((r : reply), c) ->
      match c with
      | Ok () -> None
      | Error e ->
        Some (Printf.sprintf "request %d (%s, %s): %s" r.item.req.Wire.rq_id
                r.item.program r.item.req.rq_mode e))
    checks

let stat p k = List.assoc k p.stats

(* Client latency minus the daemon's own execution time, per request,
   split by the reply's cache tag. *)
let overhead_ms replies =
  Array.to_list replies
  |> List.filter_map (fun r ->
         match r.result with
         | Ok rp -> Some (rp.Wire.rp_cache, r.latency_ms -. rp.rp_wall_ms)
         | Error _ -> None)

let overhead_notes replies =
  let by tag =
    List.filter_map (fun (t, v) -> if t = tag then Some v else None) (overhead_ms replies)
  in
  List.map
    (fun tag ->
      ( "overhead_" ^ tag ^ "_ms",
        match by tag with [] -> Json.Null | vs -> Json.Float (Stat.median vs) ))
    [ "hit"; "miss" ]

(* Host-time metrics of the timed passes [(wall_s, correct_ops,
   latencies_ms)]: each metric's best pass. Also returns the percentile
   [latency_tail_ms] stands for. *)
let host_metrics passes =
  let per f = List.map f passes in
  ( [
      Metric.best ~higher:false "wall_s" "s" (per (fun (wall, _, _) -> wall));
      Metric.best ~higher:true "ops_per_s" "1/s"
        (per (fun (wall, ok, _) -> float_of_int ok /. wall));
      Metric.best ~higher:false "latency_p50_ms" "ms"
        (per (fun (_, _, lat) -> Stat.median lat));
      Metric.best ~higher:false "latency_tail_ms" "ms"
        (per (fun (_, _, lat) -> fst (Harness.tail lat)));
    ],
    match passes with (_, _, lat) :: _ -> snd (Harness.tail lat) | [] -> 100.0 )

let run_untraced ~workload ~seed ~seconds ~dir =
  let sh = shape ~seed workload in
  let cleans = ref [] and warm = ref [] in
  let setup () =
    let d, w = setup ~dir sh () in
    warm := Array.to_list w @ !warm;
    d
  in
  let setup_s, passes =
    Harness.timed_run ~fresh:sh.fresh_daemon_per_pass ~seconds ~setup
      ~teardown:(fun d -> cleans := stop d :: !cleans)
      (fun d pass ->
        let items = sh.requests ~pass in
        let p = run_pass d items in
        ((p, items), p.wall_s))
  in
  let items = sh.warmup @ List.concat_map snd passes in
  let refs, _, _ = references items in
  let checked =
    List.map (fun (p, _) -> (p, Array.to_list p.replies |> List.map (fun r -> (r, check refs r)))) passes
  in
  let all = List.map (fun r -> (r, check refs r)) !warm @ List.concat_map snd checked in
  let bad = failures all in
  let leak_free = List.for_all Fun.id !cleans in
  let host, tail_percentile =
    host_metrics
      (List.map
         (fun (p, checks) ->
           ( p.wall_s,
             ok_count (List.map snd checks),
             List.map (fun ((r : reply), _) -> r.latency_ms) checks ))
         checked)
  in
  let first_pass, first_items = List.hd passes in
  {
    Harness.correct = bad = [] && leak_free;
    attempted = List.length all;
    failed = List.length bad;
    metrics =
      (setup_s :: host)
      @ [ Metric.median "peak_rss_mb" "MB" (List.map (fun (p, _) -> p.rss_mb) passes) ]
      @ Harness.sim_metrics ~seq_cycles:(seq_cycles refs) (sim_runs refs first_items);
    notes =
      [
        ("passes", Json.Int (List.length passes));
        ("tail_percentile", Json.Float tail_percentile);
        ("requests_per_pass", Json.Int (Array.length first_pass.replies));
        ("daemons_leak_free", Json.Bool leak_free);
        ( "latency_growth",
          Json.Float (Stat.median (List.map (fun (p, _) -> latency_growth p.replies) passes)) );
      ]
      @ overhead_notes first_pass.replies
      @ [ ("failures", Json.List (List.map (fun s -> Json.Str s) bad)) ];
  }

(* Untraced and traced passes alternate, so slow spells of the host and
   the daemon's warm-up fall on both sides alike. The traced passes'
   replies give the serve-side numbers; the reference runs, traced, are
   the layer pass. *)
let run_traced ~workload ~seed ~dir ~trace_file =
  let sh = shape ~seed workload in
  let cleans = ref [] in
  let stop_checked d = cleans := stop d :: !cleans in
  let d, warm = setup ~dir sh () in
  let current = ref d in
  let spans = Span.create () in
  let pairs = if sh.fresh_daemon_per_pass then 2 else 5 in
  let passes =
    List.init (2 * pairs) (fun pass ->
        if pass > 0 && sh.fresh_daemon_per_pass then
          current := spawn ~dir ~shards:sh.shards;
        let traced = pass mod 2 = 1 in
        let items = sh.requests ~pass in
        let p = run_pass ?spans:(if traced then Some spans else None) !current items in
        if sh.fresh_daemon_per_pass then stop_checked !current;
        (traced, p, items))
  in
  if not sh.fresh_daemon_per_pass then stop_checked !current;
  let side t = List.filter_map (fun (tr, p, _) -> if tr = t then Some p else None) passes in
  let traced = side true and untraced = side false in
  let refs, runs, wall_ns =
    references ~spans (sh.warmup @ List.concat_map (fun (_, _, items) -> items) passes)
  in
  let all =
    List.map
      (fun r -> (r, check refs r))
      (Array.to_list warm @ List.concat_map (fun (_, p, _) -> Array.to_list p.replies) passes)
  in
  let bad = failures all in
  let all_spans = Span.spans spans in
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc (Json.print (Span.to_chrome all_spans)));
  let traced_replies = Array.concat (List.map (fun p -> p.replies) traced) in
  let exec_ms =
    Array.to_list traced_replies
    |> List.filter_map (fun r ->
           Result.to_option r.result |> Option.map (fun rp -> rp.Wire.rp_wall_ms))
  in
  let sum k = List.fold_left (fun acc p -> acc + stat p k) 0 traced in
  let best side = Stat.best ~higher:false (List.map (fun p -> p.wall_s) side) in
  {
    Harness.correct = bad = [] && List.for_all Fun.id !cleans;
    attempted = List.length all;
    failed = List.length bad;
    metrics =
      Layers.metrics
        ~spans:(List.filter (fun s -> s.Span.lane = 0) all_spans)
        ~wall_ns ~exec_ms
        ~overhead_ms:(List.map snd (overhead_ms traced_replies))
        ~trace_overhead:(best traced /. best untraced)
        ~serve:
          {
            Layers.cache_hit_ratio =
              Layers.ratio (sum "cache_hits") (sum "cache_hits" + sum "cache_misses");
            batched_ratio = Layers.ratio (sum "batched_runs") (sum "ok");
            warm_coalesced = sum "warm_coalesced";
            latency_growth =
              Stat.median (List.map (fun p -> latency_growth p.replies) traced);
          }
        runs;
    notes =
      [
        ("untraced_best_wall_s", Json.Float (best untraced));
        ("traced_best_wall_s", Json.Float (best traced));
        ("trace_file", Json.Str trace_file);
      ]
      @ overhead_notes traced_replies
      @ [ ("failures", Json.List (List.map (fun s -> Json.Str s) bad)) ];
  }
