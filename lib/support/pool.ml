(* The process-wide domain pool for data-parallel batches.

   OCaml domains are heavyweight (each one owns a minor heap and a slot
   in the runtime's fixed-size domain table), so the pool spawns workers
   once and keeps them forever: callers that repeatedly run small
   batches — one per simulated kernel launch — pay only a mutex
   round-trip per batch, not a domain spawn. Workers sleep on a
   condition variable between batches.

   The pool runs one batch at a time. [run ~jobs n f] publishes the
   batch under the pool mutex, wakes the workers, and then participates
   itself, so a batch of [n] tasks is executed by up to
   [min jobs n] domains (the caller plus [jobs - 1] workers). Tasks are
   claimed by atomically bumping a shared cursor; publication of task
   results written into shared mutable state is ordered by the final
   mutex hand-shake (every worker decrements the unfinished count under
   the mutex, and the caller only returns after observing zero there),
   so callers may read anything their tasks wrote without further
   synchronization. *)

(* The runtime's domain table is small (128 entries); leave generous
   headroom for the main domain and any embedder threads. *)
let max_jobs = 64

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (min n max_jobs)
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "CGCM_JOBS") parse_jobs with
  | Some n -> n
  | None -> min max_jobs (Domain.recommended_domain_count ())

type batch = {
  task : int -> unit;
  n : int;
  mutable next : int;  (* next unclaimed task index *)
  mutable unfinished : int;  (* tasks not yet completed *)
  mutable failure : exn option;  (* first task exception, re-raised by run *)
}

type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  batch_finished : Condition.t;
  mutable current : batch option;
  mutable workers : int;  (* workers spawned so far (lazily, < max_jobs) *)
}

(* Workers are spawned by the first batch that needs them, so a process
   that never runs a parallel batch spawns none. *)
let pool =
  {
    lock = Mutex.create ();
    work_available = Condition.create ();
    batch_finished = Condition.create ();
    current = None;
    workers = 0;
  }

(* Claim and execute tasks from [b] until none remain. Called with
   [t.lock] held; returns with [t.lock] held. *)
let drain t b =
  while b.next < b.n do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock t.lock;
    let result = try Ok (b.task i) with e -> Error e in
    Mutex.lock t.lock;
    (match result with
    | Ok () -> ()
    | Error e -> if b.failure = None then b.failure <- Some e);
    b.unfinished <- b.unfinished - 1;
    if b.unfinished = 0 then Condition.broadcast t.batch_finished
  done

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec await () =
    match t.current with
    | Some b when b.next < b.n -> b
    | _ ->
      Condition.wait t.work_available t.lock;
      await ()
  in
  let b = await () in
  drain t b;
  Mutex.unlock t.lock;
  worker_loop t

(* Called with [t.lock] held; [k < max_jobs]. *)
let ensure_workers t k =
  while t.workers < k do
    ignore (Domain.spawn (fun () -> worker_loop t));
    t.workers <- t.workers + 1
  done

let size () =
  Mutex.lock pool.lock;
  let n = pool.workers + 1 in
  Mutex.unlock pool.lock;
  n

let run ~jobs n task =
  if n <= 0 then ()
  else if jobs <= 1 || n = 1 then
    for i = 0 to n - 1 do
      task i
    done
  else begin
    let t = pool in
    let jobs = min jobs max_jobs in
    Mutex.lock t.lock;
    ensure_workers t (jobs - 1);
    (* One batch at a time: a sharded launch's owner is
       single-threaded outside the pool, so a nested or concurrent batch
       indicates a bug. *)
    assert (t.current = None);
    let b = { task; n; next = 0; unfinished = n; failure = None } in
    t.current <- Some b;
    Condition.broadcast t.work_available;
    drain t b;
    while b.unfinished > 0 do
      Condition.wait t.batch_finished t.lock
    done;
    t.current <- None;
    Mutex.unlock t.lock;
    match b.failure with Some e -> raise e | None -> ()
  end
