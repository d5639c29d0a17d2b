(* Client side of the serve protocol: one connection per operation.

   The daemon replies on the connection that carried the request, so a
   connect-send-receive-close client never needs request/reply
   correlation beyond the echoed id. *)

let with_conn socket_path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      f fd)

(* Deadline-bounded read of one frame: select before every read, so a
   daemon that accepted the connection but never replies (wedged, or
   killed mid-request) costs at most the timeout, not forever. *)
let read_frame_deadline fd ~socket_path ~timeout_ms : Json.t =
  let deadline =
    Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.0)
  in
  let dec = Wire.decoder () in
  (* under [Max_young_wosize] (256 words), so it stays on the minor
     heap; the decoder reassembles frames across reads *)
  let buf = Bytes.create 1024 in
  let timeout () =
    raise
      (Cgcm_support.Errors.Serve_request_timeout
         { rt_socket = socket_path; rt_timeout_ms = timeout_ms })
  in
  let rec go () =
    match Wire.decoder_drain dec with
    | v :: _ -> v
    | [] ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then timeout ();
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> timeout ()
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> raise (Wire.Protocol_error "peer closed mid-frame")
        | n -> Wire.decoder_feed dec buf n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      go ()
  in
  go ()

let roundtrip ?timeout_ms socket_path (v : Json.t) : Json.t =
  with_conn socket_path (fun fd ->
      Wire.write_frame fd v;
      match timeout_ms with
      | None -> Wire.read_frame fd
      | Some ms -> read_frame_deadline fd ~socket_path ~timeout_ms:ms)

let request ?timeout_ms ~socket_path (req : Wire.request) : Wire.reply =
  Wire.reply_of_json
    (roundtrip ?timeout_ms socket_path (Wire.request_to_json req))

let ping ~socket_path =
  match roundtrip socket_path (Obj [ ("op", Json.Str "ping") ]) with
  | v -> Json.str_field ~default:"" "status" v = "ok"
  | exception _ -> false

let stats ~socket_path : Json.t =
  roundtrip socket_path (Obj [ ("op", Json.Str "stats") ])

let shutdown ~socket_path =
  match roundtrip socket_path (Obj [ ("op", Json.Str "shutdown") ]) with
  | v -> Json.bool_field ~default:false "stopping" v
  | exception _ -> false

(* Poll until the daemon answers pings — the two-process handshake used
   by the bench driver and the CI soak job after forking the daemon. *)
let wait_ready ?(timeout_s = 10.0) ~socket_path () =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if ping ~socket_path then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()
