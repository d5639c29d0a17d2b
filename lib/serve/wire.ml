(* The serve wire protocol: length-prefixed JSON frames over a unix
   socket, and the typed request/reply messages they carry.

   A frame is a 4-byte big-endian payload length followed by that many
   bytes of compact JSON. Length-prefixing (rather than newline
   delimiting) lets program sources travel verbatim, and caps frame
   size up front so a misbehaving peer cannot make the daemon buffer
   unboundedly. *)

exception Protocol_error of string

let max_frame_bytes = 8 * 1024 * 1024
(* A compile request is dominated by its program source; 8 MiB is two
   orders of magnitude above anything the suite or fuzzer produces. *)

(* ------------------------------------------------------------------ *)
(* Blocking frame I/O (client side and tests)                          *)

let really_write fd buf off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write fd buf !off !left in
    off := !off + n;
    left := !left - n
  done

let really_read fd buf off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.read fd buf !off !left in
    if n = 0 then raise (Protocol_error "peer closed mid-frame");
    off := !off + n;
    left := !left - n
  done

let encode_frame (v : Json.t) : Bytes.t =
  let payload = Json.print v in
  let n = String.length payload in
  if n > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" n));
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  b

let write_frame fd v =
  let b = encode_frame v in
  really_write fd b 0 (Bytes.length b)

let decode_len b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let read_frame fd : Json.t =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let n = decode_len hdr 0 in
  if n < 0 || n > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" n));
  let payload = Bytes.create n in
  really_read fd payload 0 n;
  try Json.parse (Bytes.unsafe_to_string payload)
  with Json.Parse_error msg -> raise (Protocol_error ("bad frame: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Incremental frame decoding (the daemon's non-blocking reader)

   A small state machine, hardened against hostile peers: the length
   prefix is validated the instant its fourth byte arrives — an
   oversized, negative (sign bit set) or zero prefix is a typed
   [Protocol_error] before any payload buffering, so a 4-byte header
   can never make the daemon allocate more than [max_frame_bytes].
   The payload buffer is allocated exact-size, so the decoder's
   footprint is bounded by one frame. *)

type decoder = {
  hdr : Bytes.t;  (* 4-byte length-prefix accumulator *)
  mutable hdr_len : int;  (* header bytes received so far (0..4) *)
  mutable payload : Bytes.t;  (* exact-size frame buffer, once known *)
  mutable got : int;  (* payload bytes received so far *)
  mutable ready : Json.t list;  (* complete frames, newest first *)
}

let decoder () =
  { hdr = Bytes.create 4; hdr_len = 0; payload = Bytes.empty; got = 0;
    ready = [] }

(* Mid-frame: some bytes of an incomplete frame are pending. The server
   uses this to arm its per-connection read deadline (slow-loris). *)
let decoder_buffered d = d.hdr_len > 0 || Bytes.length d.payload > 0

let check_len len =
  (* [decode_len] reads the prefix unsigned, so a peer's negative length
     arrives here as a value past the sign bit; report it as the signed
     number the peer actually sent. *)
  if len land 0x8000_0000 <> 0 then
    raise
      (Protocol_error
         (Printf.sprintf "bad frame length %d" (len - 0x1_0000_0000)))
  else if len > max_frame_bytes then
    raise
      (Protocol_error
         (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
            max_frame_bytes))
  else if len = 0 then raise (Protocol_error "empty frame")

let decoder_feed d chunk n =
  let pos = ref 0 in
  while !pos < n do
    if Bytes.length d.payload = 0 then begin
      (* header phase *)
      let take = min (4 - d.hdr_len) (n - !pos) in
      Bytes.blit chunk !pos d.hdr d.hdr_len take;
      d.hdr_len <- d.hdr_len + take;
      pos := !pos + take;
      if d.hdr_len = 4 then begin
        let len = decode_len d.hdr 0 in
        check_len len;
        d.hdr_len <- 0;
        d.payload <- Bytes.create len;
        d.got <- 0
      end
    end
    else begin
      (* payload phase *)
      let take = min (Bytes.length d.payload - d.got) (n - !pos) in
      Bytes.blit chunk !pos d.payload d.got take;
      d.got <- d.got + take;
      pos := !pos + take;
      if d.got = Bytes.length d.payload then begin
        let s = Bytes.unsafe_to_string d.payload in
        d.payload <- Bytes.empty;
        d.got <- 0;
        match Json.parse s with
        | v -> d.ready <- v :: d.ready
        | exception Json.Parse_error msg ->
          raise (Protocol_error ("bad frame: " ^ msg))
      end
    end
  done

(* Pop every complete frame currently decoded, oldest first. *)
let decoder_drain d : Json.t list =
  let frames = List.rev d.ready in
  d.ready <- [];
  frames

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)

type request = {
  rq_id : int;
  rq_tenant : string;
  rq_source : string;
  rq_mode : string;  (* seq | unopt | opt | ie | unified *)
  rq_deadline : int option;  (* fuel budget for the run *)
  rq_strict : bool;  (* reject (Circuit_open) instead of degrading *)
  rq_faults : string option;  (* per-request fault plan, mostly for tests *)
}

type status = Ok | Overloaded | Deadline_exceeded | Circuit_open | Error

let status_name = function
  | Ok -> "ok"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Circuit_open -> "circuit_open"
  | Error -> "error"

let status_of_name = function
  | "ok" -> Ok
  | "overloaded" -> Overloaded
  | "deadline_exceeded" -> Deadline_exceeded
  | "circuit_open" -> Circuit_open
  | "error" -> Error
  | s -> raise (Protocol_error (Printf.sprintf "unknown status %S" s))

type reply = {
  rp_id : int;
  rp_status : status;
  rp_output : string;  (* program stdout, empty unless Ok *)
  rp_exit_code : int;  (* program exit code (Ok) or diagnostic code *)
  rp_error : string;  (* rendered diagnostic, empty unless a rejection *)
  rp_cache : string;  (* "hit" | "miss" | "-" *)
  rp_degraded : bool;  (* executed CPU-only under an open circuit *)
  rp_retries : int;  (* attempts beyond the first (transient faults) *)
  rp_wall_ms : float;  (* daemon-side execution time *)
}

let request_to_json r : Json.t =
  Obj
    ([
       ("op", Json.Str "run");
       ("id", Json.Int r.rq_id);
       ("tenant", Json.Str r.rq_tenant);
       ("mode", Json.Str r.rq_mode);
       ("source", Json.Str r.rq_source);
       ("strict", Json.Bool r.rq_strict);
     ]
    @ (match r.rq_deadline with
      | Some d -> [ ("deadline", Json.Int d) ]
      | None -> [])
    @
    match r.rq_faults with
    | Some f -> [ ("faults", Json.Str f) ]
    | None -> [])

let request_of_json v =
  try
    {
      rq_id = Json.int_field ~default:0 "id" v;
      rq_tenant = Json.str_field ~default:"anonymous" "tenant" v;
      rq_source = Json.str_field "source" v;
      rq_mode = Json.str_field ~default:"opt" "mode" v;
      rq_deadline = Json.opt_int_field "deadline" v;
      rq_strict = Json.bool_field ~default:false "strict" v;
      rq_faults = Json.opt_str_field "faults" v;
    }
  with Json.Parse_error msg -> raise (Protocol_error ("bad request: " ^ msg))

let reply_to_json r : Json.t =
  Obj
    [
      ("id", Json.Int r.rp_id);
      ("status", Json.Str (status_name r.rp_status));
      ("output", Json.Str r.rp_output);
      ("exit_code", Json.Int r.rp_exit_code);
      ("error", Json.Str r.rp_error);
      ("cache", Json.Str r.rp_cache);
      ("degraded", Json.Bool r.rp_degraded);
      ("retries", Json.Int r.rp_retries);
      ("wall_ms", Json.Float r.rp_wall_ms);
    ]

let reply_of_json v =
  {
    rp_id = Json.int_field ~default:0 "id" v;
    rp_status = status_of_name (Json.str_field "status" v);
    rp_output = Json.str_field ~default:"" "output" v;
    rp_exit_code = Json.int_field ~default:0 "exit_code" v;
    rp_error = Json.str_field ~default:"" "error" v;
    rp_cache = Json.str_field ~default:"-" "cache" v;
    rp_degraded = Json.bool_field ~default:false "degraded" v;
    rp_retries = Json.int_field ~default:0 "retries" v;
    rp_wall_ms = Json.float_field ~default:0.0 "wall_ms" v;
  }
