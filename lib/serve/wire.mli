(** The serve wire protocol: length-prefixed JSON frames (4-byte
    big-endian length + compact JSON payload) and the typed request and
    reply messages the [cgcm serve] daemon and [cgcm request] client
    exchange. *)

exception Protocol_error of string

val max_frame_bytes : int
(** Hard frame-size cap; a peer exceeding it is a protocol error, not a
    buffering obligation. *)

(** {2 Blocking frame I/O (client side and tests)} *)

val write_frame : Unix.file_descr -> Json.t -> unit
val read_frame : Unix.file_descr -> Json.t
val encode_frame : Json.t -> Bytes.t

(** {2 Incremental decoding (the daemon's non-blocking reader)} *)

type decoder

val decoder : unit -> decoder

val decoder_feed : decoder -> Bytes.t -> int -> unit
(** Append [n] freshly-read bytes. Hostile-header hardened: a length
    prefix that is oversized, negative or zero raises {!Protocol_error}
    the instant its fourth byte arrives, {e before} any payload
    buffering — so the decoder never allocates more than one
    [max_frame_bytes] frame. An unparseable payload raises on its final
    byte. *)

val decoder_drain : decoder -> Json.t list
(** Pop every complete frame currently decoded, oldest first. *)

val decoder_buffered : decoder -> bool
(** True while an incomplete frame is pending — the server's hook for
    per-connection read deadlines (slow-loris defence). *)

(** {2 Messages} *)

type request = {
  rq_id : int;
  rq_tenant : string;
  rq_source : string;
  rq_mode : string;
      (** [seq | unopt | opt | ie | unified], optionally suffixed with a
          memory backend, e.g. [opt+paged]. [unified] is the paper's
          unified address-space {e oracle} — one flat memory with
          zero-cost intrinsics, for differential testing — not a
          managed-memory model; for on-demand paging with migration
          costs, suffix a split-memory mode with [+paged]. The suffix is
          inert outside the split modes. *)
  rq_deadline : int option;  (** fuel budget for the run *)
  rq_strict : bool;
      (** reject with [Circuit_open] instead of degrading to CPU-only
          execution when the tenant's breaker is open *)
  rq_faults : string option;  (** per-request fault plan (tests) *)
}

type status = Ok | Overloaded | Deadline_exceeded | Circuit_open | Error

val status_name : status -> string

type reply = {
  rp_id : int;
  rp_status : status;
  rp_output : string;  (** program stdout, empty unless [Ok] *)
  rp_exit_code : int;  (** program exit code ([Ok]) or diagnostic code *)
  rp_error : string;  (** rendered diagnostic, empty unless a rejection *)
  rp_cache : string;  (** ["hit"], ["miss"] or ["-"] *)
  rp_degraded : bool;  (** executed CPU-only under an open circuit *)
  rp_retries : int;  (** attempts beyond the first (transient faults) *)
  rp_wall_ms : float;  (** daemon-side execution time *)
}

val request_to_json : request -> Json.t
val request_of_json : Json.t -> request
(** Raises {!Protocol_error} on a value without a string [source],
    such as one that is not an object. *)

val reply_to_json : reply -> Json.t
val reply_of_json : Json.t -> reply
