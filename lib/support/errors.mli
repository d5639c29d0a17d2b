(** Structured error taxonomy shared by the device simulator and the
    CGCM run-time.

    Lives in [Cgcm_support] so the device layer can raise
    {!Device_error} and the run-time can catch it without a dependency
    cycle. Every run-time failure carries the operation, the pointer,
    the allocation unit involved, and a snapshot of the whole
    allocation map; {!render_runtime} turns that into the diagnostic
    the CLI prints. *)

type unit_snapshot = {
  u_base : int;
  u_size : int;
  u_refcount : int;
  u_arr_refcount : int;
  u_epoch : int;
  u_devptr : int option;
  u_global : string option;
}
(** Point-in-time copy of one allocation unit's run-time metadata. *)

type transfer_dir = Host_to_device | Device_to_host

type device_fault =
  | Oom of {
      op : string;
      requested : int;
      live : int;
      capacity : int;
      injected : bool;
    }
  | Transfer_failed of { dir : transfer_dir; bytes : int; injected : bool }
  | Launch_failed of { kernel : string; injected : bool }
      (** Faults raised by the simulated driver. [injected] marks faults
          fired by a fault-injection plan rather than genuine capacity
          exhaustion. *)

exception Device_error of device_fault

type runtime_error = {
  op : string;  (** the run-time operation that failed *)
  addr : int option;  (** the pointer it was applied to *)
  reason : string;
  unit_ : unit_snapshot option;  (** the unit involved, when resolved *)
  device : device_fault option;  (** the device fault behind it, if any *)
  alloc_map : unit_snapshot list;  (** whole allocation map at failure *)
}

(** Violations raised by the shadow-memory coherence sanitizer
    ([Cgcm_sanitizer]), which mirrors every allocation unit with an
    independent byte-version map. *)
type violation_kind =
  | Stale_device_read
      (** a kernel read a byte the host updated after the last HtoD *)
  | Stale_host_read
      (** the host read a byte whose freshest value is (or died on) the
          device copy *)
  | Lost_host_update
      (** a DtoH write-back overwrote bytes the host had updated *)
  | Premature_release
      (** a device copy was freed (or a unit unregistered) while still
          referenced *)
  | Double_free  (** a device block was freed twice *)

val violation_kind_name : violation_kind -> string

type violation = {
  v_kind : violation_kind;
  v_unit : unit_snapshot;  (** the shadow's view of the unit *)
  v_addr : int;  (** the offending address, in the faulting space *)
  v_offset : int;  (** byte offset of the first bad byte within the unit *)
  v_instr : string;  (** the offending instruction or run-time operation *)
  v_detail : string;
  v_history : string list;  (** version history, oldest first *)
}

exception Coherence_violation of violation

(** {2 Service rejections}

    Raised (client-side) and classified for the [cgcm serve] daemon's
    typed rejection replies: load shed at admission, a per-request
    deadline enforced through the interpreter's fuel budget, or a
    tenant whose circuit breaker tripped after repeated failures. They
    live here so [Cgcm_core.Diagnostics] can map them to exit codes
    without depending on the serve library. *)

type overload_info = {
  ov_queue_depth : int;
  ov_queue_limit : int;
  ov_warm_bytes : int;
      (** cross-request device residency held by tenants at shed time *)
  ov_capacity : int;  (** simulated device capacity; [max_int] = unbounded *)
  ov_reason : string;  (** ["queue"], ["device-mem"] or ["draining"] *)
}

exception Serve_overloaded of overload_info

exception Serve_deadline of { dl_deadline : int (** fuel units granted *) }

exception
  Serve_circuit_open of { co_tenant : string; co_failures : int }

exception Serve_socket_busy of { sb_path : string }
(** [cgcm serve] refused to start: the socket path is answered by a
    live daemon (a dead daemon's stale socket file is reclaimed
    silently instead). *)

exception
  Serve_request_timeout of { rt_socket : string; rt_timeout_ms : int }
(** [cgcm request --timeout]: the daemon accepted the connection but
    never replied within the budget. *)

val render_overload : overload_info -> string
val render_deadline : deadline:int -> string
val render_circuit_open : tenant:string -> failures:int -> string
val render_socket_busy : path:string -> string
val render_request_timeout : socket:string -> timeout_ms:int -> string

val render_device_fault : device_fault -> string

val render_violation : violation -> string
(** Multi-line diagnostic: kind, offending instruction, unit shadow
    state, and the unit's version history. *)

val render_runtime : runtime_error -> string
(** Multi-line diagnostic: header, unit, device fault, allocation map. *)
