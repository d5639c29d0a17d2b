(** Event trace of the simulated execution. Renders the execution
    schedules of Figure 2 and lets tests assert acyclicity (e.g. "no
    device-to-host transfer inside this loop"). *)

type kind =
  | Htod  (** host-to-device transfer *)
  | Dtoh  (** device-to-host transfer *)
  | Kernel
  | Sync  (** CPU stalled waiting for the device *)

type event = {
  kind : kind;
  start : float;
  finish : float;
  label : string;
  bytes : int;
}

type t = { mutable events : event list; mutable enabled : bool }

val create : ?enabled:bool -> unit -> t
(** Disabled by default: recording is then free. *)

val record :
  t -> kind -> start:float -> finish:float -> label:string -> bytes:int -> unit

val events : t -> event list
(** In chronological (recording) order. *)

val count : t -> kind -> int

val render : ?width:int -> t -> string
(** Three-lane ASCII schedule in the style of Figure 2: CPU stalls [s],
    bus transfers [> <], kernels [K]. *)
