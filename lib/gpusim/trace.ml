(* Event trace of the simulated execution, used to render the execution
   schedules of Figure 2 and to assert acyclicity properties in tests
   (e.g. "no device-to-host transfer inside this loop"). *)

type kind =
  | Htod  (* host-to-device transfer *)
  | Dtoh  (* device-to-host transfer *)
  | Kernel
  | Sync  (* CPU stalled waiting for the device *)

type event = { kind : kind; start : float; finish : float; label : string;
               bytes : int }

type t = { mutable events : event list; mutable enabled : bool }

let create ?(enabled = false) () = { events = []; enabled }

let record t kind ~start ~finish ~label ~bytes =
  if t.enabled then
    t.events <- { kind; start; finish; label; bytes } :: t.events

let events t = List.rev t.events

(* ASCII schedule with three lanes, in the style of Figure 2. *)
let render ?(width = 72) t =
  let evs = events t in
  match evs with
  | [] -> "(empty trace)\n"
  | _ ->
    let t_end =
      List.fold_left (fun m e -> max m e.finish) 0.0 evs
    in
    let t_end = if t_end <= 0.0 then 1.0 else t_end in
    let lane_of = function
      | Kernel -> 2
      | Htod | Dtoh -> 1
      | Sync -> 0
    in
    let lanes = [| Bytes.make width '.'; Bytes.make width '.'; Bytes.make width '.' |] in
    let glyph = function Kernel -> 'K' | Htod -> '>' | Dtoh -> '<' | Sync -> 's' in
    List.iter
      (fun e ->
        let a = int_of_float (e.start /. t_end *. float_of_int (width - 1)) in
        let b = int_of_float (e.finish /. t_end *. float_of_int (width - 1)) in
        let lane = lanes.(lane_of e.kind) in
        for i = max 0 a to min (width - 1) (max a b) do
          Bytes.set lane i (glyph e.kind)
        done)
      evs;
    Fmt.str "CPU stalls |%s|@.bus        |%s|@.GPU        |%s|@."
      (Bytes.to_string lanes.(0))
      (Bytes.to_string lanes.(1))
      (Bytes.to_string lanes.(2))

let count t kind =
  List.length (List.filter (fun e -> e.kind = kind) (events t))
