(* In-memory spans recorded by the traced pass around calls into each
   layer's public functions. A span names its layer, the op (program run
   or request) it belongs to, and the span that caused it; spans on one
   lane nest, so the Chrome trace renders each lane as one stack.
   Nothing is written until the pass ends. *)

module Json = Cgcm_serve.Json

type span = {
  id : int;
  name : string;
  op : int;  (** the program run or request; -1 for none *)
  parent : int;  (** -1 for a root *)
  lane : int;
  start_ns : int;
  mutable stop_ns : int;
}

type t = { mutable spans : span list; mutable next : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { spans = []; next = 0 }

let add t ?(parent = -1) ?(lane = 0) ?(op = -1) name ~start_ns ~stop_ns =
  let s = { id = t.next; name; op; parent; lane; start_ns; stop_ns } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let start t ?parent ?lane ?op name =
  let now = now_ns () in
  add t ?parent ?lane ?op name ~start_ns:now ~stop_ns:now

let stop s = s.stop_ns <- now_ns ()

let record t ?parent ?lane ?op name f =
  let s = start t ?parent ?lane ?op name in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s)

(* Oldest first. *)
let spans t = List.rev t.spans

(* Length of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) ->
         let a = max a reach in
         if b > a then (acc + (b - a), b) else (acc, reach))
       (0, lo) clipped)

(* A span's self time: its duration minus the part of its interval its
   child spans cover. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  List.map
    (fun s ->
      let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      ( s,
        s.stop_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.stop_ns children
      ))
    spans

(* Self time per span name, in ms, in order of first appearance. *)
let self_ms_by_name spans =
  let order = ref [] and total = Hashtbl.create 16 in
  List.iter
    (fun (s, ns) ->
      (match Hashtbl.find_opt total s.name with
      | None -> order := s.name :: !order
      | Some _ -> ());
      Hashtbl.replace total s.name
        (ns + Option.value ~default:0 (Hashtbl.find_opt total s.name)))
    (self_times spans);
  List.rev_map
    (fun name -> (name, float_of_int (Hashtbl.find total name) /. 1e6))
    !order

(* Chrome Trace Event JSON ("X" complete events, microseconds from the
   first span), which Perfetto and chrome://tracing open. *)
let to_chrome spans : Json.t =
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = float_of_int ns /. 1e3 in
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Str s.name);
                   ("ph", Str "X");
                   ("ts", Float (us (s.start_ns - t0)));
                   ("dur", Float (us (s.stop_ns - s.start_ns)));
                   ("pid", Int 1);
                   ("tid", Int s.lane);
                   ( "args",
                     Obj
                       [ ("op", Int s.op); ("id", Int s.id); ("parent", Int s.parent) ]
                   );
                 ])
             spans) );
      ("displayTimeUnit", Str "ms");
    ]
