(* Write-ahead journal of the serve daemon's recoverable state.

   File layout:

     magic   "CGCMJNL1"                                   (8 bytes)
     record  [payload-len : 4 BE] [crc32(payload) : 4 BE] [payload]
     record  ...

   Payloads are compact JSON (the serve codec), one record per durable
   fact. Records are appended before the reply that depends on them is
   delivered, and each is fsynced as it is appended, so anything a
   client was told survived the daemon actually survives a kill -9 —
   modulo the torn tail, which replay detects (short read, CRC or parse
   mismatch) and tolerates by ending at the last intact record.

   The journal folds every append into an in-memory aggregate [state];
   rotation writes that aggregate as a single snapshot record into a
   temporary file and renames it over the log, so the file stays
   bounded no matter how long the daemon lives. Rename is atomic: a
   crash mid-rotation leaves either the old log or the new snapshot,
   never a hybrid. *)

type breaker = B_closed | B_open of int | B_half_open

type tenant_rec = {
  jt_name : string;
  jt_breaker : breaker;
  jt_consec : int;
  jt_trips : int;
}

type compile_rec = { jc_mode : string; jc_source : string }

type warm_rec = {
  jw_tenant : string;
  jw_key : string;
  jw_mode : string;
  jw_source : string;
}

type state = {
  js_compiles : compile_rec list;
  js_warm : warm_rec list;
  js_tenants : tenant_rec list;
  js_globals_gen : int;
}

let empty_state =
  { js_compiles = []; js_warm = []; js_tenants = []; js_globals_gen = 0 }

type record =
  | Compile of compile_rec
  | Warm of warm_rec * int
  | Breaker of tenant_rec
  | Snapshot of state

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven                        *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record (de)serialization                                            *)

let breaker_to_json = function
  | B_closed -> Json.Obj [ ("k", Json.Str "closed") ]
  | B_open left -> Json.Obj [ ("k", Json.Str "open"); ("left", Json.Int left) ]
  | B_half_open -> Json.Obj [ ("k", Json.Str "half-open") ]

let breaker_of_json v =
  match Json.str_field "k" v with
  | "closed" -> B_closed
  | "open" -> B_open (Json.int_field ~default:0 "left" v)
  | "half-open" -> B_half_open
  | k -> raise (Json.Parse_error ("unknown breaker state " ^ k))

let tenant_to_json t =
  Json.Obj
    [
      ("name", Json.Str t.jt_name);
      ("breaker", breaker_to_json t.jt_breaker);
      ("consec", Json.Int t.jt_consec);
      ("trips", Json.Int t.jt_trips);
    ]

let tenant_of_json v =
  {
    jt_name = Json.str_field "name" v;
    jt_breaker =
      (match Json.member "breaker" v with
      | Some b -> breaker_of_json b
      | None -> B_closed);
    jt_consec = Json.int_field ~default:0 "consec" v;
    jt_trips = Json.int_field ~default:0 "trips" v;
  }

let compile_to_json c =
  Json.Obj [ ("mode", Json.Str c.jc_mode); ("source", Json.Str c.jc_source) ]

let compile_of_json v =
  { jc_mode = Json.str_field "mode" v; jc_source = Json.str_field "source" v }

let warm_to_json w =
  Json.Obj
    [
      ("tenant", Json.Str w.jw_tenant);
      ("key", Json.Str w.jw_key);
      ("mode", Json.Str w.jw_mode);
      ("source", Json.Str w.jw_source);
    ]

let warm_of_json v =
  {
    jw_tenant = Json.str_field "tenant" v;
    jw_key = Json.str_field "key" v;
    jw_mode = Json.str_field "mode" v;
    jw_source = Json.str_field "source" v;
  }

let state_to_json s =
  Json.Obj
    [
      ("gen", Json.Int s.js_globals_gen);
      ("compiles", Json.List (List.map compile_to_json s.js_compiles));
      ("warm", Json.List (List.map warm_to_json s.js_warm));
      ("tenants", Json.List (List.map tenant_to_json s.js_tenants));
    ]

let list_field name f v =
  match Json.member name v with
  | Some (Json.List l) -> List.map f l
  | _ -> []

let state_of_json v =
  {
    js_globals_gen = Json.int_field ~default:0 "gen" v;
    js_compiles = list_field "compiles" compile_of_json v;
    js_warm = list_field "warm" warm_of_json v;
    js_tenants = list_field "tenants" tenant_of_json v;
  }

let record_to_json = function
  | Compile c ->
    Json.Obj (("t", Json.Str "compile") :: [ ("r", compile_to_json c) ])
  | Warm (w, gen) ->
    Json.Obj
      [ ("t", Json.Str "warm"); ("r", warm_to_json w); ("gen", Json.Int gen) ]
  | Breaker t -> Json.Obj [ ("t", Json.Str "breaker"); ("r", tenant_to_json t) ]
  | Snapshot s -> Json.Obj [ ("t", Json.Str "snapshot"); ("r", state_to_json s) ]

let record_of_json v =
  let r () =
    match Json.member "r" v with
    | Some r -> r
    | None -> raise (Json.Parse_error "record missing body")
  in
  match Json.str_field "t" v with
  | "compile" -> Compile (compile_of_json (r ()))
  | "warm" -> Warm (warm_of_json (r ()), Json.int_field ~default:0 "gen" v)
  | "breaker" -> Breaker (tenant_of_json (r ()))
  | "snapshot" -> Snapshot (state_of_json (r ()))
  | t -> raise (Json.Parse_error ("unknown record type " ^ t))

(* ------------------------------------------------------------------ *)
(* Folding records into the aggregate                                  *)

let apply st = function
  | Compile c ->
    if
      List.exists
        (fun o -> o.jc_mode = c.jc_mode && o.jc_source = c.jc_source)
        st.js_compiles
    then st
    else { st with js_compiles = st.js_compiles @ [ c ] }
  | Warm (w, gen) ->
    let others =
      List.filter
        (fun o -> not (o.jw_tenant = w.jw_tenant && o.jw_key = w.jw_key))
        st.js_warm
    in
    {
      st with
      js_warm = others @ [ w ];
      js_globals_gen = max st.js_globals_gen gen;
    }
  | Breaker t ->
    let others = List.filter (fun o -> o.jt_name <> t.jt_name) st.js_tenants in
    { st with js_tenants = others @ [ t ] }
  | Snapshot s -> s

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let magic = "CGCMJNL1"

(* Sanity bound on a single record: a snapshot aggregates many sources,
   so this sits well above the wire protocol's 8 MiB frame cap. Replay
   treats anything larger as corruption, not as an allocation order. *)
let max_record_bytes = 64 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  let crc = crc32 payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.set_uint8 b 4 ((crc lsr 24) land 0xFF);
  Bytes.set_uint8 b 5 ((crc lsr 16) land 0xFF);
  Bytes.set_uint8 b 6 ((crc lsr 8) land 0xFF);
  Bytes.set_uint8 b 7 (crc land 0xFF);
  Bytes.blit_string payload 0 b 8 n;
  b

let be32 b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let really_write fd buf =
  let off = ref 0 and left = ref (Bytes.length buf) in
  while !left > 0 do
    let n = Unix.write fd buf !off !left in
    off := !off + n;
    left := !left - n
  done

(* ------------------------------------------------------------------ *)
(* The live journal                                                    *)

type jstats = { j_appends : int; j_snapshots : int; j_fsyncs : int }

type t = {
  jpath : string;
  snapshot_every : int;
  mutable fd : Unix.file_descr;
  mutable st : state;
  mutable since_snapshot : int;  (* records since the last snapshot *)
  mutable appends : int;
  mutable snapshots : int;
  mutable fsyncs : int;
  mutable closed : bool;
}

(* Per-shard journal segments: a sharded daemon gives each shard its
   own journal file so appends never cross domains. With one shard the
   base path is used unchanged, keeping single-shard journals (and
   every existing recovery artifact) byte-compatible. *)
let segment_path base ~shards i =
  if shards <= 1 then base else Printf.sprintf "%s.shard%d" base i

let stats t = { j_appends = t.appends; j_snapshots = t.snapshots; j_fsyncs = t.fsyncs }

let fsync t =
  Unix.fsync t.fd;
  t.fsyncs <- t.fsyncs + 1

let write_record t r =
  really_write t.fd (frame (Json.print (record_to_json r)))

let create ?(snapshot_every = 256) ?initial ~path () =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  really_write fd (Bytes.of_string magic);
  let t =
    {
      jpath = path;
      snapshot_every = max 1 snapshot_every;
      fd;
      st = Option.value initial ~default:empty_state;
      since_snapshot = 0;
      appends = 0;
      snapshots = 0;
      fsyncs = 0;
      closed = false;
    }
  in
  (* A recovered state is written up front so the fresh journal is
     self-contained: a second crash before any new append still replays
     to the recovered state. *)
  (match initial with
  | Some st when st <> empty_state -> write_record t (Snapshot st)
  | _ -> ());
  fsync t;
  t

(* Fold the log into one snapshot in a sibling file and rename it over
   the journal; the fd keeps pointing at the (renamed) new inode. *)
let rotate t =
  let tmp = t.jpath ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  really_write fd (Bytes.of_string magic);
  really_write fd (frame (Json.print (record_to_json (Snapshot t.st))));
  Unix.fsync fd;
  Unix.rename tmp t.jpath;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- fd;
  t.snapshots <- t.snapshots + 1;
  t.since_snapshot <- 0;
  t.fsyncs <- t.fsyncs + 1

let append t r =
  if t.closed then invalid_arg "Journal.append: closed";
  write_record t r;
  t.st <- apply t.st r;
  t.appends <- t.appends + 1;
  t.since_snapshot <- t.since_snapshot + 1;
  fsync t;
  if t.since_snapshot >= t.snapshot_every then rotate t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay = { rp_state : state; rp_records : int; rp_torn : bool }

let read_upto fd buf len =
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    match Unix.read fd buf !off (len - !off) with
    | 0 -> eof := true
    | n -> off := !off + n
  done;
  !off

let replay ~path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let hdr = Bytes.create 8 in
        if
          read_upto fd hdr 8 <> 8
          || Bytes.unsafe_to_string hdr <> magic
        then Some { rp_state = empty_state; rp_records = 0; rp_torn = true }
        else begin
          let st = ref empty_state in
          let records = ref 0 in
          let torn = ref false in
          let continue = ref true in
          while !continue do
            let rhdr = Bytes.create 8 in
            match read_upto fd rhdr 8 with
            | 0 -> continue := false (* clean EOF on a record boundary *)
            | n when n < 8 ->
              torn := true;
              continue := false
            | _ ->
              let len = be32 rhdr 0 in
              let crc = be32 rhdr 4 in
              if len < 0 || len > max_record_bytes then begin
                torn := true;
                continue := false
              end
              else begin
                let payload = Bytes.create len in
                if read_upto fd payload len < len then begin
                  torn := true;
                  continue := false
                end
                else begin
                  let s = Bytes.unsafe_to_string payload in
                  if crc32 s <> crc then begin
                    torn := true;
                    continue := false
                  end
                  else
                    match record_of_json (Json.parse s) with
                    | r ->
                      st := apply !st r;
                      incr records
                    | exception Json.Parse_error _ ->
                      torn := true;
                      continue := false
                end
              end
          done;
          Some { rp_state = !st; rp_records = !records; rp_torn = !torn }
        end)
