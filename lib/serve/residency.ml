(* Cross-request device residency.

   The daemon keeps one simulated device alive across requests and lets
   tenants park "warm" copies of their globals on it, so a tenant's
   second request finds its data resident instead of paying the full
   HtoD transfer again. Each warm entry — one per (tenant, source key) —
   owns a private host memspace and a private CGCM run-time, but every
   run-time shares the daemon's single device, so tenants genuinely
   contend for device memory.

   Warmth is deliberately represented with the production machinery, not
   a side table: a warm global is a zero-refcount device-resident module
   global registered under a tenant-prefixed name. That makes PR-2's OOM
   recovery the cross-tenant eviction policy for free — relieving
   pressure is [Runtime.evict_one] on the least-recently-used other
   tenant's entry, which writes dirty data back byte-exactly and revokes
   the global via [Device.forget_global] (bumping [globals_gen], so any
   cached device address is invalidated). *)

module Memspace = Cgcm_memory.Memspace
module Device = Cgcm_gpusim.Device
module Cost_model = Cgcm_gpusim.Cost_model
module Runtime = Cgcm_runtime.Runtime
module Errors = Cgcm_support.Errors

type unit_info = {
  u_name : string;  (* unprefixed global name *)
  u_pref : string;  (* device-module name, "tenant/key/name" *)
  u_base : int;  (* host base inside the entry's memspace *)
  u_size : int;
}

type entry = {
  e_tenant : string;
  e_key : string;
  e_host : Memspace.t;
  e_rt : Runtime.t;
  e_units : unit_info list;
  mutable e_tick : int;  (* LRU recency stamp *)
}

type t = {
  dev : Device.t;
  dev_capacity : int;
  entries : (string * string, entry) Hashtbl.t;
  mutable tick : int;
  mutable cross_evictions : int;  (* units revoked to relieve pressure *)
}

let create ~device_mem () =
  let cost = { Cost_model.default with device_mem_bytes = device_mem } in
  {
    dev = Device.create cost;
    dev_capacity = device_mem;
    entries = Hashtbl.create 16;
    tick = 0;
    cross_evictions = 0;
  }

let device t = t.dev
let capacity t = t.dev_capacity

let find t ~tenant ~key = Hashtbl.find_opt t.entries (tenant, key)
let entry_runtime e = e.e_rt

let entry_units e =
  List.map (fun u -> (u.u_pref, u.u_base, u.u_size)) e.e_units

let unit_resident e u =
  match (Runtime.lookup_unit e.e_rt u.u_base).devptr with
  | Some _ -> true
  | None -> false

let entry_resident_bytes e =
  List.fold_left
    (fun acc u -> if unit_resident e u then acc + u.u_size else acc)
    0 e.e_units

let host_bytes e name =
  match List.find_opt (fun u -> u.u_name = name) e.e_units with
  | Some u -> Memspace.read_bytes e.e_host u.u_base u.u_size
  | None -> invalid_arg ("Residency.host_bytes: no warm global " ^ name)

let warm_bytes t =
  Hashtbl.fold (fun _ e acc -> acc + entry_resident_bytes e) t.entries 0

let warm_entries t = Hashtbl.length t.entries
let cross_evictions t = t.cross_evictions

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

(* Evict one resident unit from the least-recently-used entry not owned
   by [except]. One unit, not one entry: pressure relief should shed the
   minimum amount of warmth. *)
let evict_lru_unit ?except t =
  let victim =
    Hashtbl.fold
      (fun (tenant, _) e acc ->
        if Some tenant = except then acc
        else if entry_resident_bytes e = 0 then acc
        else
          match acc with
          | Some best when best.e_tick <= e.e_tick -> acc
          | _ -> Some e)
      t.entries None
  in
  match victim with
  | Some e when Runtime.evict_one e.e_rt ->
    t.cross_evictions <- t.cross_evictions + 1;
    true
  | _ -> false

let is_capacity_oom = function
  | Errors.Device_error (Errors.Oom { injected = false; _ }) -> true
  | Runtime.Runtime_error { device = Some (Errors.Oom { injected = false; _ }); _ }
    -> true
  | _ -> false

(* Make a unit resident: map (HtoD when not already resident) then
   release, leaving it at refcount zero so it is both warm and evictable.
   The run-time's own recovery already evicts this entry's units on OOM;
   when that is not enough, fall back to evicting other tenants' warmth,
   LRU first. *)
let ensure_resident t e u =
  let rec go budget =
    if unit_resident e u then true
    else
      match Runtime.map e.e_rt u.u_base with
      | (_ : int) ->
        Runtime.release e.e_rt u.u_base;
        true
      | exception exn when is_capacity_oom exn ->
        if budget > 0 && evict_lru_unit ~except:e.e_tenant t then go (budget - 1)
        else false
  in
  (* Each retry follows a successful eviction, so progress is monotone;
     the budget is a belt-and-braces bound, not a tuning knob. *)
  go 1024

let drop_entry t e =
  while Runtime.evict_one e.e_rt do () done;
  Hashtbl.remove t.entries (e.e_tenant, e.e_key)

(* Initial host contents of a warmed global: a deterministic per-name
   pattern. *)
let init name size =
  let seed = String.fold_left (fun acc c -> acc + Char.code c) 7 name in
  Bytes.init size (fun i -> Char.chr ((seed + (37 * i)) land 0xFF))

let warm t ~tenant ~key ~globals =
  let e =
    match find t ~tenant ~key with
    | Some e -> e
    | None ->
      let host =
        Memspace.create
          ~name:(Printf.sprintf "warm:%s/%s" tenant key)
          ~range_lo:4096 ~range_hi:(1 lsl 40)
      in
      (* Whole-unit transfers: eviction write-back must restore the host
         copy byte-exactly without depending on span bookkeeping. *)
      let rt = Runtime.create ~dirty_spans:false ~host ~dev:t.dev () in
      let units =
        List.map
          (fun (name, size) ->
            let base = Memspace.alloc ~tag:("warm:" ^ name) host size in
            Memspace.write_bytes host base (init name size);
            let pref = Printf.sprintf "%s/%s/%s" tenant key name in
            Runtime.declare_global rt ~name:pref ~base ~size ~read_only:false;
            { u_name = name; u_pref = pref; u_base = base; u_size = size })
          globals
      in
      let e =
        { e_tenant = tenant; e_key = key; e_host = host; e_rt = rt;
          e_units = units; e_tick = 0 }
      in
      Hashtbl.replace t.entries (tenant, key) e;
      e
  in
  touch t e;
  (* (Re-)establish residency for every unit; a previously-evicted warm
     global is refilled from its written-back host copy. *)
  let ok = List.for_all (fun u -> ensure_resident t e u) e.e_units in
  if not ok then drop_entry t e;
  ok

(* Every entry's run-time shares [t.dev], so they are audited together:
   a block one entry owns is no orphan to another. *)
let check_invariants t =
  Runtime.audit t.dev
    (List.rev (Hashtbl.fold (fun _ e acc -> e.e_rt :: acc) t.entries []))

let shutdown t =
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [] in
  List.iter
    (fun e ->
      while Runtime.evict_one e.e_rt do () done;
      (* the leak report's resident counts, without its device snapshot *)
      if Runtime.resident_units e.e_rt <> 0 then
        failwith "Residency.shutdown: units survived eviction")
    entries;
  check_invariants t;
  Hashtbl.reset t.entries;
  List.length (Memspace.blocks_snapshot t.dev.Device.mem)
