(* [ledger diff OLD NEW]: one row per (workload, end-to-end metric),
   classed against the bounds BENCHMARK.json fixes. *)

module Json = Cgcm_serve.Json

type better = Lower | Higher
type bound = { name : string; better : better; bound : float }

(* The end-to-end metrics' directions and bounds from BENCHMARK.json. *)
let bounds_of_benchmark (v : Json.t) =
  match Json.member "end_to_end" v with
  | Some (List ms) ->
    List.map
      (fun m ->
        {
          name = Json.str_field "name" m;
          better =
            (match Json.str_field "better" m with
            | "lower" -> Lower
            | "higher" -> Higher
            | b -> raise (Json.Parse_error ("bad direction " ^ b)));
          bound = Json.float_field "bound" m;
        })
      ms
  | _ -> raise (Json.Parse_error "BENCHMARK.json has no end_to_end list")

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* How much worse [new_v] is than [old_v], as a share of [old_v]
   (negative when better). *)
let worsening ~better ~old_v ~new_v =
  let rel =
    if old_v = new_v then 0.0
    else if old_v = 0.0 then Float.copy_sign infinity (new_v -. old_v)
    else (new_v -. old_v) /. Float.abs old_v
  in
  match better with Lower -> rel | Higher -> -.rel

(* A metric whose passes lie further apart than its bound, in either
   result, cannot be classed by its value, unless every new pass beats
   every old one. *)
let classify b ~(old_m : Metric.t) ~(new_m : Metric.t) =
  let old_v = old_m.value and new_v = new_m.value in
  let w = worsening ~better:b.better ~old_v ~new_v in
  let all_better =
    old_m.passes <> [] && new_m.passes <> []
    && List.for_all
         (fun n ->
           List.for_all
             (fun o -> worsening ~better:b.better ~old_v:o ~new_v:n < 0.0)
             old_m.passes)
         new_m.passes
  in
  if Float.max old_m.spread new_m.spread > b.bound then
    if all_better then Better else Unresolved
  else if w > b.bound then Worse
  else if w < -.b.bound then Better
  else Same

type row = {
  workload : string;
  metric : string;
  old_v : float;
  new_v : float;
  change : float;  (** worsening share; negative is better *)
  verdict : verdict;
}

(* A metric as [Metric.full_json] wrote it. *)
let metric_of name m : Metric.t =
  {
    name;
    unit_ = Json.str_field "unit" m;
    value = Json.float_field "value" m;
    passes =
      (match Json.member "passes" m with
      | Some (List ps) ->
        List.filter_map
          (function Json.Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None)
          ps
      | _ -> []);
    spread = Json.float_field ~default:0.0 "spread" m;
  }

let workloads (v : Json.t) =
  match Json.member "workloads" v with Some (Obj ws) -> ws | _ -> []

let part name w = Json.member name w

let failed_ratio p = Json.float_field ~default:0.0 "failed_ratio" p

(* The rows, and whether any metric got worse beyond its bound or any
   failure ratio rose. *)
let compare ~bounds ~old_result ~new_result =
  let rows = ref [] and failing = ref false in
  List.iter
    (fun (wname, new_w) ->
      match List.assoc_opt wname (workloads old_result) with
      | None -> ()
      | Some old_w ->
        List.iter
          (fun part_name ->
            match (part part_name old_w, part part_name new_w) with
            | Some o, Some n ->
              let fo = failed_ratio o and fn = failed_ratio n in
              let fr_verdict = if fn > fo then Worse else if fn < fo then Better else Same in
              if fr_verdict = Worse then failing := true;
              rows :=
                {
                  workload = wname ^ (if part_name = "traced" then " (traced)" else "");
                  metric = "failed_ratio";
                  old_v = fo;
                  new_v = fn;
                  change = fn -. fo;
                  verdict = fr_verdict;
                }
                :: !rows;
              if part_name = "untraced" then
                List.iter
                  (fun b ->
                    let metric v = Option.bind (Json.member "metrics" v) (Json.member b.name) in
                    match (metric o, metric n) with
                    | Some om, Some nm ->
                      let old_m = metric_of b.name om and new_m = metric_of b.name nm in
                      let old_v = old_m.value and new_v = new_m.value in
                      let verdict = classify b ~old_m ~new_m in
                      if verdict = Worse then failing := true;
                      rows :=
                        {
                          workload = wname;
                          metric = b.name;
                          old_v;
                          new_v;
                          change = worsening ~better:b.better ~old_v ~new_v;
                          verdict;
                        }
                        :: !rows
                    | _ -> ())
                  bounds
            | _ -> ())
          [ "untraced"; "traced" ])
    (workloads new_result);
  (List.rev !rows, !failing)

let render rows =
  let line r =
    Printf.sprintf "%-16s %-20s %14.6g %14.6g %+8.2f%%  %s" r.workload r.metric r.old_v
      r.new_v (100.0 *. r.change) (verdict_name r.verdict)
  in
  String.concat "\n"
    (Printf.sprintf "%-16s %-20s %14s %14s %9s  %s" "workload" "metric" "old" "new"
       "worse by" "verdict"
    :: List.map line rows)
  ^ "\n"
