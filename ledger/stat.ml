(* Summary statistics the ledger reports: medians, the tail percentile
   rule, each host-time metric's best pass, and the spreads the diff
   classifies by. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that still has 10 samples above it: with n
   sorted samples that is the 11th largest, at percentile
   100 (n - 10) / n, so p99 once a pass reaches 1,000 samples. Fewer
   than 11 samples have no such percentile. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      (a.(n - beyond - 1), 100.0 *. float_of_int (n - beyond) /. float_of_int n)

(* The distance between the first and third quartiles as a share of the
   median, with quartiles as Python's [statistics.quantiles(xs, n=4)]
   gives them. Fewer than 2 samples have no spread. *)
let iqr_share xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let quartile i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    let m = median xs in
    let iqr = quartile 3 -. quartile 1 in
    if m = 0.0 then (if iqr = 0.0 then 0.0 else infinity) else Float.abs (iqr /. m)

(* Interference from other work on a shared host only ever adds time,
   so the ledger reports each host-time metric's best pass: the least
   time (or the most throughput) the code achieved. [higher] says which
   end is best. *)
let best ~higher xs =
  match xs with
  | [] -> invalid_arg "Stat.best: no samples"
  | x :: rest -> List.fold_left (if higher then Float.max else Float.min) x rest

(* How far the runner-up pass lies from the best, as a share of the
   best: small when the best pass is typical of a quiet host, large when
   it is a lone outlier. One pass has no gap. *)
let gap ~higher xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let b, r = if higher then (a.(n - 1), a.(n - 2)) else (a.(0), a.(1)) in
    if b = 0.0 then (if r = 0.0 then 0.0 else infinity) else Float.abs ((r -. b) /. b)
