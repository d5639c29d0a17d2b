(* Differential testing of the closure-compiled interpreter engine
   against the tree-walking engine, and properties of the dirty-span
   transfer tracker.

   The closure engine is an aggressive reimplementation (pre-decoded
   closure arrays, expression folding, scalar alloca promotion, cached
   block handles), so every program in the suite runs under both engines
   in every execution configuration and must produce bit-identical
   outputs, simulated clocks, instruction counts, device/run-time stats,
   and traces. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Memspace = Cgcm_memory.Memspace
module Trace = Cgcm_gpusim.Trace
module Device = Cgcm_gpusim.Device
module Runtime = Cgcm_runtime.Runtime
module PB = Cgcm_progs.Polybench
module RD = Cgcm_progs.Rodinia
module OT = Cgcm_progs.Others

let check = Alcotest.check

(* Small-size variants of all 24 registry programs: same sources as the
   benchmark registry, scaled down so the whole matrix stays quick. *)
let small_programs =
  [
    ("adi", PB.adi ~n:10 ~steps:3 ());
    ("atax", PB.atax ~n:16 ());
    ("bicg", PB.bicg ~n:16 ());
    ("correlation", PB.correlation ~n:10 ());
    ("covariance", PB.covariance ~n:10 ());
    ("doitgen", PB.doitgen ~n:6 ());
    ("gemm", PB.gemm ~n:12 ());
    ("gemver", PB.gemver ~n:16 ());
    ("gesummv", PB.gesummv ~n:16 ());
    ("gramschmidt", PB.gramschmidt ~n:8 ());
    ("jacobi-2d-imper", PB.jacobi_2d ~n:10 ~steps:4 ());
    ("seidel", PB.seidel ~n:10 ~steps:3 ());
    ("lu", PB.lu ~n:12 ());
    ("ludcmp", PB.ludcmp ~n:12 ());
    ("2mm", PB.twomm ~n:10 ());
    ("3mm", PB.threemm ~n:10 ());
    ("cfd", RD.cfd ~cells:64 ~steps:4 ());
    ("hotspot", RD.hotspot ~n:10 ~steps:4 ());
    ("kmeans", RD.kmeans ~points:48 ~dims:4 ~clusters:4 ~iters:3 ());
    ("lud", RD.lud ~n:12 ());
    ("nw", RD.nw ~n:16 ());
    ("srad", RD.srad ~n:10 ~steps:4 ());
    ("fm", OT.fm ~samples:256 ~taps:4 ());
    ("blackscholes", OT.blackscholes ~options:200 ());
  ]

let exact = Alcotest.float 0.0

let check_equal_results where (a : Interp.result) (b : Interp.result) =
  let n fmt = where ^ " " ^ fmt in
  check Alcotest.int64 (n "exit") a.Interp.exit_code b.Interp.exit_code;
  check Alcotest.string (n "output") a.Interp.output b.Interp.output;
  check exact (n "wall") a.Interp.wall b.Interp.wall;
  check exact (n "cpu") a.Interp.cpu_compute b.Interp.cpu_compute;
  check exact (n "gpu") a.Interp.gpu b.Interp.gpu;
  check exact (n "comm") a.Interp.comm b.Interp.comm;
  check exact (n "sync") a.Interp.sync b.Interp.sync;
  check Alcotest.int (n "cpu insts") a.Interp.cpu_insts b.Interp.cpu_insts;
  check Alcotest.int (n "kernel insts") a.Interp.kernel_insts
    b.Interp.kernel_insts;
  let da = a.Interp.dev_stats and db = b.Interp.dev_stats in
  check Alcotest.int (n "htod bytes") da.Device.htod_bytes db.Device.htod_bytes;
  check Alcotest.int (n "dtoh bytes") da.Device.dtoh_bytes db.Device.dtoh_bytes;
  check Alcotest.int (n "htod count") da.Device.htod_count db.Device.htod_count;
  check Alcotest.int (n "dtoh count") da.Device.dtoh_count db.Device.dtoh_count;
  check Alcotest.int (n "launches") da.Device.launches db.Device.launches;
  let ra = a.Interp.rt_stats and rb = b.Interp.rt_stats in
  check Alcotest.int (n "map calls") ra.Runtime.map_calls rb.Runtime.map_calls;
  check Alcotest.int (n "unmap calls") ra.Runtime.unmap_calls
    rb.Runtime.unmap_calls;
  check Alcotest.int (n "release calls") ra.Runtime.release_calls
    rb.Runtime.release_calls;
  check Alcotest.int (n "skipped unmaps") ra.Runtime.skipped_unmaps
    rb.Runtime.skipped_unmaps;
  check Alcotest.int (n "partial copies") ra.Runtime.partial_copies
    rb.Runtime.partial_copies;
  check Alcotest.int (n "bytes saved") ra.Runtime.bytes_saved
    rb.Runtime.bytes_saved;
  let ea = Trace.events a.Interp.trace and eb = Trace.events b.Interp.trace in
  check Alcotest.int (n "trace length") (List.length ea) (List.length eb);
  check Alcotest.bool (n "trace events") true (ea = eb)

let test_differential (name, src) () =
  List.iter
    (fun (cname, ex) ->
      let _, closures =
        Pipeline.run ~trace:true ~engine:Interp.Closures ex src
      in
      let _, tree =
        Pipeline.run ~trace:true ~engine:Interp.Tree_walk ex src
      in
      check_equal_results (name ^ "/" ^ cname) closures tree)
    Pipeline.executions

(* Dirty-span transfers must only ever reduce communication: the
   optimized configuration with the tracker on moves no more bytes than
   with whole-unit copies, and prints the same output. *)
let test_dirty_monotone () =
  List.iter
    (fun pname ->
      let src = (List.assoc pname small_programs : string) in
      let _, on =
        Pipeline.run ~dirty_spans:true Pipeline.Cgcm_optimized src
      in
      let _, off =
        Pipeline.run ~dirty_spans:false Pipeline.Cgcm_optimized src
      in
      check Alcotest.string (pname ^ " output") on.Interp.output
        off.Interp.output;
      let bytes (r : Interp.result) =
        ( r.Interp.dev_stats.Device.htod_bytes,
          r.Interp.dev_stats.Device.dtoh_bytes )
      in
      let h_on, d_on = bytes on and h_off, d_off = bytes off in
      check Alcotest.bool (pname ^ " htod no worse") true (h_on <= h_off);
      check Alcotest.bool (pname ^ " dtoh no worse") true (d_on <= d_off))
    [ "gemm"; "hotspot"; "jacobi-2d-imper"; "nw"; "srad" ]

(* Property: the dirty-span tracker never loses a written byte. Random
   writes go into one unit; every written offset must be covered by some
   recorded span, and clearing leaves nothing behind. *)
let prop_dirty_covers =
  QCheck2.Test.make ~name:"dirty spans cover every written byte" ~count:200
    QCheck2.Gen.(list_size (1 -- 40) (pair (int_bound 255) (int_bound 31)))
    (fun writes ->
      let m =
        Memspace.create ~name:"dirty" ~range_lo:0x1000 ~range_hi:0x100000
      in
      let size = 256 in
      let base = Memspace.alloc m size in
      let written = Array.make size false in
      List.iter
        (fun (off, len) ->
          let len = min (len + 1) (size - off) in
          for i = off to off + len - 1 do
            Memspace.store_u8 m (base + i) 0xAB;
            written.(i) <- true
          done)
        writes;
      let spans = Memspace.dirty_spans m base in
      let covered i =
        List.exists (fun (o, l) -> o <= i && i < o + l) spans
      in
      let ok = ref true in
      for i = 0 to size - 1 do
        if written.(i) && not (covered i) then ok := false
      done;
      (* spans never exceed the unit *)
      List.iter
        (fun (o, l) -> if o < 0 || l <= 0 || o + l > size then ok := false)
        spans;
      Memspace.clear_dirty m base;
      !ok && Memspace.dirty_bytes m base = 0)

let tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case
        (Printf.sprintf "engines agree on %s" name)
        `Quick
        (test_differential (name, src)))
    small_programs
  @ [
      Alcotest.test_case "dirty spans only reduce traffic" `Quick
        test_dirty_monotone;
      QCheck_alcotest.to_alcotest prop_dirty_covers;
    ]
