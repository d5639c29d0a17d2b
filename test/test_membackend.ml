(* The two memory backends: the explicit-copy CGCM run-time vs the
   paged single-address-space backend must be observationally identical
   — same program output, same exit code, clean leak reports — with only
   the cost model differing. Plus qcheck properties of the page-
   migration accounting against a reference model, suite goldens pinning
   each backend's accounting, golden tests for the byte-size CLI parser,
   and the serve daemon's "+paged" mode suffix. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged
module Runtime = Cgcm_runtime.Runtime
module Device = Cgcm_gpusim.Device
module Cost_model = Cgcm_gpusim.Cost_model
module Bytesize = Cgcm_support.Bytesize
module Engine = Cgcm_serve.Engine
module Wire = Cgcm_serve.Wire

let check = Alcotest.check

let clean (r : Interp.result) =
  r.Interp.leaks.Runtime.resident_nonglobal = 0
  && r.Interp.leaks.Runtime.leaked_dev_blocks = 0

(* ------------------------------------------------------------------ *)
(* Backend differential: the whole small-size suite, both split-memory
   configurations, must be bit-identical between backends. *)

let check_backends_agree name ex pg =
  check Alcotest.string
    (name ^ ": output identical across backends")
    ex.Interp.output pg.Interp.output;
  check Alcotest.int64
    (name ^ ": exit code identical across backends")
    ex.Interp.exit_code pg.Interp.exit_code;
  check Alcotest.bool (name ^ ": explicit leak report clean") true (clean ex);
  check Alcotest.bool (name ^ ": paged leak report clean") true (clean pg)

let backend_differential exec () =
  List.iter
    (fun (name, src) ->
      let run backend = snd (Pipeline.run ~backend exec src) in
      let ex = run Mem_backend.Explicit and pg = run Mem_backend.Paged in
      check_backends_agree name ex pg;
      check Alcotest.bool (name ^ ": explicit run has no page stats") true
        (ex.Interp.page_stats = None);
      check Alcotest.bool (name ^ ": paged run reports page stats") true
        (pg.Interp.page_stats <> None))
    Test_fastpath.small_programs

(* Both engines stay correct under paging. Page *traffic* is engine-
   relative by design — the closure engine's scalar promotion elides
   loads and stores the tree-walker performs, so the two
   legitimately fault different page counts; what must agree is the
   program's observable behavior, and each engine's own accounting must
   stay internally consistent (page-granular bytes). *)
let paged_engines_agree () =
  List.iter
    (fun (name, src) ->
      let run engine =
        snd
          (Pipeline.run ~engine ~backend:Mem_backend.Paged
             Pipeline.Cgcm_optimized src)
      in
      let c = run Interp.Closures and t = run Interp.Tree_walk in
      check Alcotest.string (name ^ ": engines agree on output")
        c.Interp.output t.Interp.output;
      check Alcotest.int64 (name ^ ": engines agree on exit code")
        c.Interp.exit_code t.Interp.exit_code;
      let pb = Cost_model.default.Cost_model.page_bytes in
      List.iter
        (fun r ->
          let s = Option.get r.Interp.page_stats in
          check Alcotest.bool (name ^ ": page-granular accounting") true
            (s.Paged.bytes_to_dev = s.Paged.faults_to_dev * pb
            && s.Paged.bytes_to_host = s.Paged.faults_to_host * pb))
        [ c; t ])
    [
      ("gemm", Cgcm_progs.Polybench.gemm ~n:12 ());
      ("jacobi-2d", Cgcm_progs.Polybench.jacobi_2d ~n:10 ~steps:4 ());
      ("srad", Cgcm_progs.Rodinia.srad ~n:10 ~steps:4 ());
    ]

(* ------------------------------------------------------------------ *)
(* Page-accounting properties against a reference model. The model is
   the spec from paged.ml's header: one side per page, first touch
   populates free, same-side touches free, cross-side touches migrate
   the whole page. *)

let touch_seq_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (triple bool (int_bound 40_000) (int_range 1 6000)))

let drive ?(dup = false) seq =
  let dev = Device.create Cost_model.default in
  let pg = Paged.create ~dev Cost_model.default in
  let host_cost = ref 0.0 in
  List.iter
    (fun (kernel, addr, len) ->
      host_cost := !host_cost +. Paged.touch pg ~kernel ~addr ~len;
      if dup then host_cost := !host_cost +. Paged.touch pg ~kernel ~addr ~len)
    seq;
  (Paged.stats pg, Paged.fault_cost pg, !host_cost)

(* the reference model: page index -> on-device? *)
let model seq =
  let pb = Cost_model.default.Cost_model.page_bytes in
  let tbl = Hashtbl.create 64 in
  let to_dev = ref 0 and to_host = ref 0 in
  List.iter
    (fun (kernel, addr, len) ->
      for p = addr / pb to (addr + len - 1) / pb do
        match Hashtbl.find_opt tbl p with
        | None -> Hashtbl.replace tbl p kernel
        | Some side when side = kernel -> ()
        | Some _ ->
          Hashtbl.replace tbl p kernel;
          if kernel then incr to_dev else incr to_host
      done)
    seq;
  (Hashtbl.length tbl, !to_dev, !to_host)

let prop_model =
  QCheck2.Test.make ~name:"paged accounting agrees with reference model"
    ~count:300 touch_seq_gen (fun seq ->
      let st, _, _ = drive seq in
      let pages, to_dev, to_host = model seq in
      st.Paged.touched_pages = pages
      && st.Paged.faults_to_dev = to_dev
      && st.Paged.faults_to_host = to_host)

let prop_page_granular =
  QCheck2.Test.make
    ~name:"migrated bytes are exactly faults times the page size" ~count:300
    touch_seq_gen (fun seq ->
      let st, _, _ = drive seq in
      let pb = Cost_model.default.Cost_model.page_bytes in
      st.Paged.bytes_to_dev = st.Paged.faults_to_dev * pb
      && st.Paged.bytes_to_host = st.Paged.faults_to_host * pb)

let prop_no_double_charge =
  QCheck2.Test.make
    ~name:"re-touching from the same side is never charged" ~count:300
    touch_seq_gen (fun seq ->
      let st1, _, c1 = drive seq in
      let st2, _, c2 = drive ~dup:true seq in
      st1.Paged.faults_to_dev = st2.Paged.faults_to_dev
      && st1.Paged.faults_to_host = st2.Paged.faults_to_host
      && st1.Paged.touched_pages = st2.Paged.touched_pages
      && c1 = c2)

let prop_single_side_free =
  QCheck2.Test.make ~name:"a single-side access pattern never faults"
    ~count:300 touch_seq_gen (fun seq ->
      let host_only = List.map (fun (_, a, l) -> (false, a, l)) seq in
      let st, _, c = drive host_only in
      st.Paged.faults_to_dev = 0 && st.Paged.faults_to_host = 0 && c = 0.0)

let prop_host_cost =
  QCheck2.Test.make
    ~name:"host stall cycles equal host-bound faults times fault cost"
    ~count:300 touch_seq_gen (fun seq ->
      let st, fault_cost, c = drive seq in
      c = float_of_int st.Paged.faults_to_host *. fault_cost)

(* ------------------------------------------------------------------ *)
(* Per-site residency caches: [touch_site] must be indistinguishable
   from the uncached [touch] walk on every call. *)

type site_op =
  | Touch of int * bool * int * int  (* site, kernel, addr, len *)
  | Place of int * int  (* place_host addr, len *)
  | Flush

(* Few pages and few sites, so sites re-hit their cached page, sides
   ping-pong and accesses straddle pages; addresses cluster at page
   edges, and 96 is a non-power-of-two page size. *)
let site_ops_gen =
  QCheck2.Gen.(
    let* page_bytes = oneofl [ 96; 64; 4096 ] in
    let* nsites = int_range 1 6 in
    let* pages = int_range 1 6 in
    let addr =
      map2
        (fun page off -> (page * page_bytes) + off)
        (int_bound (pages - 1))
        (oneof
           [ oneofl [ 0; page_bytes - 8; page_bytes - 1 ];
             int_bound (page_bytes - 1) ])
    in
    let op =
      frequency
        [
          ( 12,
            map
              (fun (site, kernel, addr, len) -> Touch (site, kernel, addr, len))
              (quad (int_bound (nsites - 1)) bool addr
                 (oneof [ oneofl [ 0; 1; 8 ]; int_range 1 (2 * page_bytes) ])) );
          ( 1,
            map2
              (fun addr len -> Place (addr, len))
              addr (int_range 1 page_bytes) );
          (1, return Flush);
        ]
    in
    let* ops = list_size (int_range 1 120) op in
    return (page_bytes, nsites, ops))

let site_ops_print (page_bytes, nsites, ops) =
  Printf.sprintf "page_bytes=%d sites=%d [%s]" page_bytes nsites
    (String.concat "; "
       (List.map
          (function
            | Touch (s, k, a, l) ->
              Printf.sprintf "touch s%d %s %d+%d" s
                (if k then "kernel" else "host") a l
            | Place (a, l) -> Printf.sprintf "place %d+%d" a l
            | Flush -> "flush")
          ops))

let paged_with ~page_bytes =
  let cost = { Cost_model.default with Cost_model.page_bytes } in
  Paged.create ~dev:(Device.create cost) cost

let prop_site_cache_transparent =
  QCheck2.Test.make ~name:"per-site caches match the uncached touch walk"
    ~count:500 ~print:site_ops_print site_ops_gen
    (fun (page_bytes, nsites, ops) ->
      let cached = paged_with ~page_bytes and plain = paged_with ~page_bytes in
      let sites = Array.init nsites (fun _ -> Paged.site ()) in
      let same () =
        Paged.stats cached = Paged.stats plain
        && Paged.pending cached = Paged.pending plain
        && Paged.last_host_fault_pages cached
           = Paged.last_host_fault_pages plain
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Touch (site, kernel, addr, len) ->
              Paged.touch_site cached sites.(site) ~kernel ~addr ~len
              = Paged.touch plain ~kernel ~addr ~len
            | Place (addr, len) ->
              Paged.place_host cached ~addr ~len;
              Paged.place_host plain ~addr ~len;
              true
            | Flush ->
              Paged.flush_launch cached;
              Paged.flush_launch plain;
              true
          in
          agree && same ())
        ops
      &&
      (Paged.flush_launch cached;
       Paged.flush_launch plain;
       Paged.check_invariants cached = Ok ()
       && Paged.check_invariants plain = Ok ()))

(* The case the migration generation exists for: site A caches page P
   from the host, site B migrates P to the device, and A's next host
   touch must see the stale entry and pay the migration back. *)
let site_cache_stale_entry () =
  let pg = paged_with ~page_bytes:4096 in
  let a = Paged.site () and b = Paged.site () in
  let touch site ~kernel = Paged.touch_site pg site ~kernel ~addr:8200 ~len:8 in
  check (Alcotest.float 0.0) "first host touch populates free" 0.0
    (touch a ~kernel:false);
  check (Alcotest.float 0.0) "host re-touch at A is free" 0.0
    (touch a ~kernel:false);
  check (Alcotest.float 0.0) "kernel touch at B pools its fault" 0.0
    (touch b ~kernel:true);
  check Alcotest.int "B migrated P to the device" 1
    (Paged.stats pg).Paged.faults_to_dev;
  let before = (Paged.stats pg).Paged.faults_to_host in
  check (Alcotest.float 0.0) "host touch at A pays one migration"
    (Paged.fault_cost pg) (touch a ~kernel:false);
  check Alcotest.int "faults_to_host up by one" (before + 1)
    (Paged.stats pg).Paged.faults_to_host;
  check Alcotest.int "one page migrated back" 1 (Paged.last_host_fault_pages pg);
  check Alcotest.int "every touch counted" 4 (Paged.stats pg).Paged.touches

(* Golden opt+paged accounting for the 24-program suite, recorded before
   the per-site caches existed: caching may speed the touches up, never
   move a touch, a fault or a cycle. Each row: touches, touched_pages,
   faults_to_dev, faults_to_host, bytes_to_dev, bytes_to_host, wall
   cycles, exit code. The runs are paranoid, so each one also passes
   [Paged.check_invariants] at the end. *)
let paged_suite_golden_rows =
  [
    ("adi", 2702976, 14, 14, 5, 57344, 20480, 0x1.0af4678e38e3fp+22, 0L);
    ("atax", 82432, 33, 33, 1, 135168, 4096, 0x1.6b6eb38e38e3ap+20, 0L);
    ("bicg", 82688, 34, 34, 2, 139264, 8192, 0x1.80202e38e38e4p+20, 0L);
    ("correlation", 420048, 21, 21, 11, 86016, 45056, 0x1.b4fa238e38e39p+20, 0L);
    ("covariance", 414864, 21, 21, 11, 86016, 45056, 0x1.b36d8e38e38e4p+20, 0L);
    ("doitgen", 733248, 56, 56, 27, 229376, 110592, 0x1.dd926ffffffffp+21, 0L);
    ("gemm", 2885120, 74, 74, 25, 303104, 102400, 0x1.237fa684bda14p+22, 0L);
    ("gemver", 181888, 35, 35, 1, 143360, 4096, 0x1.8418b55555556p+20, 0L);
    ("gesummv", 98688, 65, 65, 1, 266240, 4096, 0x1.59b622aaaaaabp+21, 0L);
    ("gramschmidt", 292680, 14, 296, 292, 1212416, 1196032, 0x1.8d023c555555cp+24, 0L);
    ("jacobi-2d-imper", 1897152, 21, 21, 11, 86016, 45056, 0x1.1968e2aaaaaaap+21, 0L);
    ("seidel", 392592, 8, 8, 8, 32768, 32768, 0x1.16da965ed097bp+22, 0L);
    ("lu", 355744, 8, 8, 8, 32768, 32768, 0x1.80ef27b425ed9p+20, 0L);
    ("ludcmp", 360288, 9, 9, 9, 36864, 36864, 0x1.9d093a12f6853p+20, 0L);
    ("2mm", 3612672, 91, 91, 19, 372736, 77824, 0x1.422d455555556p+22, 0L);
    ("3mm", 3142400, 88, 88, 13, 360448, 53248, 0x1.243f592f684bdp+22, 0L);
    ("cfd", 13862269, 62, 1, 10, 4096, 40960, 0x1.a2ddd8e38e383p+21, 0L);
    ("hotspot", 4184291, 25, 1, 9, 4096, 36864, 0x1.7c4a67b425ed3p+20, 0L);
    ("kmeans", 828608, 10, 80, 80, 327680, 327680, 0x1.5875d09c71c72p+23, 0L);
    ("lud", 719297, 9, 1, 9, 4096, 36864, 0x1.a40b171c71c72p+20, 0L);
    ("nw", 97541, 65, 65, 32, 266240, 131072, 0x1.5bf53fd54bc6fp+22, 0L);
    ("srad", 9115015, 28, 2, 6, 8192, 24576, 0x1.e2fdcda12f679p+20, 0L);
    ("fm", 171867, 129, 58, 16, 237568, 65536, 0x1.a6b6aaaaaaaabp+21, 0L);
    ("blackscholes", 420000, 411, 411, 60, 1683456, 245760, 0x1.5938a15ed097bp+24, 0L);
  ]

(* The suite's paranoid opt+paged runs, shared by the golden test and the
   explicit-vs-paged A/B below. *)
let paged_suite_runs =
  lazy
    (List.map
       (fun (p : Cgcm_progs.Registry.program) ->
         snd
           (Pipeline.run ~paranoid:true ~backend:Mem_backend.Paged
              Pipeline.Cgcm_optimized p.source))
       Cgcm_progs.Registry.all)

let paged_suite_golden () =
  check Alcotest.(list string) "golden rows cover the suite in order"
    (List.map (fun (p : Cgcm_progs.Registry.program) -> p.name)
       Cgcm_progs.Registry.all)
    (List.map (fun (n, _, _, _, _, _, _, _, _) -> n) paged_suite_golden_rows);
  List.iter2
    (fun (name, touches, pages, to_dev, to_host, b_dev, b_host, wall, code) r ->
      let s = Option.get r.Interp.page_stats in
      let got =
        [
          s.Paged.touches;
          s.Paged.touched_pages;
          s.Paged.faults_to_dev;
          s.Paged.faults_to_host;
          s.Paged.bytes_to_dev;
          s.Paged.bytes_to_host;
        ]
      in
      check Alcotest.(list int) (name ^ ": page stats")
        [ touches; pages; to_dev; to_host; b_dev; b_host ] got;
      check Alcotest.string (name ^ ": wall cycles") (Printf.sprintf "%h" wall)
        (Printf.sprintf "%h" r.Interp.wall);
      check Alcotest.int64 (name ^ ": exit code") code r.Interp.exit_code)
    paged_suite_golden_rows (Lazy.force paged_suite_runs)

(* Golden explicit accounting for the 24-program suite, unopt and opt,
   recorded before the interpreter lost its memory-backend closure
   record: how the interpreter reaches the run-time may change, never a
   transfer, a map call or a cycle. Each row: program, execution, wall
   cycles, comm cycles, htod bytes, dtoh bytes, htod count, dtoh count,
   run-time map calls, exit code. *)
let explicit_suite_golden_rows =
  [
    ("adi", Pipeline.Cgcm_unoptimized, 0x1.0cb45bf8e38dbp+26, 0x1.fcb4fp+25, 10377216, 10377216, 563, 563, 563, 0L);
    ("adi", Pipeline.Cgcm_optimized, 0x1.0280838e38e3fp+22, 0x1.3e0dp+19, 110592, 92144, 6, 5, 1129, 0L);
    ("atax", Pipeline.Cgcm_unoptimized, 0x1.358a838e38e39p+20, 0x1.249p+20, 398336, 398336, 8, 8, 8, 0L);
    ("atax", Pipeline.Cgcm_optimized, 0x1.77ba671c71c72p+19, 0x1.55e4p+19, 266240, 134144, 6, 4, 14, 0L);
    ("bicg", Pipeline.Cgcm_unoptimized, 0x1.4ef1de38e38e4p+20, 0x1.3d3ap+20, 399360, 399360, 9, 9, 9, 0L);
    ("bicg", Pipeline.Cgcm_optimized, 0x1.c3515c71c71c7p+19, 0x1.9fe2p+19, 268288, 135168, 8, 5, 17, 0L);
    ("correlation", Pipeline.Cgcm_unoptimized, 0x1.b946338e38e38p+20, 0x1.4a02p+20, 251712, 251712, 11, 11, 11, 0L);
    ("correlation", Pipeline.Cgcm_optimized, 0x1.31f6b38e38e39p+20, 0x1.851ap+19, 168192, 125568, 8, 5, 22, 0L);
    ("covariance", Pipeline.Cgcm_unoptimized, 0x1.4ab52e38e38e4p+20, 0x1.bb9cp+19, 208512, 208512, 7, 7, 7, 0L);
    ("covariance", Pipeline.Cgcm_optimized, 0x1.0ac4be38e38e4p+20, 0x1.3b7p+19, 167040, 124992, 6, 4, 14, 0L);
    ("doitgen", Pipeline.Cgcm_unoptimized, 0x1.9d38900000001p+20, 0x1.3426p+20, 562176, 562176, 7, 7, 7, 0L);
    ("doitgen", Pipeline.Cgcm_optimized, 0x1.299f5p+20, 0x1.811ap+19, 340992, 336384, 5, 4, 12, 0L);
    ("gemm", Pipeline.Cgcm_unoptimized, 0x1.bd11ea12f684cp+20, 0x1.257cp+20, 602112, 602112, 6, 6, 6, 0L);
    ("gemm", Pipeline.Cgcm_optimized, 0x1.8c36ca12f684cp+20, 0x1.e924p+19, 602112, 401408, 6, 4, 12, 0L);
    ("gemver", Pipeline.Cgcm_unoptimized, 0x1.4ecf92aaaaaabp+21, 0x1.4279p+21, 541696, 541696, 21, 21, 21, 0L);
    ("gemver", Pipeline.Cgcm_optimized, 0x1.f32d755555557p+20, 0x1.dap+20, 410624, 272384, 20, 12, 42, 0L);
    ("gesummv", Pipeline.Cgcm_unoptimized, 0x1.3c0f255555555p+20, 0x1.2ba6p+20, 527360, 527360, 7, 7, 7, 0L);
    ("gesummv", Pipeline.Cgcm_optimized, 0x1.eeaf2aaaaaaaap+19, 0x1.cdcep+19, 527360, 264192, 7, 4, 14, 0L);
    ("gramschmidt", Pipeline.Cgcm_unoptimized, 0x1.ca5d4b555555fp+24, 0x1.b5534p+24, 4478976, 4442112, 243, 241, 243, 0L);
    ("gramschmidt", Pipeline.Cgcm_optimized, 0x1.754534aaaaaafp+23, 0x1.4b8478p+23, 986296, 940032, 100, 98, 487, 0L);
    ("jacobi-2d-imper", Pipeline.Cgcm_unoptimized, 0x1.b266515555562p+24, 0x1.a2c94p+24, 8045568, 8045568, 194, 194, 194, 0L);
    ("jacobi-2d-imper", Pipeline.Cgcm_optimized, 0x1.75a5a5555555fp+20, 0x1.13bep+19, 165888, 163552, 4, 4, 390, 0L);
    ("seidel", Pipeline.Cgcm_unoptimized, 0x1.ec138cbda12f6p+21, 0x1.035p+17, 32768, 32768, 1, 1, 1, 0L);
    ("seidel", Pipeline.Cgcm_optimized, 0x1.ec174cbda12f6p+21, 0x1.035p+17, 32768, 32768, 1, 1, 2, 0L);
    ("lu", Pipeline.Cgcm_unoptimized, 0x1.0f9edf7b425efp+24, 0x1.01496p+24, 4161536, 4161536, 127, 127, 127, 0L);
    ("lu", Pipeline.Cgcm_optimized, 0x1.1e2787b425edap+20, 0x1.031p+18, 65536, 65024, 2, 2, 255, 0L);
    ("ludcmp", Pipeline.Cgcm_unoptimized, 0x1.14cd0ea12f687p+24, 0x1.05e34p+24, 4163072, 4163072, 130, 130, 130, 0L);
    ("ludcmp", Pipeline.Cgcm_optimized, 0x1.71211a12f6851p+20, 0x1.14c4p+19, 67072, 66560, 5, 5, 261, 0L);
    ("2mm", Pipeline.Cgcm_unoptimized, 0x1.3aa582aaaaaaap+21, 0x1.d28ep+20, 811008, 811008, 11, 11, 11, 0L);
    ("2mm", Pipeline.Cgcm_optimized, 0x1.1046aaaaaaaaap+21, 0x1.7dbap+20, 811008, 516096, 11, 7, 22, 0L);
    ("3mm", Pipeline.Cgcm_unoptimized, 0x1.6bba825ed097bp+21, 0x1.275p+21, 819200, 819200, 16, 16, 16, 0L);
    ("3mm", Pipeline.Cgcm_optimized, 0x1.346a725ed097bp+21, 0x1.dfe2p+20, 819200, 512000, 16, 10, 32, 0L);
    ("cfd", Pipeline.Cgcm_unoptimized, 0x1.64670191c71cfp+28, 0x1.580801p+28, 40951456, 40934400, 4264, 2132, 2132, 0L);
    ("cfd", Pipeline.Cgcm_optimized, 0x1.72a751c71c71dp+22, 0x1.5f1fap+21, 326536, 326272, 34, 17, 4641, 0L);
    ("hotspot", Pipeline.Cgcm_unoptimized, 0x1.b9f0b2bda12ffp+25, 0x1.a683e6p+25, 9931128, 9928704, 606, 303, 303, 0L);
    ("hotspot", Pipeline.Cgcm_optimized, 0x1.0cda73da12f6ap+21, 0x1.f68bp+19, 196656, 161760, 12, 5, 609, 0L);
    ("kmeans", Pipeline.Cgcm_unoptimized, 0x1.d245b938e38e3p+22, 0x1.7627p+21, 365056, 365056, 27, 27, 27, 0L);
    ("kmeans", Pipeline.Cgcm_optimized, 0x1.74cd1938e38e4p+22, 0x1.76a1p+20, 102912, 66048, 19, 10, 52, 0L);
    ("lud", Pipeline.Cgcm_unoptimized, 0x1.1966bc38e38fp+25, 0x1.08f18cp+25, 6227440, 6225920, 380, 190, 190, 0L);
    ("lud", Pipeline.Cgcm_optimized, 0x1.997e471c71c6fp+20, 0x1.64f9p+18, 65552, 65528, 4, 2, 381, 0L);
    ("nw", Pipeline.Cgcm_unoptimized, 0x1.c7795ffd54bcap+26, 0x1.c0ab08p+26, 66715648, 66715648, 509, 509, 509, 0L);
    ("nw", Pipeline.Cgcm_optimized, 0x1.35a1dfaa978ddp+21, 0x1.bb7a8p+19, 524296, 392192, 5, 4, 1020, 0L);
    ("srad", Pipeline.Cgcm_unoptimized, 0x1.0e94a9db425efp+27, 0x1.0530758p+27, 14291512, 14285312, 1614, 839, 839, 0L);
    ("srad", Pipeline.Cgcm_optimized, 0x1.e93126d097b2bp+21, 0x1.1736ep+21, 239728, 234920, 27, 14, 917, 0L);
    ("fm", Pipeline.Cgcm_unoptimized, 0x1.d52de55555555p+20, 0x1.7bcap+20, 655616, 655616, 9, 9, 9, 0L);
    ("fm", Pipeline.Cgcm_optimized, 0x1.6c88155555555p+20, 0x1.12ef8p+20, 655616, 196656, 9, 5, 18, 0L);
    ("blackscholes", Pipeline.Cgcm_unoptimized, 0x1.3e5f997b425edp+22, 0x1.2287p+21, 1680000, 1680000, 7, 7, 7, 0L);
    ("blackscholes", Pipeline.Cgcm_optimized, 0x1.0023c17b425edp+22, 0x1.4c08p+20, 1680000, 240000, 7, 1, 14, 0L);
  ]

(* The suite's explicit runs per execution; the opt runs are shared by
   the golden test and the explicit-vs-paged A/B below. *)
let explicit_suite_runs exec =
  lazy
    (List.map
       (fun (p : Cgcm_progs.Registry.program) ->
         snd (Pipeline.run exec p.source))
       Cgcm_progs.Registry.all)

let explicit_unopt_runs = explicit_suite_runs Pipeline.Cgcm_unoptimized
let explicit_opt_runs = explicit_suite_runs Pipeline.Cgcm_optimized

let explicit_suite_golden () =
  let runs =
    List.concat
      (List.map2
         (fun u o -> [ u; o ])
         (Lazy.force explicit_unopt_runs)
         (Lazy.force explicit_opt_runs))
  in
  check Alcotest.(list string) "golden rows cover the suite in order"
    (List.concat_map
       (fun (p : Cgcm_progs.Registry.program) -> [ p.name; p.name ])
       Cgcm_progs.Registry.all)
    (List.map (fun (n, _, _, _, _, _, _, _, _, _) -> n)
       explicit_suite_golden_rows);
  List.iter2
    (fun (name, exec, wall, comm, b_htod, b_dtoh, n_htod, n_dtoh, maps, code)
         r ->
      let name = name ^ " " ^ Pipeline.execution_to_string exec in
      let d = r.Interp.dev_stats in
      check Alcotest.(list int) (name ^ ": transfers and map calls")
        [ b_htod; b_dtoh; n_htod; n_dtoh; maps ]
        [
          d.Device.htod_bytes;
          d.Device.dtoh_bytes;
          d.Device.htod_count;
          d.Device.dtoh_count;
          r.Interp.rt_stats.Runtime.map_calls;
        ];
      check Alcotest.string (name ^ ": wall cycles") (Printf.sprintf "%h" wall)
        (Printf.sprintf "%h" r.Interp.wall);
      check Alcotest.string (name ^ ": comm cycles") (Printf.sprintf "%h" comm)
        (Printf.sprintf "%h" r.Interp.comm);
      check Alcotest.int64 (name ^ ": exit code") code r.Interp.exit_code)
    explicit_suite_golden_rows runs

(* The explicit-vs-paged A/B over the full-size suite: the backends may
   move cost, never values, and explicit-copy CGCM must beat paged
   migration by >= 2x in simulated cycles on at least one program — the
   paper's claim that managed explicit transfers out-run on-demand
   paging, in executable form. *)
let explicit_vs_paged_suite () =
  let wins =
    List.map2
      (fun (p : Cgcm_progs.Registry.program) (ex, pg) ->
        check_backends_agree p.name ex pg;
        pg.Interp.wall /. ex.Interp.wall >= 2.0)
      Cgcm_progs.Registry.all
      (List.combine
         (Lazy.force explicit_opt_runs)
         (Lazy.force paged_suite_runs))
  in
  check Alcotest.bool "explicit-copy CGCM wins >= 2x on some program" true
    (List.mem true wins)

(* ------------------------------------------------------------------ *)
(* Byte-size suffix parsing (--device-mem / --page-bytes)              *)

let bytesize_parses () =
  let ok s v =
    match Bytesize.parse s with
    | Ok n -> check Alcotest.int s v n
    | Error e -> Alcotest.failf "%s failed to parse: %s" s e
  in
  ok "4096" 4096;
  ok "0" 0;
  ok "64KiB" 65536;
  ok "1MiB" (1024 * 1024);
  ok "2GiB" (2 * 1024 * 1024 * 1024);
  List.iter
    (fun s ->
      check Alcotest.bool (s ^ " rejected") true
        (match Bytesize.parse s with Error _ -> true | Ok _ -> false))
    [ ""; "-1"; "64kb"; "12XB"; "KiB"; "1.5MiB"; "99999999999999999GiB" ]

(* Golden: the CLI surfaces Bytesize's message verbatim through the
   cmdliner converter, so pin the exact text here. *)
let bytesize_error_golden () =
  check Alcotest.string "parse error message"
    "invalid byte count \"12XB\" (expected an integer with an optional KiB, \
     MiB or GiB suffix, e.g. 65536, 64KiB, 1MiB)"
    (Bytesize.error_message "12XB");
  (match Bytesize.parse "12XB" with
  | Error e ->
    check Alcotest.string "parse returns the golden message"
      (Bytesize.error_message "12XB") e
  | Ok _ -> Alcotest.fail "12XB parsed");
  check Alcotest.string "to_string picks the largest exact unit" "64KiB"
    (Bytesize.to_string 65536);
  check Alcotest.string "to_string keeps inexact sizes raw" "65537"
    (Bytesize.to_string 65537)

(* ------------------------------------------------------------------ *)
(* serve: the "+paged" mode suffix selects the backend                 *)

let serve_source = Cgcm_progs.Polybench.gemm ~n:10 ()

let request ~id ~mode =
  {
    Wire.rq_id = id;
    rq_tenant = "t0";
    rq_source = serve_source;
    rq_mode = mode;
    rq_deadline = None;
    rq_strict = false;
    rq_faults = None;
  }

let serve_paged_suffix () =
  let eng = Engine.create () in
  let r1 = Engine.process eng (request ~id:1 ~mode:"opt+paged") in
  check Alcotest.string "opt+paged status" "ok" (Wire.status_name r1.Wire.rp_status);
  let _, reference =
    Pipeline.run ~backend:Mem_backend.Paged Pipeline.Cgcm_optimized
      serve_source
  in
  check Alcotest.string "opt+paged output bit-identical to single-shot"
    reference.Interp.output r1.Wire.rp_output;
  (* same compiled module as plain "opt": the backend shapes execution,
     not compilation, so the second request is a cache hit *)
  let r2 = Engine.process eng (request ~id:2 ~mode:"opt") in
  check Alcotest.string "plain opt rides the same cache entry" "hit"
    r2.Wire.rp_cache;
  check Alcotest.string "cache keys agree across backend suffixes"
    (Engine.cache_key_of_mode ~mode:"opt" serve_source)
    (Engine.cache_key_of_mode ~mode:"opt+paged" serve_source);
  (* an explicit suffix is accepted and means the default *)
  let r3 = Engine.process eng (request ~id:3 ~mode:"opt+explicit") in
  check Alcotest.string "opt+explicit output" r2.Wire.rp_output
    r3.Wire.rp_output;
  (* a bogus suffix is a typed error, not a crash *)
  let r4 = Engine.process eng (request ~id:4 ~mode:"opt+bogus") in
  check Alcotest.string "bogus suffix rejected" "error"
    (Wire.status_name r4.Wire.rp_status);
  (* paged requests never warm residency: there are no warm units to
     establish under a single address space *)
  let eng2 = Engine.create () in
  let _ = Engine.process eng2 (request ~id:5 ~mode:"unopt+paged") in
  check Alcotest.int "no residency warmed by a paged request" 0
    (Cgcm_serve.Residency.warm_bytes (Engine.residency eng2))

(* EXPERIMENTS.md quotes the suite harness: its Figure 4 geomeans and
   its Table 3 highlights are recomputed here from the same runs the
   explicit golden makes (plus the sequential and inspector-executor
   ones), so the write-up cannot drift from what `cgcm suite` prints.
   Whitespace is normalised, so the prose may be re-wrapped freely. *)
let experiments_doc_matches_harness () =
  let module Experiments = Cgcm_core.Experiments in
  let module Registry = Cgcm_progs.Registry in
  let module Stats = Cgcm_support.Stats in
  let results =
    List.map2
      (fun (prog : Registry.program) (unopt, opt) ->
        let run exec = snd (Pipeline.run exec prog.source) in
        let seq = run Pipeline.Sequential in
        let ie = run Pipeline.Inspector_executor_exec in
        let kernels =
          (Pipeline.compile_for Pipeline.Cgcm_optimized prog.source)
            .Pipeline.doall.Cgcm_frontend.Doall.kernels
        in
        {
          Experiments.prog;
          seq;
          ie;
          unopt;
          opt;
          kernels = List.length kernels;
          baseline_applicable =
            List.length
              (List.filter (fun k -> k.Cgcm_frontend.Doall.k_named_applicable)
                 kernels);
          outputs_match = true;
        })
      Registry.all
      (List.combine
         (Lazy.force explicit_unopt_runs)
         (Lazy.force explicit_opt_runs))
  in
  let doc =
    (* dune runtest stages the file beside the test directory; from the
       repository root it is right here *)
    List.find Sys.file_exists [ "../EXPERIMENTS.md"; "EXPERIMENTS.md" ]
    |> fun path -> In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w -> w <> "")
    |> String.concat " "
  in
  let contains text =
    let n = String.length text in
    let rec at i =
      i + n <= String.length doc && (String.sub doc i n = text || at (i + 1))
    in
    at 0
  in
  let quoted what text =
    check Alcotest.bool
      (Printf.sprintf "EXPERIMENTS.md quotes %s: %S" what text)
      true (contains text)
  in
  let (g_ie, g_un, g_op), (c_ie, c_un, c_op) = Experiments.geomeans results in
  List.iter
    (fun (label, paper, measured) ->
      quoted "a Figure 4 geomean"
        (Printf.sprintf "| %s | %s | %.2fx |" label paper measured))
    [
      ("inspector-executor", "0.92x", g_ie);
      ("unoptimized CGCM", "0.71x", g_un);
      ("optimized CGCM", "5.36x", g_op);
      ("IE (clamped ≥ 1x)", "1.53x", c_ie);
      ("unopt (clamped ≥ 1x)", "2.81x", c_un);
      ("opt (clamped ≥ 1x)", "7.18x", c_op);
    ];
  let find name =
    List.find (fun r -> r.Experiments.prog.Registry.name = name) results
  in
  let gpu (r : Interp.result) =
    Printf.sprintf "%.1f" (Stats.percent r.Interp.gpu r.Interp.wall)
  in
  quoted "the Table 3 GPU% highlights"
    ("GPU% unoptimized→optimized: "
    ^ String.concat "; "
        (List.map
           (fun name ->
             let r = find name in
             Printf.sprintf "%s %s→%s%%" name (gpu r.Experiments.unopt)
               (gpu r.Experiments.opt))
           [ "adi"; "jacobi-2d-imper"; "lu"; "cfd"; "srad"; "nw" ])
    ^ ".");
  let limit r = Registry.limiting_to_string (Experiments.limiting r) in
  let agree, mismatches =
    List.partition
      (fun r ->
        Experiments.limiting r.Experiments.opt
        = r.Experiments.prog.Registry.paper_limiting)
      results
  in
  (* mismatches grouped by (ours, paper), in order of first appearance *)
  let groups =
    List.fold_left
      (fun acc r ->
        let key =
          ( limit r.Experiments.opt,
            Registry.limiting_to_string r.Experiments.prog.Registry.paper_limiting
          )
        in
        let name = r.Experiments.prog.Registry.name in
        if List.mem_assoc key acc then
          List.map
            (fun (k, names) -> if k = key then (k, names @ [ name ]) else (k, names))
            acc
        else acc @ [ (key, [ name ]) ])
      [] mismatches
  in
  let and_list = function
    | [] -> ""
    | [ x ] -> x
    | xs ->
      let rev = List.rev xs in
      String.concat ", " (List.rev (List.tl rev)) ^ " and " ^ List.hd rev
  in
  quoted "the limiting-factor agreement"
    (Printf.sprintf
       "Limiting factors agree with the paper for %d of %d programs. The \
        mismatches, as ours vs the paper's: %s."
       (List.length agree) (List.length results)
       (String.concat "; "
          (List.map
             (fun ((ours, paper), names) ->
               Printf.sprintf "%s vs %s for %s" ours paper (and_list names))
             groups)));
  let total_kernels =
    List.fold_left (fun a r -> a + r.Experiments.kernels) 0 results
  in
  let exact =
    List.length
      (List.filter
         (fun r -> r.Experiments.kernels = r.Experiments.prog.Registry.paper_kernels)
         results)
  in
  quoted "the kernel counts"
    (Printf.sprintf
       "Kernel counts: %d vs the paper's %d (exact per-program counts match \
        for %d of %d;"
       total_kernels
       (List.fold_left (fun a r -> a + r.Experiments.prog.Registry.paper_kernels) 0 results)
       exact (List.length results))

let tests =
  [
    Alcotest.test_case "backend differential (unopt, suite)" `Slow
      (backend_differential Pipeline.Cgcm_unoptimized);
    Alcotest.test_case "backend differential (opt, suite)" `Slow
      (backend_differential Pipeline.Cgcm_optimized);
    Alcotest.test_case "paged: engines agree" `Slow paged_engines_agree;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_page_granular;
    QCheck_alcotest.to_alcotest prop_no_double_charge;
    QCheck_alcotest.to_alcotest prop_single_side_free;
    QCheck_alcotest.to_alcotest prop_host_cost;
    QCheck_alcotest.to_alcotest prop_site_cache_transparent;
    Alcotest.test_case "site cache: stale entry after a migration" `Quick
      site_cache_stale_entry;
    Alcotest.test_case "paged suite golden (opt+paged)" `Slow
      paged_suite_golden;
    Alcotest.test_case "explicit suite golden (unopt and opt)" `Slow
      explicit_suite_golden;
    Alcotest.test_case "bytesize: suffixes parse" `Quick bytesize_parses;
    Alcotest.test_case "bytesize: golden error message" `Quick
      bytesize_error_golden;
    Alcotest.test_case "serve: +paged mode suffix" `Slow serve_paged_suffix;
    Alcotest.test_case "explicit vs paged A/B (opt, full suite)" `Slow
      explicit_vs_paged_suite;
    Alcotest.test_case "EXPERIMENTS.md matches the suite harness" `Slow
      experiments_doc_matches_harness;
  ]
