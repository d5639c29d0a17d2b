(* Analytic timing model of the CPU-GPU system, standing in for the
   paper's Core 2 Quad + GeForce GTX 480 testbed. All times are in CPU
   cycles. The absolute values are not meant to match the paper's
   hardware; what matters for reproducing the paper's shapes is the
   *structure*: per-transfer latency dominates small cyclic transfers,
   bandwidth dominates bulk ones, kernels are asynchronous until a
   device-to-host copy forces a sync, and the GPU wins only through
   parallelism (a single GPU thread is slower than the CPU). *)

type t = {
  cpu_cycle : float;  (* cycles per interpreted CPU instruction *)
  gpu_cycle : float;  (* cycles per interpreted GPU instruction, per thread *)
  gpu_cores : int;  (* GTX 480: 15 SMs x 32 lanes = 480 *)
  gpu_efficiency : float;  (* fraction of peak parallelism achieved *)
  launch_overhead_cpu : float;  (* host-side driver cost per launch *)
  launch_overhead_gpu : float;  (* device-side cost per launch *)
  transfer_latency : float;  (* fixed cost per DMA transfer *)
  transfer_bytes_per_cycle : float;  (* PCIe bandwidth *)
  alloc_overhead : float;  (* cuMemAlloc / cuMemFree *)
  runtime_call_overhead : float;  (* one CGCM run-time library call *)
  device_mem_bytes : int;  (* device global-memory capacity *)
  par_min_trip : int;
      (* sharded host launches (jobs > 1): launches with fewer iterations than
         this run sequentially rather than paying domain-pool overhead *)
  page_bytes : int;  (* paged backend: migration granularity *)
  page_fault_cycles : float;
      (* paged backend: fixed cost per page fault — fault delivery, the
         driver's handler, and the page-table update; the migrated
         page's bytes are charged at transfer_bytes_per_cycle on top *)
}

let default =
  {
    cpu_cycle = 1.0;
    gpu_cycle = 4.0;
    gpu_cores = 480;
    gpu_efficiency = 0.9;
    launch_overhead_cpu = 2_000.0;
    launch_overhead_gpu = 6_000.0;
    transfer_latency = 50_000.0;
    transfer_bytes_per_cycle = 2.0;
    alloc_overhead = 2_000.0;
    runtime_call_overhead = 120.0;
    (* Effectively unbounded by default; experiments that study memory
       pressure cap it (the GTX 480 shipped with 1.5 GB). *)
    device_mem_bytes = max_int;
    (* Waking the pool costs a few microseconds; below this many
       iterations a launch is cheaper to run in place. *)
    par_min_trip = 16;
    page_bytes = 4096;
    (* A demand fault is priced close to one DMA latency: real GPU
       page-fault handling (fault delivery + driver round trip) sits in
       the tens of microseconds, the same order as a small cuMemcpy.
       Bulk data therefore pays one fault *per page* where an explicit
       transfer pays one latency per region — which is exactly the shape
       the explicit-vs-paged A/B is meant to expose. *)
    page_fault_cycles = 40_000.0;
  }

let transfer_cycles t bytes =
  t.transfer_latency +. (float_of_int bytes /. t.transfer_bytes_per_cycle)

(* Duration of a kernel that executes [insts] dynamic instructions in
   total across [trip] threads. *)
let kernel_cycles t ~insts ~trip =
  let parallelism =
    float_of_int (min t.gpu_cores (max 1 trip)) *. t.gpu_efficiency
  in
  t.launch_overhead_gpu
  +. (float_of_int insts *. t.gpu_cycle /. max 1.0 parallelism)
