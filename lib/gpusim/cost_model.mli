(** Analytic timing model of the CPU-GPU system, standing in for the
    paper's Core 2 Quad + GeForce GTX 480 testbed. All times are in CPU
    cycles.

    Absolute values are not meant to match the paper's hardware; what
    matters for reproducing its shapes is the structure: per-transfer
    latency dominates small cyclic transfers, bandwidth dominates bulk
    ones, kernels are asynchronous until a device-to-host copy forces a
    sync, and the GPU wins only through parallelism (a single GPU thread
    is slower than the CPU). *)

type t = {
  cpu_cycle : float;  (** cycles per interpreted CPU instruction *)
  gpu_cycle : float;  (** cycles per interpreted GPU instruction, per thread *)
  gpu_cores : int;  (** GTX 480: 15 SMs x 32 lanes = 480 *)
  gpu_efficiency : float;  (** fraction of peak parallelism achieved *)
  launch_overhead_cpu : float;  (** host-side driver cost per launch *)
  launch_overhead_gpu : float;  (** device-side cost per launch *)
  transfer_latency : float;  (** fixed cost per DMA transfer *)
  transfer_bytes_per_cycle : float;  (** PCIe bandwidth *)
  alloc_overhead : float;  (** cuMemAlloc / cuMemFree *)
  runtime_call_overhead : float;  (** one CGCM run-time library call *)
  device_mem_bytes : int;
      (** device global-memory capacity; [max_int] (the default) is
          effectively unbounded *)
  par_min_trip : int;
      (** sharded host launches (jobs > 1): launches with fewer iterations than
          this run sequentially rather than paying domain-pool
          overhead *)
  page_bytes : int;
      (** paged backend: migration granularity (default 4 KiB) *)
  page_fault_cycles : float;
      (** paged backend: fixed cost per page fault (fault delivery + the
          driver's handler); the page's bytes are charged at
          [transfer_bytes_per_cycle] on top *)
}

val default : t

val transfer_cycles : t -> int -> float
(** [transfer_cycles t bytes] = latency + bytes / bandwidth. *)

val kernel_cycles : t -> insts:int -> trip:int -> float
(** Duration of a kernel executing [insts] dynamic instructions in total
    across [trip] threads: launch overhead plus work divided by the
    effective parallelism [min cores trip * efficiency]. *)
