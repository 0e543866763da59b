(** Analytic performance model of VPIC on Roadrunner, in the style of the
    Kerbyson/Barker PAL models the paper's co-authors used (we cannot run
    on the machine; we model it — see DESIGN.md substitutions).

    Structure: the particle inner loop is bounded by SPE compute and by
    DMA bandwidth (double-buffered, so the max of the two); around it sit
    mechanistically-modelled costs (field solve, voxel sort, accumulator
    reduction, ghost/migration communication over the PCIe-relayed
    InfiniBand fabric, collectives) plus one calibrated residual
    [overhead_fraction] covering diagnostics/orchestration, fitted once so
    that the full-machine run reproduces the paper's sustained/inner-loop
    ratio (0.374 / 0.488 Pflop/s).  Every other number is derived, not
    fitted; the weak-scaling and kernel benches probe the derived parts. *)

type workload = {
  particles : float;      (** total macro-particles *)
  voxels : float;         (** total grid voxels *)
  steps_per_sort : int;
  ppc_effective : float;  (** particles per occupied voxel *)
}

(** The paper's flagship run: 1.0e12 particles on 1.36e8 voxels. *)
val paper_workload : workload

type calibration = {
  flops_pp : float;           (** flops per particle-step (our kernels) *)
  avg_segments : float;       (** mean deposition segments per particle *)
  bytes_pp : float;           (** DMA bytes per particle-step *)
  spu_efficiency : float;     (** SIMD issue efficiency of the SPU code *)
  inner_loop_efficiency : float;
      (** measured fraction of SPE s.p. peak the paper's inner loop
          sustains (0.488/2.507 = 0.195); used for the calibrated rate *)
  field_flops_per_voxel : float;
  overhead_fraction : float;  (** calibrated residual, see above *)
}

val default_calibration : calibration

(** Which push kernel a predicted-vs-measured comparison assumes.
    [`Spe] is the paper's published SPE kernel ({!default_calibration}:
    full staggered gather); [`Block w] is the host kernel, whose Perf
    ledger charges the interpolator expansion's cheaper gather —
    {!calibration_for} swaps the per-particle flop estimate accordingly
    so Report ratios stay meaningful for block-kernel steps. *)
type push_kernel = [ `Block of int | `Spe ]

val calibration_for : push_kernel -> calibration

(** [(pass, flops)] rows of the block kernel's fused passes (gather,
    rotate, advance per lane; deposit per segment) — the flop-ledger
    split [Vpic_particle.Push] defines. *)
val block_pass_flops : unit -> (string * float) list

type breakdown = {
  t_push : float;        (** seconds per step, particle inner loop *)
  t_field : float;
  t_sort : float;        (** amortised *)
  t_accumulate : float;  (** accumulator reduction/clear *)
  t_comm : float;        (** ghost exchange + migration + collectives *)
  t_overhead : float;
  t_step : float;
  inner_flops : float;     (** flop/s while in the inner loop *)
  sustained_flops : float; (** flop/s over the whole step *)
  particle_rate : float;   (** particle-steps per wall-clock second *)
  efficiency_vs_peak : float;
}

(** Model one step of [workload] on [machine]. *)
val model : Roadrunner.t -> workload -> calibration -> breakdown

(** Full machine, paper workload, default calibration: reproduces E1. *)
val headline : unit -> breakdown

(** Weak scaling (E2): fixed per-node workload taken from the paper run,
    machine grown one CU at a time.  Returns (cus, nodes, breakdown). *)
val weak_scaling :
  ?calibration:calibration -> int list -> (int * int * breakdown) list

(** Strong scaling of a fixed workload over machine sizes. *)
val strong_scaling :
  ?calibration:calibration -> workload -> int list -> (int * int * breakdown) list

(** Design-choice ablations for the paper's arguments, each a (label,
    breakdown) on the full machine & paper workload:
    - "baseline (paper config)"
    - "double precision": half the SPE flop rate and double the DMA bytes
      (the paper's case for single precision);
    - "no voxel sort": interpolator/accumulator traffic no longer
      amortised across a voxel's particles and sort time removed;
    - "no DMA double-buffering": compute and DMA serialise. *)
val ablations : unit -> (string * breakdown) list
