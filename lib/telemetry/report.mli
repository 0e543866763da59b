(** End-of-run comparison of the measured scoreboard against the
    analytic {!Vpic_cell.Perf_model} breakdown — the paper's
    measured-vs-modelled methodology, applied to our own runs.

    Measured per-phase seconds-per-step-per-rank come from
    {!Scoreboard.totals}; modelled ones from [Perf_model.model] on the
    same workload.  Every modelled phase time is strictly positive, so
    the measured/modelled ratio of every row is finite. *)

type row = {
  label : string;
  measured : float;   (** s per step per rank (times) or rate (flop/s) *)
  modelled : float;
  ratio : float;      (** measured /. modelled *)
}

type t = {
  machine : string;
  rows : row list;          (** per-phase s/step/rank *)
  rates : row list;         (** sustained/inner flop rates, particle rate *)
}

(** [make ~totals ~workload ()] models [workload] on [machine]
    (default the full Roadrunner of the paper) and lines it up against
    the measured totals.  The per-particle flop estimate defaults to
    [Perf_model.calibration_for kernel] ([kernel] defaults to [`Spe],
    the paper calibration); pass the kernel the run actually used —
    e.g. [`Block 8] for a [vpic_run] step — so predicted-vs-
    measured ratios compare like with like.  An explicit [calibration]
    overrides the kernel-derived one. *)
val make :
  ?machine:Vpic_cell.Roadrunner.t ->
  ?kernel:Vpic_cell.Perf_model.push_kernel ->
  ?calibration:Vpic_cell.Perf_model.calibration ->
  totals:Scoreboard.totals ->
  workload:Vpic_cell.Perf_model.workload ->
  unit ->
  t

val print : t -> unit

(** One-line JSON: [{"type":"report","machine":...,"phases":{...},"rates":{...}}]. *)
val to_json : t -> string
