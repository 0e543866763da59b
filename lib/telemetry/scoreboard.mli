(** Per-step performance rollup, in the units of the paper's headline:
    particle-steps/s, voxel-updates/s, sustained and inner-loop flop
    rates, comm-wait fraction, migration volume and cross-rank load
    imbalance.

    Rates combine the {!Trace} cumulative phase totals (wall time per
    phase, this rank's domain), the analytic [Vpic_util.Perf] flop/work
    ledgers, and the ["comm.park_s"] / ["migrate.*"] metrics.  A
    {!sample} reduces a window (since the previous sample) across
    ranks; {!totals} reduces the whole run.  Both are collective:
    every rank must call them at the same step, each on its own
    scoreboard. *)

type t

(** One per rank, on the rank's own domain, after {!Trace.enable} /
    {!Metrics.enable}.  [reduce_sum] / [reduce_max] are the world
    scalar collectives (identity on a serial run).
    [worker_busy] (when the rank runs a worker team) returns the team's
    cumulative per-lane busy seconds ([Vpic_parallel.Team.busy_seconds]);
    each {!sample} then publishes a ["team.worker.busy_s.w<lane>"] gauge
    per lane and a ["team.push_imbalance"] gauge (window max/mean lane
    busy) — pass it on every rank or none, so the collective metric
    reduce sees one name set. *)
val create :
  ?worker_busy:(unit -> float array) ->
  metrics:Metrics.t ->
  perf:Vpic_util.Perf.counters ->
  nranks:int ->
  reduce_sum:(float -> float) ->
  reduce_max:(float -> float) ->
  unit ->
  t

type sample = {
  step : int;
  window_steps : int;
  wall_s : float;           (** window wall time, max over ranks *)
  particle_rate : float;    (** particle-steps/s, world *)
  voxel_rate : float;       (** voxel-updates/s, world *)
  sustained_flops : float;  (** world flop/s over the window wall time *)
  inner_flops : float;      (** world flop/s over mean push time only *)
  comm_wait_frac : float;   (** parked seconds / (nranks * wall) *)
  movers : float;           (** migrated particles, world *)
  mover_bytes : float;      (** migration wire bytes, world *)
  imbalance : float;        (** max/mean push seconds across ranks *)
  worker_imbalance : float;
      (** max/mean busy seconds across this rank's team lanes (1.0
          without a team) *)
}

(** Collective.  Advances the window.  Also publishes the
    ["gc.minor_words_per_step"] gauge: the minor-heap words this rank's
    domain allocated per step over the window ([Gc.minor_words] is
    per-domain in OCaml 5), reduced as a max over ranks like every
    gauge.  Worker lanes of a team are not counted: their domains
    allocate on their own minor heaps. *)
val sample : t -> step:int -> sample

val print : sample -> unit

(** One-line JSON: [{"type":"scoreboard","step":N,...}]; non-finite
    numbers render as null. *)
val sample_to_json : sample -> string

(** Whole-run totals since [create], reduced across ranks (collective).
    Phase seconds are world sums (all ranks added together). *)
type totals = {
  steps : int;
  nranks : int;
  run_wall_s : float;       (** max over ranks *)
  flops : float;
  particle_steps : float;
  voxel_updates : float;
  t_push : float;
  t_interp : float;  (** interpolator load + accumulator unload *)
  t_field : float;
  t_exchange : float;
  t_migrate : float;
  t_sort : float;
  t_clean : float;
  t_step : float;           (** whole-step span, world sum *)
  comm_wait_s : float;
  movers : float;
  run_particle_rate : float;
  run_sustained_flops : float;
  run_inner_flops : float;
}

val totals : t -> steps:int -> totals

(** The phase rollup table the srs deck prints at the end of a run
    (replaces the old hand-rolled phase-timing table). *)
val print_totals : totals -> unit

(** Per-block rollup of an over-decomposed run: one row per block
    (owner rank, last push-cost window, share), then the cumulative
    rebalance traffic.  Pure printer — the caller passes world-reduced
    values (e.g. [Multiblock.owners]/[block_costs]). *)
val print_block_rollup :
  owners:int array ->
  costs:float array ->
  migrations:float ->
  shipped_bytes:float ->
  unit

(** One line per completed recovery: casualties, rollback target, replay
    cost, adopted-block count.  Pure printer; the recovery supervisor
    calls it on the surviving root. *)
val print_recovery :
  step:int ->
  rollback_gen:int ->
  casualties:int list ->
  adopted:int ->
  lost_steps:int ->
  unit
