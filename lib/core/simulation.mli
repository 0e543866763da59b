(** The simulation driver: owns the field state, the species list and the
    step loop, in VPIC's order of operations:

    + make ghosts consistent, clear current accumulators;
    + advance every particle (gather, Boris, move + current scatter),
      drive laser antennas, fold ghost currents, migrate movers;
    + half B advance, full E advance (with J), half B advance;
    + periodically: Marder divergence clean and voxel sort;
    + apply the sponge absorber on absorbing boundaries.

    The sequence is written once, {!step_world}, and steps a list of
    simulations under one {!world}: that is how {!Multiblock} advances
    its owned blocks, and every [vpic_run srs] run and campaign job is a
    {!Multiblock} world (whose monitor runs the health sentinel).
    {!step} is the one-simulation world routed by the simulation's own
    coupler — [Coupler.local] on one rank, [Coupler.parallel] on many
    (every rank steps its own [t] collectively) — for srsbench, the
    sweep, the examples and the tests. *)

module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species

(** Per-species push workspace (mover buffer + deferred-index list),
    created on first use and reused every step. *)
type push_scratch = {
  movers : Vpic_particle.Push.Movers.t;
  defer : Vpic_particle.Push.Defer.t;
  team : Vpic_particle.Push.Team_scratch.t;
      (** per-tile defer lists, perf ledgers and workspaces of the team
          push *)
  work : Vpic_particle.Push.Work.t;  (** the boundary pass's workspace *)
}

(** How the push runs: the block kernel at [width] lanes, its interior
    pass fanned out over the rank's worker team and its boundary-shell
    pass serial.  Results are bitwise invariant in [width] (the block
    kernel's contract) and in the worker count.  A backend is an
    execution strategy, not physics: it enters neither the deck hash
    nor the checkpoint image (a restored simulation runs the default
    width {!Vpic_particle.Push.default_block_width}; re-apply another
    with {!set_push_backend}). *)
type push_backend = Host_block of { width : int }

val push_backend_to_string : push_backend -> string

type t = {
  grid : Grid.t;
  fields : Em_field.t;
  coupler : Coupler.t;
  mutable species_rev : Species.t list;
      (** registration order reversed (O(1) add); read via {!species} *)
  mutable lasers_rev : Vpic_field.Laser.t list;
  absorber : Vpic_field.Boundary.Absorber.t;
  absorber_thickness : int;
      (** construction parameters of [absorber], kept for checkpointing *)
  absorber_strength : float;
  sort_interval : int;
  clean_div_interval : int;
  marder_passes : int;
  current_filter_passes : int;
  mutable push_backend : push_backend;
      (** push engine (see {!push_backend}); set via [make] or
          {!set_push_backend} *)
  interp_accum :
    (Vpic_particle.Interpolator.t * Vpic_particle.Accumulator.t) option;
      (** the VPIC inner-loop memory system: per-voxel interpolator
          coefficient blocks and current-accumulator blocks, threaded
          through the push and migration each step.  Always [Some]. *)
  smoothed : Em_field.t option;
  mutable nstep : int;
  mutable push_stats : Vpic_particle.Push.stats;
  mutable push_s : float;
      (** wall seconds the last step spent pushing this simulation's
          particles (interior pass, boundary loads, boundary pass) —
          {!Multiblock}'s per-block [`Wall] cost *)
  mutable scratch_rev : (Species.t * push_scratch) list;
  perf : Vpic_util.Perf.counters;
  clean_err : Vpic_grid.Scalar_field.t;
      (** the Marder clean's error mesh (div E - rho), zeroed and reused
          by every clean *)
  rho_slabs : Vpic_particle.Moments.slabs;
      (** the private per-tile slabs of the tiled rho deposit, reused by
          every deposit *)
  mutable pool : Vpic_util.Pool.t;
      (** the rank's worker team; every tiled phase (interior push, sort,
          interpolator load, accumulator reduce, Marder clean, rho
          deposit) runs through it.  [Pool.serial] (the default) is the
          classic one-domain rank.  Never serialised — checkpoint restore
          re-installs the live team via {!set_pool}. *)
}

(** [make ~grid ~coupler ()] builds an empty simulation.
    [sort_interval] (default 25) and [clean_div_interval] (default 50)
    may be 0 to disable.  The absorber acts only on [Absorbing] faces.
    [current_filter_passes] (default 0) applies that many binomial
    smoothing passes to the deposited J {e and} to the E/B fields the
    particles gather — VPIC's optional noise filter; matched (symmetric)
    smoothing of force and current keeps the coupling energy-consistent.
    Filtered J breaks discrete continuity at the grid scale, so keep the
    Marder clean enabled when using it.  A filtered step completes the
    ghost fill and loads the interpolator from the smoothed copy before
    its interior pass; otherwise the interior pass overlaps the fill.
    Either way the push is the same interior/boundary-shell pair.
    The push runs through the VPIC
    interpolator/accumulator memory system ([interp_accum]): field
    coefficients load into one 72-byte block per voxel before each push
    and scattered currents fold out of per-voxel accumulator blocks
    after migration.
    [push_backend] (default [Host_block] at
    {!Vpic_particle.Push.default_block_width}) selects the block width;
    see {!push_backend}.
    [perf] shares an existing flop/byte counter set between simulations
    (the over-decomposed driver gives all its blocks one); by default
    each simulation counts alone.
    [pool] is the worker team the per-rank compute phases fan out over
    (default {!Vpic_util.Pool.serial}); see {!set_pool}. *)
val make :
  ?sort_interval:int ->
  ?clean_div_interval:int ->
  ?marder_passes:int ->
  ?absorber_thickness:int ->
  ?absorber_strength:float ->
  ?current_filter_passes:int ->
  ?push_backend:push_backend ->
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  grid:Grid.t ->
  coupler:Coupler.t ->
  unit ->
  t

(** Install (or replace) the worker team driving this simulation's tiled
    phases.  Safe between steps; [Multiblock] and checkpoint restore use
    it to hand every block the rank's one team. *)
val set_pool : t -> Vpic_util.Pool.t -> unit

val pool : t -> Vpic_util.Pool.t

(** Select the push backend between steps.  [Deck.build_over]'s
    reattach hook re-applies the run's on restored, recovered and
    relocated blocks, since the backend is never serialised. *)
val set_push_backend : t -> push_backend -> unit

(** Create, register and return a new species on this simulation's grid. *)
val add_species : t -> name:string -> q:float -> m:float -> Species.t

val find_species : t -> string -> Species.t
val add_laser : t -> Vpic_field.Laser.t -> unit

(** Registered species / lasers, in registration order. *)
val species : t -> Species.t list

val lasers : t -> Vpic_field.Laser.t list

(** Physical time = nstep * dt. *)
val time : t -> float

(** The routing a list of simulations steps under: every ghost fill,
    fold, migration and reduction of {!step_world} runs once for the
    whole list.  [fill_em_begin] may leave ghosts in flight until
    [fill_em_finish]; [fill_list meshes] fills [meshes t] of every
    simulation [t] (the Marder error mesh, and every binomial filter
    pass of a filtered run); [migrate] ships and finishes every
    simulation's movers; [rank] is the comm rank the fault-injection
    probes key on. *)
type world = {
  fill_em_begin : unit -> unit;
  fill_em_finish : unit -> unit;
  fill_em : unit -> unit;
  fill_e : unit -> unit;
  fill_list : (t -> Vpic_grid.Scalar_field.t list) -> unit;
  fold_currents : unit -> unit;
  fold_rho : unit -> unit;
  migrate : (t * (Species.t * push_scratch) list) list -> unit;
  reduce_sum : float -> float;
  reduce_max : float -> float;
  rank : int;
}

(** The one-simulation world, routed by [t]'s own coupler. *)
val world : t -> world

(** Advance every simulation of the list one full step under the
    world's routing (collective).  The list shares one step count and
    one set of step parameters (the first simulation's sort, clean and
    filter settings apply to all); a filtered list smooths every
    simulation's meshes in lockstep, filling through the world.  When
    tracing is
    enabled ([Vpic_telemetry.Trace.enable]), the step and each phase
    record spans: ["step"], ["push.interior"] /
    ["push.boundary"], ["interp.load"] / ["accum.unload"],
    ["exchange.fill_begin"] / ["exchange.fill_finish"] /
    ["exchange.fill"] / ["exchange.fold"], ["laser"], ["migrate"],
    ["field"], ["clean"], ["sort"] — the names
    [Vpic_telemetry.Scoreboard] aggregates. *)
val step_world : world -> t list -> unit

(** Advance one full step: [step_world (world t) [t]]. *)
val step : t -> unit

(** {1 Step phases}

    The phases {!step_world} runs, exposed so that an outside timer can
    replay [step_world] for one simulation phase by phase.  In order:
    (fill begin), clear/load, push interior, (fill finish), load
    boundary interpolators, push boundary, lasers, (migrate), unload
    accumulator, (fold), B half-advance, (fill), E advance, (clean),
    (fill), B half-advance + absorb, sort.  With the parenthesised steps
    taken from the coupler ({!deposit_rho} and [Marder.clean] for the
    clean), these reproduce {!step} bitwise.  The interior/boundary
    split assumes no current filter ([smoothed = None]). *)

(** Clear current meshes, load interior interpolator blocks, clear each
    species' push scratch; returns the per-species scratch list the push
    and migration phases consume. *)
val phase_clear_and_load : t -> (Species.t * push_scratch) list

val phase_push_interior : t -> (Species.t * push_scratch) list -> unit

(** Load the boundary-shell interpolator slabs (ghosts must be fresh). *)
val phase_load_boundary : t -> unit

val phase_push_boundary : t -> (Species.t * push_scratch) list -> unit
val phase_lasers : t -> unit
val phase_unload_accum : t -> unit
val phase_advance_b : t -> frac:float -> unit

(** Advance E and re-clamp PEC faces. *)
val phase_advance_e : t -> unit

val phase_absorb : t -> unit

(** Voxel-sort every species (unconditionally; the caller gates on
    {!interval_due}). *)
val phase_sort : t -> unit

(** [interval_due t i]: does interval [i] fire on the step being
    computed (nstep + 1)? *)
val interval_due : t -> int -> bool

(** [run t ~steps ?every ?diag ()] steps [steps] times, invoking [diag]
    every [every] steps (default: never). *)
val run : t -> steps:int -> ?every:int -> ?diag:(t -> unit) -> unit -> unit

(** {1 Diagnostics}

    Collective: local sums and maxima run over the list, then one
    world reduction each.  The one-simulation forms below are the
    [world t] case. *)

type energies = {
  field_e : float;
  field_b : float;
  particles : (string * float) list;
  total : float;
}

val energies_world : world -> t list -> energies

(** Total particle count over all species and simulations. *)
val total_particles_world : world -> t list -> int

(** Deposit rho from scratch and return the max Gauss-law residual
    |div E - rho|. *)
val gauss_residual_world : world -> t list -> float

(** Max |div B| over the interiors (ghosts refreshed first);
    machine-level forever under the Yee update. *)
val div_b_max_world : world -> t list -> float

(** Run [passes] Marder passes against the current charge distribution —
    used to make an initially non-neutral load field-consistent. *)
val settle_fields_world : world -> t list -> passes:int -> unit

(** Deposit and fold rho from all species into each [fields.rho]. *)
val deposit_rho_world : world -> t list -> unit

val energies : t -> energies
val total_particles : t -> int
val gauss_residual : t -> float
val div_b_max : t -> float
val settle_fields : t -> passes:int -> unit
val deposit_rho : t -> unit
