(** Input decks for the paper's laser-plasma-interaction workload: a
    quasi-1D hohlraum-fill slab irradiated by a pump laser, with a
    counter-propagating seed at the Raman-backscatter frequency so that
    short runs measure a well-defined amplification (see DESIGN.md
    substitutions; SRS from thermal noise needs trillions of particles —
    that is the paper's point — so scaled-down runs are seeded).

    Geometry (x is the laser axis, transverse periodic):

    {v
      |absorb|..vacuum..|A|..|M|######## plasma ########|..vacuum..|S|absorb|
    v}
    A = pump antenna, M = reflectivity measurement plane, S = seed antenna. *)

type config = {
  nr : float;        (** n_e/n_cr, e.g. 0.10 (hohlraum fill) *)
  te_kev : float;    (** electron temperature, keV *)
  ti_over_te : float;
  a0 : float;        (** pump normalised amplitude *)
  r_seed : float;    (** seed intensity / pump intensity *)
  nx : int;
  ny : int;
  nz : int;
  dx : float;        (** cell size along x, c/omega_pe *)
  l_transverse : float; (** box size along y and z *)
  vacuum : float;    (** vacuum buffer on each side, c/omega_pe *)
  ppc : int;         (** electron macro-particles per cell *)
  ion_mass : float;  (** m_i/m_e; <= 0 loads no ions (immobile background,
                         divergence cleaning disabled) *)
  filter_passes : int; (** binomial current/force smoothing passes (noise
                           control; see Vpic.Simulation) *)
  t_rise : float;
  y_skew : float;    (** linear density tilt along y: n *= 1 + s*(y/L - 1/2),
                         clamped at 0.  Deliberate load imbalance for
                         exercising the block rebalancer; 0 = flat. *)
  rng_seed : int;
}

val default : config

(** Derived: pump field amplitude e0 = a0 * omega0. *)
val e0_of : config -> float

(** Canonical serialization of a fully-resolved config: a fixed header
    line, then one [field=value] line per field {e in declaration
    order}, floats rendered in one normalized format ([%.17g], negative
    zero folded to [0]).  This is the campaign service's content-hash
    contract: two configs hash equal iff their canonical strings are
    byte-identical, so field reordering or float-formatting drift would
    silently invalidate every cached result — a test pins the hash of
    {!default} to catch exactly that. *)
val to_canonical_string : config -> string

type setup = {
  sim : Vpic.Simulation.t;
  refl : Reflectivity.t;
  plasma : Srs_theory.plasma;
  matching : Srs_theory.matching;
  plasma_x_lo : float;
  plasma_x_hi : float;  (** slab extent, for gain-length computations *)
  e0 : float;
  config : config;
}

(** Build the full simulation: grid, boundary conditions + absorber,
    electron (and ion) loading, pump and seed antennas, reflectivity
    probe.  [comm] runs the deck decomposed along y, one slab per rank
    (the transverse periodic axis; x keeps its global extent so lasers,
    probe and absorber are unchanged) — [ny] must divide by the rank
    count, and every rank builds collectively with its own rank-salted
    particle RNG.  Without [comm] the build is exactly the original
    serial deck.  [push_backend] selects the block kernel's width
    ({!Vpic.Simulation.push_backend}) — an execution choice, not
    physics, so it is absent from the config record and its canonical
    hash. *)
val build :
  ?comm:Vpic_parallel.Comm.t ->
  ?push_backend:Vpic.Simulation.push_backend ->
  config ->
  setup

(** Step the setup [steps] times, sampling the reflectivity probe each
    step.  Returns the final reflectivity estimate. *)
val run : setup -> steps:int -> float

(** Suggested number of steps for a converged reflectivity measurement
    (a few light transits of the box). *)
val suggested_steps : config -> int

(** {1 Over-decomposed builds}

    The same deck split into [blocks] relocatable y-slabs stepped by a
    {!Vpic.Multiblock} driver — more blocks than ranks, so the greedy
    rebalancer can move load mid-run (pair with [y_skew] to create
    some).  Per-block loading RNGs are salted by {e block id}, so results are
    independent of the rank count and of any relocations; a
    [blocks = 1] serial build steps bitwise-identically to {!build}. *)

type block_setup = {
  mb : Vpic.Multiblock.t;
  refl : Reflectivity.t;  (** this rank's slice of the probe plane *)
  plasma : Srs_theory.plasma;
  matching : Srs_theory.matching;
  plasma_x_lo : float;
  plasma_x_hi : float;
  e0 : float;
  config : config;
}

(** Collective when [comm] is given (every rank, same arguments).
    [blocks] need not divide [ny] (remainder-safe decomposition) but
    must be >= the rank count.  [rebalance_interval] /
    [rebalance_threshold] are passed to {!Vpic.Multiblock.create}
    (threshold 0 = never rebalance); [pool] is the rank's worker team,
    installed on every owned block.  [push_backend] is applied to every
    built block and re-applied (via the reattach hook) to blocks that
    arrive later through relocation, adoption or recovery decode. *)
val build_over :
  ?comm:Vpic_parallel.Comm.t ->
  ?pool:Vpic_util.Pool.t ->
  ?push_backend:Vpic.Simulation.push_backend ->
  ?rebalance_interval:int ->
  ?rebalance_threshold:float ->
  ?cost_model:[ `Wall | `Particles ] ->
  blocks:int ->
  config ->
  block_setup

(** Sample the reflectivity probe over the owned blocks (area-weighted;
    call once per step after {!Vpic.Multiblock.step}). *)
val sample_over : block_setup -> unit

(** The world's trapping lines: the hot fraction (> 3 Te) and the f(v)
    flattening at the EPW phase velocity over the electrons of every
    block ({!Trapping.world_lines}).  Collective when the world has a
    comm: every live rank must call it. *)
val trapping_over : block_setup -> float * float
