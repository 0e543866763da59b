(** Simulated Cell SPE particle pipeline — the paper's central port.

    On Roadrunner, VPIC streams voxel-sorted particle blocks through the
    eight SPEs of each Cell with double-buffered DMA: while block [b] is
    being pushed out of local store, block [b+1] is already in flight.
    This module reproduces that control flow against our OCaml kernels:
    particles are processed in fixed-size blocks through the {e same}
    [Push.advance] kernel, and every transfer a real SPE would issue is
    entered into a DMA ledger.  The physics result is identical to a
    whole-species push (verified in the test suite); what the pipeline
    adds is the measured traffic and a modelled SPE timeline
    (compute/DMA overlap), which calibrate {!Perf_model}.

    Restriction: absorbing particle boundaries are rejected (block-mode
    deletion would renumber pending blocks); the LPI decks absorb
    particles only via whole-species pushes. *)

type ledger = {
  mutable blocks : int;
  mutable particles : int;
  mutable bytes_in : float;    (** particle + interpolator DMA in *)
  mutable bytes_out : float;   (** particle + accumulator DMA out *)
  mutable t_compute : float;   (** modelled SPE compute seconds *)
  mutable t_dma : float;       (** modelled DMA seconds *)
  mutable t_exposed : float;   (** modelled non-overlapped stall seconds *)
}

val ledger_create : unit -> ledger
val ledger_reset : ledger -> unit

(** Bytes per particle in single precision: 32 in (dx,dy,dz,ux,uy,uz,w,idx)
    and 32 out, matching VPIC's 32-byte particle. *)
val particle_bytes : float

(** Per-voxel interpolator (VPIC's 18-coefficient gather struct) and
    accumulator (12 current components) traffic, amortised over the
    particles sharing a voxel. *)
val interpolator_bytes : float

val accumulator_bytes : float

type t

(** [create machine ~block_size] (block 512 by default, VPIC's choice). *)
val create : ?block_size:int -> Roadrunner.t -> t

val ledger : t -> ledger

(** Push a whole species through the pipeline in blocks: identical physics
    to [Push.advance], plus ledger accounting.  [ppc_hint] is the average
    particles per voxel used to amortise interpolator/accumulator traffic
    (defaults to the species' actual average over occupied voxels).

    [interp]/[accum]/[width] pass straight through to
    [Push.advance], so the production block kernel streams through the
    pipeline; every block's call reuses the pipeline's one push
    workspace.  Currents scatter into [accum] (unload it to see them in
    the J meshes).  This is the paper's SPE control flow as a model and a
    measurement (bench E5); production steps push through
    [Push.advance_team] and never stream. *)
val advance_species :
  ?perf:Vpic_util.Perf.counters ->
  ?ppc_hint:float ->
  interp:Vpic_particle.Interpolator.t ->
  accum:Vpic_particle.Accumulator.t ->
  ?width:int ->
  t ->
  Vpic_particle.Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  Vpic_particle.Push.stats

(** Modelled particles-per-second throughput of one SPE implied by the
    ledger (compute/DMA max-overlap), and the machine-wide aggregate. *)
val spe_particle_rate : t -> float

val machine_particle_rate : t -> float
