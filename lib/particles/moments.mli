(** Velocity-space and configuration-space moments of a species:
    charge-density deposition (node-centred, the counterpart of the
    Villasenor–Buneman current scatter), mean quantities and velocity
    histograms for the trapping diagnostics. *)

module Sf = Vpic_grid.Scalar_field

(** The private per-tile slabs of a multi-tile {!deposit_rho}, reused
    across calls: created on first use, zeroed as they are folded. *)
type slabs

val slabs : unit -> slabs

(** Accumulate q w / dV with trilinear node weights into [rho] (adds; the
    caller clears and folds ghosts).  Node (i,j,k) carries weight
    (1-fx)(1-fy)(1-fz) etc, matching the continuity equation of the
    current deposition exactly.  With a multi-tile [pool], particle
    chunks scatter into private per-tile slabs folded into [rho] in
    ascending tile order — bitwise invariant in the worker count (but a
    different summation order from the serial 1-tile pass).  Pass the
    same [slabs] to every call to keep those slabs across calls (by
    default each multi-tile call allocates its own). *)
val deposit_rho :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  ?slabs:slabs ->
  Species.t ->
  rho:Sf.t ->
  unit

(** Sum of q w v over particles (total current), for conservation tests. *)
val total_current : Species.t -> Vpic_util.Vec3.t

(** Histogram of one velocity component over [lo,hi) with [bins] bins;
    returns weights per bin (out-of-range weight is dropped).
    [component] selects ux, uy or uz divided by gamma (true velocity). *)
val velocity_histogram :
  Species.t ->
  component:Vpic_grid.Axis.t ->
  lo:float ->
  hi:float ->
  bins:int ->
  float array

(** Weighted fraction of particles with kinetic energy above
    [threshold_kev] assuming electron rest mass (hot-electron fraction,
    the paper's trapping indicator). *)
val hot_fraction : Species.t -> threshold_kev:float -> float

(** The raw sums behind {!hot_fraction}: (hot weight, total weight). *)
val hot_weights : Species.t -> threshold_kev:float -> float * float

(** Mean velocity (weighted). *)
val mean_velocity : Species.t -> Vpic_util.Vec3.t

(** Weighted rms spread of u about its mean, per axis. *)
val thermal_spread : Species.t -> Vpic_util.Vec3.t

(** Accumulate the number density w/dV with trilinear node weights into
    [out] (adds; no charge factor) — the n(x) diagnostic. *)
val deposit_density : Species.t -> out:Sf.t -> unit

(** Log-spaced kinetic-energy spectrum between [e_min_kev] and
    [e_max_kev] (electron rest mass scale): returns (bin centres in keV,
    weight per bin).  The hot-electron tail diagnostic of E4. *)
val energy_spectrum :
  Species.t -> e_min_kev:float -> e_max_kev:float -> bins:int ->
  float array * float array
