(** Marder divergence cleaning (the scheme VPIC applies periodically to
    keep Gauss's law satisfied against accumulated roundoff):

      E <- E + d grad(div E - rho)

    which diffuses the Gauss-law residual away.  [d] is chosen just inside
    the diffusive stability limit.  Ghost consistency is delegated to the
    caller through {!hooks}, so the same code serves single-rank (local
    boundary fill) and multi-rank (parallel exchange) runs. *)

module Sf = Vpic_grid.Scalar_field

type hooks = {
  fill_e : unit -> unit;        (** make all E ghosts valid *)
  fill_scalar : Sf.t -> unit;   (** make ghosts of a node scalar valid *)
}

(** Hooks for a single-rank run with the given boundary conditions. *)
val local_hooks : Vpic_grid.Bc.t -> Em_field.t -> hooks

(** Run [passes] Marder passes (default 2) with relaxation [relax]
    (default 0.8 of the diffusive limit).  Expects [f.rho] to hold the
    current deposited-and-folded charge density.  Returns the max
    |div E - rho| {e before} cleaning, for diagnostics.  [pool] tiles
    each half-pass over interior (j,k) rows; both halves are per-voxel
    pure, so results are identical for any tile/worker count. *)
val clean :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  ?passes:int ->
  ?relax:float ->
  hooks:hooks ->
  Em_field.t ->
  float

(** [clean] over several fields at once: each half-pass sweeps every
    [(field, err)] pair between the caller's fills.  [fill_e] must make
    every field's E ghosts valid, [fill_err] every [err] mesh's ghosts.
    Returns the max |div E - rho| over all fields before cleaning.
    {!clean} is the one-field case. *)
val clean_many :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  ?passes:int ->
  ?relax:float ->
  fill_e:(unit -> unit) ->
  fill_err:(unit -> unit) ->
  (Em_field.t * Sf.t) list ->
  float
