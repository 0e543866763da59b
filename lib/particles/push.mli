(** The PIC inner loop (VPIC's hot kernel): for every particle of a
    species, gather E and B, apply the relativistic Boris rotation, move
    the particle — splitting its trajectory at every cell-face crossing —
    and scatter charge-conserving Villasenor–Buneman currents into the
    field's J accumulators.

    Mixed precision: particles live in the 32-byte f32 {!Store}; the
    kernel reads them into f64 registers, computes and deposits in f64,
    and narrows once on store.  Every deposited segment endpoint is
    f32-representable and identical to the position carried forward, so
    discrete charge continuity holds at f64 accuracy despite f32
    storage.

    Boundary handling during the move:
    - [Periodic] faces wrap the particle;
    - [Conducting] faces reflect it (specularly);
    - [Absorbing] faces delete it (currents up to the wall are kept);
    - [Refluxing uth] faces re-emit it from a thermal bath at the wall
      (flux-weighted normal momentum, Maxwellian tangentials; requires
      [rng]); the remainder of the step is forfeited;
    - [Domain] faces stop the walk {e at the face}: the particle becomes a
      mover — removed from the species, carrying its remaining
      displacement in a packed {!Movers} buffer — to be shipped by
      [Vpic_parallel.Migrate] and finished on the neighbouring rank with
      {!finish_movers}.  (This is VPIC's scheme; it also guarantees
      deposition never reaches past the single ghost layer.)

    Requires valid EM ghosts (both sides) before the call.  Currents are
    deposited into interior and first-ghost-layer slots; fold them {e
    after} migration completes (the neighbour's finished movers deposit
    into its ghost slots too).

    Stability: per-axis displacement must stay below one cell per step,
    guaranteed by the Courant limit since |v| < c = 1. *)

(** Analytic flop counts for the perf ledger. *)
val flops_per_push : float
(** Boris + move, excluding gather and deposition. *)

val flops_per_segment : float
(** one Villasenor–Buneman segment deposition *)

val block_flops_rotate : float
val block_flops_advance : float
(** Per-lane flop split of the block kernel's fused passes: rotate
    (Boris) + advance (inverse gamma, displacement, crossing mask) sum
    to [flops_per_push]; gather and deposit reuse
    [Interpolator.flops_per_gather] and [flops_per_segment].  The Perf
    ledger is therefore identical across kernels. *)

val block_pass_flops : unit -> (string * float) list
(** [(pass, flops-per-lane)] rows of the block kernel, in pass order:
    gather, rotate, advance, deposit (deposit is per segment). *)

(** Inner-loop kernel: [Scalar] advances one particle at a time (the
    historical path); [Block] streams fixed-width lane blocks of each
    voxel run through fused gather/rotate/advance/deposit passes with a
    branch-free cell-crossing mask — flagged lanes fall out to the
    scalar cleanup path, so results are bitwise identical to [Scalar]
    (only speed differs).  [Block] requires an [interp]; without one
    it silently runs [Scalar]. *)
type kernel = Scalar | Block of { width : int }

val kernel_to_string : kernel -> string

val default_block_width : int
(** 8 — two SPE-style quadwords of f32 lanes per pass. *)

val max_block_width : int
(** 16 — the widest block {!advance} accepts; widths run 1 to this. *)

(** Particles stopped at a [Domain] face, packed {!Movers.stride} Float32
    values each in a Bigarray: cell (i,j,k as exact integers), in-cell
    position (f32-exact by construction), momentum + weight (f32 —
    exactly what the 32-byte store would have kept after settling), and
    the unconsumed displacement in cell units (rounded to f32).  [buf]
    {e is} the wire format of the persistent migrate ports — migration
    copies the first [n * stride] values straight into the port buffer,
    no boxing, no intermediate array. *)
module Movers : sig
  type t = { mutable buf : Store.f32; mutable n : int }

  (** Floats per mover: i,j,k, fx,fy,fz, ux,uy,uz, w, rx,ry,rz. *)
  val stride : int

  val create : ?capacity:int -> unit -> t
  val count : t -> int
  val clear : t -> unit

  (** [of_wire buf n] views [n] movers at the start of a received port
      buffer, in place: only valid while the buffer is. *)
  val of_wire : Store.f32 -> int -> t
end

(** Reusable index list of particles deferred to the boundary pass of a
    split push.  Create once per species and reuse across steps. *)
module Defer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val count : t -> int
  val clear : t -> unit
end

type stats = {
  advanced : int;   (** particles pushed *)
  segments : int;   (** deposition segments (>= advanced) *)
  absorbed : int;   (** deleted at absorbing walls *)
  reflected : int;  (** specular reflections at conducting walls *)
  refluxed : int;   (** re-emitted thermally at refluxing walls *)
  outbound : int;   (** became movers (removed, waiting to migrate) *)
  block_lanes : int;
      (** particles that entered the block kernel's fused passes *)
  block_cleanup : int;
      (** fused lanes flagged as crossing, completed by the scalar
          cleanup pass (subset of [block_lanes]) *)
}

val zero_stats : stats
val sum_stats : stats -> stats -> stats

(** [advance ?first ?count ?movers species fields bc] pushes the whole
    species by default, or the index block [first, first+count) — the
    interface the simulated SPE pipeline streams blocks through (block
    mode must not delete particles: no absorbing or domain faces there).
    Outbound particles are appended to [movers]; raises
    [Invalid_argument] if a domain face is crossed with no [movers]
    buffer.

    [region] splits the push around an in-flight ghost fill.  The
    boundary {e shell} is the set of cells touching the ghost layer
    (local index 1 or n on any axis): only shell particles read ghost
    fields through the gather stencil, reach a wall, or become movers.
    [`Interior d] pushes every particle outside the shell — valid before
    the ghost fill completes — and records the shell particles' indices
    in [d] (cleared by the caller); it never deletes particles, so the
    recorded indices stay valid.  [`Deferred d] then pushes exactly
    those (ignoring [first]/[count]).  [`All] (default) is the fused
    equivalent.  [stats.advanced] counts particles actually pushed by
    the call. *)
val advance :
  ?perf:Vpic_util.Perf.counters ->
  ?first:int ->
  ?count:int ->
  ?movers:Movers.t ->
  ?interp:Interpolator.t ->
  ?accum:Accumulator.t ->
  ?rng:Vpic_util.Rng.t ->
  ?kernel:kernel ->
  ?region:[ `All | `Interior of Defer.t | `Deferred of Defer.t ] ->
  Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  stats
(** Without [interp] the particles feel the E and B of the field they
    scatter into.  [interp] switches the gather to the precomputed {!Interpolator}
    coefficients (one run-cached 72-byte block per occupied voxel,
    VPIC's expansion — a slightly different scheme from the direct
    staggered gather; the caller must have [load]ed the relevant voxels
    from the field the particles should feel).  [accum] redirects the
    current scatter into the {!Accumulator}'s per-voxel slots (identical
    arithmetic; the caller unloads once per step).  The two are
    independent.

    [kernel] selects the inner-loop shape (see {!kernel}); [Block] is
    active with an [interp] over [`All] and
    [`Interior] regions (the [`Deferred] boundary pass has no
    contiguous runs and always runs scalar) and is bitwise-identical
    to [Scalar].  [stats.block_lanes]/[stats.block_cleanup] report its
    fused-lane and scalar-cleanup counts. *)

(** Reusable per-tile workspace (defer lists + flop ledgers) of
    {!advance_team}.  One per species, kept across steps. *)
module Team_scratch : sig
  type t

  val create : unit -> t
end

(** [advance_team ~pool ~scratch ~defer s f bc] is the worker-team form
    of [advance ~region:(`Interior defer)]: the species splits into
    [pool.tiles] contiguous particle chunks, each pushed (possibly on a
    different worker lane) with its own defer list, perf ledger and
    private {!Accumulator.slab} as the scatter target; the per-tile
    outputs merge back in ascending tile order, so the result — defer
    order included — is bitwise invariant in the worker count at a
    fixed tile count.  The interior region never deletes particles,
    creates movers or consumes [rng], which is what makes the fan-out
    safe.  The caller must run {!Accumulator.reduce} on [accum] before
    unloading it.  With a 1-tile pool, or without [accum] (tiles would
    share the J meshes), this is exactly [advance
    ~region:(`Interior defer)]. *)
val advance_team :
  ?perf:Vpic_util.Perf.counters ->
  ?interp:Interpolator.t ->
  ?accum:Accumulator.t ->
  ?rng:Vpic_util.Rng.t ->
  ?kernel:kernel ->
  pool:Vpic_util.Pool.t ->
  scratch:Team_scratch.t ->
  defer:Defer.t ->
  Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  stats

(** Complete the moves of movers arriving from a neighbouring rank (cell
    indices already rebased to this rank, interior at the entry face).
    Settled particles are appended to the species; movers that stop at a
    further domain face go to [movers_out]; absorbed ones are dropped.
    Returns (settled, absorbed, re-emitted). *)
val finish_movers :
  ?perf:Vpic_util.Perf.counters ->
  ?movers_out:Movers.t ->
  ?accum:Accumulator.t ->
  ?rng:Vpic_util.Rng.t ->
  Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  Movers.t ->
  int * int * int
(** [accum] routes the finished movers' deposition into the accumulator
    (must be the one the step's pushes used, unloaded afterwards). *)

(** [boris ~u ...] is VPIC's relativistic Boris update (half E kick,
    volume-preserving rotation, half E kick) of (ux,uy,uz) in [u]
    (length 3), in place, given the local fields and the half-step
    coefficient qdt_2m = q dt / 2m. *)
val boris :
  u:float array ->
  ex:float -> ey:float -> ez:float ->
  bx:float -> by:float -> bz:float ->
  qdt_2m:float ->
  unit
