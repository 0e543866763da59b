(** The PIC inner loop (VPIC's hot kernel): for every particle of a
    species, gather E and B, apply the relativistic Boris rotation, move
    the particle — splitting its trajectory at every cell-face crossing —
    and scatter charge-conserving Villasenor–Buneman currents into the
    per-voxel blocks of an {!Accumulator} — the one scatter target; the
    step unloads it into the J meshes once.

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
      (flux-weighted normal momentum, Maxwellian tangentials); the
      remainder of the step is forfeited;
    - [Domain] faces stop the walk {e at the face}: the particle becomes a
      mover — removed from the species, carrying its remaining
      displacement in a packed {!Movers} buffer — to be shipped by
      [Vpic_parallel.Migrate] and finished on the neighbouring rank with
      {!finish_movers}.  (This is VPIC's scheme; it also guarantees
      deposition never reaches past the single ghost layer.)

    Requires valid EM ghosts (both sides) before the call.  Every
    segment starts in an interior cell, so it lands in an interior
    voxel's accumulator block; once unloaded, its J targets reach the
    first ghost layer.  Unload and fold them {e after} migration
    completes (the neighbour's finished movers deposit too).

    Stability: per-axis displacement must stay below one cell per step,
    guaranteed by the Courant limit since |v| < c = 1.

    Reflux draws are stateless and order-free.  The re-emitted momentum
    is a pure function of a key hashed (SplitMix64, {!Vpic_util.Rng.mix64})
    from a fixed salt, the species name, the wall's {e global} cell (the
    local cell plus the grid origin in cells) and face, and the f32 bits
    of the crossing's two in-plane offsets and three momenta.  It does
    not depend on particle order, on the pass, tile or team lane that
    pushes the particle, on the block or rank that owns it, or on the
    step; a push carries no generator and a checkpoint saves none.  The
    contract: two particles with identical bits at the same wall get
    the same draw. *)

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
    ledger is therefore identical across block widths. *)

val block_pass_flops : unit -> (string * float) list
(** [(pass, flops-per-lane)] rows of the block kernel, in pass order:
    gather, rotate, advance, deposit (deposit is per segment). *)

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

  (** A mover wire that cannot be decoded: [mover] is the index of the
      offending mover (for a bad length, the number of whole movers). *)
  exception Corrupt of { mover : int; reason : string }

  (** [of_wire buf len] views the movers in the first [len] floats of a
      received port buffer, in place: only valid while the buffer is.
      Raises {!Corrupt} unless [len] is a whole number of movers within
      [buf]. *)
  val of_wire : Store.f32 -> int -> t
end

(** Reusable list of the particle index ranges deferred to the boundary
    pass of a split push (touching ranges merge).  Create once per
    species and reuse across steps. *)
module Defer : sig
  type t

  (** [capacity] is in ranges. *)
  val create : ?capacity:int -> unit -> t

  val clear : t -> unit
end

(** The workspace of one push call: the walk state, the block kernel's
    lanes, the run-cached interpolator block and the call's counters.
    Keep one per concurrent push (a team tile, a species' boundary
    pass, a streamed pipeline) and pass it to every call: a steady push
    then allocates nothing per particle or per call beyond its
    result. *)
module Work : sig
  type t

  val create : unit -> t
end

type stats = {
  advanced : int;   (** particles pushed *)
  segments : int;   (** deposition segments (>= advanced) *)
  absorbed : int;   (** deleted at absorbing walls *)
  reflected : int;  (** specular reflections at conducting walls *)
  refluxed : int;   (** re-emitted thermally at refluxing walls *)
  outbound : int;   (** became movers (removed, waiting to migrate) *)
  block_lanes : int;
      (** particles that entered the block kernel's fused passes (every
          pushed particle) *)
  block_cleanup : int;
      (** fused lanes flagged as crossing, completed by the face-crossing
          walk (subset of [block_lanes]) *)
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
    the ghost fill completes — and records the shell particles' index
    ranges in [d] (cleared by the caller); it never deletes particles,
    so the recorded ranges stay valid.  [`Deferred d] then pushes
    exactly those (ignoring [first]/[count]), in ascending order.
    [`All] (default) is the fused equivalent, which the SPE pipeline
    streams through; a simulation step always runs the split pair.
    [stats.advanced] counts
    particles actually pushed by the call. *)
val advance :
  ?perf:Vpic_util.Perf.counters ->
  ?first:int ->
  ?count:int ->
  ?movers:Movers.t ->
  interp:Interpolator.t ->
  accum:Accumulator.t ->
  ?width:int ->
  ?region:[ `All | `Interior of Defer.t | `Deferred of Defer.t ] ->
  ?work:Work.t ->
  Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  stats
(** The particles gather E and B from [interp]'s precomputed
    coefficients (one run-cached 72-byte block per occupied voxel,
    VPIC's expansion); the caller must have [load]ed the relevant voxels
    from the field the particles should feel.  Currents scatter into
    [accum]'s per-voxel slots (the caller unloads once per step); the
    field argument supplies only the grid.

    There is one particle loop, the block kernel: each voxel run
    streams in [width]-lane blocks (default {!default_block_width};
    [Invalid_argument] outside [1, {!max_block_width}]) through fused
    gather/rotate/advance/deposit passes with a branch-free
    cell-crossing mask; flagged lanes fall out to the face-crossing
    walk.  Every region runs it — the [`Deferred] pass over each
    recorded range.  Results (store, currents, movers, reflux draws)
    are bitwise invariant in [width]; only speed differs.
    [stats.block_lanes]/[stats.block_cleanup] report its fused-lane and
    walk-cleanup counts.  [work] is the call's workspace (by default a
    fresh one); calls that may run concurrently need distinct ones. *)

(** Reusable per-tile workspace (defer lists and push workspaces) of
    {!advance_team}.  One per species, kept across steps. *)
module Team_scratch : sig
  type t

  val create : unit -> t
end

(** [advance_team ~pool ~scratch ~defer s f bc] is the worker-team form
    of [advance ~region:(`Interior defer)]: the species splits into
    [pool.tiles] contiguous particle chunks, each pushed (possibly on a
    different worker lane) by the block kernel in its own workspace,
    with its own defer list and private {!Accumulator.slab} as the
    scatter target; the defer lists merge back and the workspaces'
    counters sum in ascending tile order into one result and one
    [perf] charge, so the result — defer order included — is bitwise
    invariant in the worker count at a fixed tile count, and the call
    allocates nothing per tile.  The interior region never deletes
    particles, creates movers or reaches a wall, which is what makes
    the fan-out safe.  The
    caller must run {!Accumulator.reduce} on [accum] before unloading
    it.  A 1-tile pool takes the same driver: its one slab is [accum]
    itself, so it deposits in particle order, exactly as
    [advance ~region:(`Interior defer)] would. *)
val advance_team :
  ?perf:Vpic_util.Perf.counters ->
  interp:Interpolator.t ->
  accum:Accumulator.t ->
  ?width:int ->
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
    Returns (settled, absorbed, re-emitted).

    The batch is checked before any mover is finished: raises
    {!Movers.Corrupt} on a cell that is not an interior cell of this
    grid (or not an exact integer), an offset outside [0, 1], a
    displacement beyond one cell, or a non-finite momentum or weight. *)
val finish_movers :
  ?perf:Vpic_util.Perf.counters ->
  ?movers_out:Movers.t ->
  accum:Accumulator.t ->
  ?work:Work.t ->
  Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_grid.Bc.t ->
  Movers.t ->
  int * int * int
(** The finished movers deposit into [accum], like every push (pass the
    one the step's pushes used; it is unloaded afterwards).
    [work] is the call's workspace, as for {!advance}. *)

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
