(** Ghost-plane exchange across the domain decomposition, over persistent
    ports.

    A {!t} value bundles every wire resource a rank needs: one registered
    receive slot and one preallocated Float32 staging buffer per
    (purpose ∈ fill/fold/migrate × axis × direction of travel) — 18 slots
    — sized from the grid at construction.  Steady-state fills, folds and
    migrations move bytes exclusively through these buffers: no per-call
    plane arrays, no mailbox queues.

    Planes span the full allocated extent (ghosts included) of the two
    transverse axes, and the three axes are processed sequentially (x, y,
    z), so edge and corner ghosts are transported correctly in two/three
    hops — the standard trick that avoids 26-neighbour messaging.

    Non-[Domain] faces fall back to the local boundary handling of
    [Vpic_field.Boundary], making these functions the single entry point
    for both serial and parallel runs. *)

module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc

type t

(** [create comm bc grid] registers this rank's receive slots and resolves
    its neighbours' (blocking until they register).  Collective: every
    rank must call it in the same order. *)
val create : Comm.t -> Bc.t -> Vpic_grid.Grid.t -> t

val comm : t -> Comm.t
val bc : t -> Bc.t
val grid : t -> Vpic_grid.Grid.t

(** Bound (seconds) on every ghost/migrate receive through these ports:
    a neighbour silent for longer raises [Comm.Comm_timeout] naming the
    stuck port.  [None] (the default) keeps the allocation-free parked
    wait — set a deadline only on runs that want hang detection, the
    bounded wait is a sleep-poll. *)
val set_deadline : t -> float option -> unit

val deadline : t -> float option

(** Copy ghost planes of each scalar from neighbouring ranks (and apply
    local BCs on non-domain faces).  Every rank of the communicator must
    call this with the same scalar count.  At most 6 scalars per call. *)
val fill_ghosts : t -> Sf.t list -> unit

(** First half of {!fill_ghosts}: posts the x-axis faces and returns with
    the messages in flight.  Work that touches neither ghost voxels nor
    the fields' interior x faces may run before {!fill_finish} — the
    interior particle push overlaps here. *)
val fill_begin : t -> Sf.t list -> unit

(** Completes a {!fill_begin}: receives x, then posts/receives y and z and
    applies local BCs.  Must be passed the same scalars. *)
val fill_finish : t -> Sf.t list -> unit

(** Add ghost-plane accumulations (currents, rho) into the neighbouring
    rank's interior (and fold locally on non-domain faces), then zero the
    shipped ghost planes. *)
val fold_ghosts : t -> Sf.t list -> unit

(** {1 Byte accounting} *)

(** Cumulative payload bytes posted as (fill, fold, migrate). *)
val byte_counts : t -> float * float * float

val bytes_moved : t -> float

(** {1 Migration wire} (used by {!Migrate}) *)

(** Destination port and staging buffer for movers leaving along
    [axis] in direction of travel [dir] (0 = toward lo neighbour, 1 =
    toward hi).  Raises [Invalid_argument] if that face has no domain
    neighbour. *)
val migrate_send : t -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.port * Comm.buf32

(** Ensure the migrate staging buffer holds [len] floats; returns it. *)
val migrate_staging_grow :
  t -> axis:Vpic_grid.Axis.t -> dir:int -> int -> Comm.buf32

(** Own receive port for movers arriving with direction of travel [dir]. *)
val migrate_recv : t -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.port

(** Account [floats] payload floats of migration traffic. *)
val add_migrate_bytes : t -> int -> unit

(** {1 Block world}

    Over-decomposition routing: the grid is split into more blocks than
    ranks and a mutable ownership table maps blocks to ranks.  Every
    rank registers the full [nblocks * 18] slot matrix up front, so a
    message for block [b] is addressed to whichever rank owns [b] at
    that moment — no re-registration when blocks migrate.  Faces whose
    neighbour block is co-resident move by direct f64 plane copies
    instead of the f32 wire. *)
module Blocks : sig
  type t

  (** An owned block's geometry as the router sees it: [bc] faces carry
      neighbour {e block} ids. *)
  type view = { id : int; bc : Bc.t; g : Vpic_grid.Grid.t }

  (** Collective when [comm] is given (every rank, same arguments).
      [max_plane] is the largest ghost-inclusive plane (floats) over all
      blocks and axes ([Vpic_grid.Block.max_plane_floats]); [owner] the
      initial ownership.  Omit [comm] for a single-rank world (all
      faces must then be local). *)
  val create :
    ?comm:Comm.t -> nblocks:int -> owner:int array -> max_plane:int ->
    unit -> t

  val my_rank : t -> int
  val owner_of : t -> int -> int
  val owners : t -> int array

  (** Install a new ownership table (after a collectively-agreed
      rebalance); drops cached send routes. *)
  val set_owners : t -> int array -> unit

  val set_deadline : t -> float option -> unit
  val deadline : t -> float option

  (** Cumulative payload bytes posted as (fill, fold, migrate); only
      wire traffic counts, direct sibling copies are free. *)
  val byte_counts : t -> float * float * float

  (** Fused ghost fill across the owned [views]: [scalars id] yields
      block [id]'s component list (must also resolve co-resident
      sibling ids).  Axes complete globally in x, y, z order.
      Collective. *)
  val fill_ghosts : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

  (** Fused ghost fold (currents, rho) across the owned [views].
      Collective. *)
  val fold_ghosts : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

  (** {2 Migration wire} (used by {!Migrate.exchange_blocks}) *)

  val migrate_staging :
    t -> dest:int -> axis:Vpic_grid.Axis.t -> dir:int -> len:int -> Comm.buf32

  val migrate_post :
    t -> dest:int -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.buf32 ->
    len:int -> unit

  val migrate_recv :
    t -> block:int -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.port
end
