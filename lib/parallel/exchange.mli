(** Ghost-plane exchange and the migration wire, over persistent ports,
    for a world of blocks.

    The global grid is split into blocks and an ownership table maps
    each block to the rank stepping it.  A classic run is the world
    where block [rank] of [nranks] lives on rank [rank]; an
    over-decomposed run owns several blocks per rank and may move them.
    Every rank registers the full [nblocks * 18] slot matrix up front —
    one receive slot per (block × purpose ∈ fill/fold/migrate × axis ×
    direction of travel) — so a message for block [b] is addressed to
    whichever rank owns [b] at that moment, with no re-registration when
    blocks move.  Steady-state fills, folds and migrations move bytes
    only through these preallocated Float32 rings.

    Planes span the full allocated extent (ghosts included) of the two
    transverse axes, and the three axes complete in order (x, y, z), so
    edge and corner ghosts travel correctly in two or three hops — the
    standard trick that avoids 26-neighbour messaging.

    A face whose neighbour block lives on the same rank is exchanged by
    a direct plane copy quantized through the same f32 format as the
    wire, so the stepped physics depends on the block decomposition
    only, never on where blocks live.  Non-[Domain] faces fall back to
    the local boundary handling of [Vpic_field.Boundary] in f64. *)

module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc

type t

(** An owned block's geometry as the router sees it: [bc] faces carry
    neighbour {e block} ids. *)
type view = { id : int; bc : Bc.t; g : Vpic_grid.Grid.t }

(** Collective when [comm] is given (every rank, same arguments).
    [owner] is the initial block -> rank table.  [plane b axis] is the
    initial ring capacity (floats) of one ghost plane of block [b]
    across [axis]; rings grow on demand, so a block this rank never owns
    may give 0.  Omit [comm] for a single-rank world (all faces must
    then be local). *)
val create :
  ?comm:Comm.t -> nblocks:int -> owner:int array ->
  plane:(int -> Vpic_grid.Axis.t -> int) -> unit -> t

val my_rank : t -> int
val owner_of : t -> int -> int

(** Install a new ownership table (after a collectively-agreed
    rebalance); drops cached send routes. *)
val set_owners : t -> int array -> unit

(** Cumulative payload bytes posted as (fill, fold, migrate); only wire
    traffic counts, co-resident copies are free. *)
val byte_counts : t -> float * float * float

(** {1 Ghost fill and fold}

    [scalars id] yields block [id]'s component list (at most 6 scalars);
    it must also resolve the ids of co-resident neighbour blocks.  Every
    call is collective across the ranks owning adjacent blocks. *)

(** First half of {!fill_ghosts}: posts every view's remote x planes and
    returns with the messages in flight.  Work that touches neither
    ghost voxels nor the fields' interior x faces may run before
    {!fill_finish} — the interior particle push overlaps here. *)
val fill_begin : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

(** Completes a {!fill_begin} (same arguments): x sibling copies,
    inbound planes and local faces, then y and z in full. *)
val fill_finish : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

(** {!fill_begin} followed by {!fill_finish}. *)
val fill_ghosts : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

(** Add ghost-plane accumulations (currents, rho) into the neighbouring
    block's interior (and fold locally on non-[Domain] faces), then zero
    the shipped ghost planes. *)
val fold_ghosts : t -> views:view list -> scalars:(int -> Sf.t list) -> unit

(** {1 Migration wire} (used by {!Migrate.exchange})

    [dir] is the direction of travel: 0 toward the lo neighbour, 1
    toward hi. *)

(** Staging buffer for movers bound for block [dest], grown to hold
    [len] floats. *)
val migrate_staging :
  t -> dest:int -> axis:Vpic_grid.Axis.t -> dir:int -> len:int -> Comm.buf32

(** Post the first [len] floats of a staging buffer to block [dest]. *)
val migrate_post :
  t -> dest:int -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.buf32 ->
  len:int -> unit

(** Own receive port for movers arriving at block [block]. *)
val migrate_recv :
  t -> block:int -> axis:Vpic_grid.Axis.t -> dir:int -> Comm.port

(** The push workspace arriving movers finish their walks in (see
    {!Vpic_particle.Push.finish_movers}), kept across steps. *)
val mover_work : t -> Vpic_particle.Push.Work.t
