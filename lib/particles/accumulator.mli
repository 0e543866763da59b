(** VPIC's current accumulator array: 12 float64 current components per
    voxel in one flat Bigarray — the 4 Jx + 4 Jy + 4 Jz targets of one
    Villasenor–Buneman deposition segment — so the particle walk's
    scatter writes one contiguous block per voxel instead of three
    strided J meshes.  It is the push's one scatter target: every push
    and every finished mover deposits here, and [unload] folds every
    interior voxel's block into [Em_field.jx/jy/jz] once per step (and
    zeroes it for the next step).

    Slots accumulate in f64: after [unload] the J meshes equal a
    segment-by-segment deposit straight into them up to floating
    addition reordering (the test suite keeps that deposit as the
    oracle). *)

type t

val slots_per_voxel : int
(** 12 *)

val bytes_per_voxel : float

val create : Vpic_grid.Grid.t -> t
(** zero-filled *)

val grid : t -> Vpic_grid.Grid.t

val data : t -> Vpic_grid.Scalar_field.data
(** the flat slot array, [slots_per_voxel] per voxel *)

val clear : t -> unit

(** [unload t f] adds every interior voxel's slots into [f]'s J meshes
    and zeroes them.  Call after migration completes (finished movers
    deposit into the accumulator too) and before the ghost-current
    fold. *)
val unload : ?perf:Vpic_util.Perf.counters -> t -> Vpic_field.Em_field.t -> unit

(** {1 Private per-tile slabs} (the team push's scatter targets)

    [slab t ~n ~tile] returns tile [tile]'s private accumulator out of
    [n] (created zero-filled on first use at count [n], cached on [t]):
    an ordinary accumulator on the same grid, handed to the push as
    [~accum] so each tile of the split interior push scatters with no
    write sharing.  [reduce t] then folds every slab into [t] (and
    zeroes the slabs) {e in ascending tile order at each slot}, so the
    summed currents are bitwise invariant in the worker count; call it
    before {!unload}.  [slab t ~n:1 ~tile:0] is [t] itself, so a 1-tile
    push creates no slabs; [reduce] is a no-op when no slabs were
    created; [pool] parallelises the fold over disjoint voxel ranges. *)

val slab : t -> n:int -> tile:int -> t

val reduce :
  ?pool:Vpic_util.Pool.t -> ?perf:Vpic_util.Perf.counters -> t -> unit
