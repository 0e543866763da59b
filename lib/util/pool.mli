(** Structural handle on a worker pool: the fork-join contract the
    compute kernels ([Push], [Sort], [Interpolator], [Marder], ...)
    program against without depending on the domain machinery that
    implements it ([Vpic_parallel.Team] — a layer above them).

    A pool runs a tile function over [0, tiles) and returns when every
    tile has completed, possibly executing tiles concurrently on
    different lanes.  Determinism contract: the tile decomposition is a
    function of [tiles] alone — {e never} of [lanes] — and kernels
    write per-tile outputs merged in ascending tile order, so results
    are bitwise identical for any lane count (including 1) at a fixed
    tile count.  Tiles of one region may run in any order on any lane;
    kernels must give each tile disjoint writes (private slabs, disjoint
    index ranges) and take no locks. *)

type t = {
  lanes : int;  (** concurrent executors, >= 1; lane 0 is the caller *)
  tiles : int;  (** the pool's preferred tile count for sized regions *)
  run : label:string -> tiles:int -> (lane:int -> tile:int -> unit) -> unit;
      (** [run ~label ~tiles f] calls [f ~lane ~tile] exactly once for
          each [tile] in [0, tiles), [lane] in [0, lanes), and returns
          after all complete.  [label] names the region for tracing
          hooks; exceptions raised by [f] re-raise at the join. *)
}

(** The degenerate in-line pool: 1 lane, 1 tile, [run] is a plain loop
    over the tiles on the caller.  A kernel tiling by [tiles] gives its
    one tile the whole range, so a [serial] region visits it in order,
    exactly as an untiled loop would. *)
val serial : t

(** Default tile count of sized pools (16): enough slack for dynamic
    scheduling over 8 lanes, few enough that per-tile slabs stay
    cheap. *)
val default_tiles : int

(** [split ~total ~tiles ~tile] = the half-open range [(lo, hi)] of
    tile [tile] in the contiguous decomposition of [0, total) into
    [tiles] chunks (remainder spread over the leading tiles; pure
    integer arithmetic, so the decomposition depends only on [total]
    and [tiles]).  Empty ranges ([lo = hi]) are valid. *)
val split : total:int -> tiles:int -> tile:int -> int * int

(** [chunk_start ~total ~tiles ~tile] is [fst (split ~total ~tiles
    ~tile)], unchecked, for any [tile] in [0, tiles] ([total] at
    [tiles]): tile [tile]'s range ends at [chunk_start] of [tile + 1].
    Two calls give a range without allocating a pair — for a kernel
    that must allocate nothing per tile. *)
val chunk_start : total:int -> tiles:int -> tile:int -> int
