(** In-place counting sort of a species by owning voxel.

    VPIC sorts particles periodically so that the gather/scatter of
    consecutive particles touches consecutive field memory — essential for
    the Cell SPE streaming in the paper and still a large cache win on
    conventional CPUs (benchmarked in bench/main.ml, experiment E5). *)

(** Sort ascending by flat voxel index.  O(np + tiles * nv) time.
    Stable within a voxel.  One counting sort serves every [pool]: a
    two-pass tiled sort — per-tile histograms over contiguous particle
    chunks, a serial voxel-major/tile-minor scan into per-tile write
    offsets, and a scatter to disjoint slots — whose output is the
    stable order for any tile or worker count; the default serial pool
    is its 1-tile case.  The workspace (a double-buffered attribute set
    and the per-tile histograms) lives on the species' store and is
    reused: after the first call, sorting a steady-state population
    allocates nothing. *)
val by_voxel :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  Species.t ->
  unit

(** True when the species is voxel-sorted (for tests/benches). *)
val is_sorted : Species.t -> bool

(** Fraction of consecutive particle pairs in the same or adjacent voxel —
    a locality score in [0,1] used by the E5 bench narrative. *)
val locality_score : Species.t -> float

(** [(max, mean)] particles per occupied voxel, counted over consecutive
    equal-voxel runs — exact on a sorted species (call after
    {!by_voxel}); published as telemetry gauges by the step loop to
    explain push-throughput swings (run length bounds how far the
    interpolator block cache amortises). *)
val occupancy : Species.t -> int * float
