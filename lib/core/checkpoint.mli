(** Durable checkpoint / restart.

    Serialises the full simulation state (step counter, every field
    component, every species) to a single file (format v11): a magic, a
    format version and three sections (meta, fields, species), each with
    its length and CRC-32.  The payloads are an explicit little-endian
    encoding, not [Marshal]:
    - meta: each field in turn — ints as int64, floats as IEEE-754 bits;
    - fields: per component a length-prefixed name, the voxel count and
      the float64 values, read straight from the field's bigarray;
    - species: per species its name, [q], [m] and [np], then the int32
      voxel indices and the seven float32 arrays — the store's first
      [np] elements, 32 bytes per particle as in memory.

    Checksums are verified {e before} any payload byte is interpreted,
    and every length and count is bounds-checked against the remaining
    bytes and the grid's voxel count, so a corrupted or truncated file is
    a typed {!Corrupt} error, never a crash.  Decoding writes straight
    into the stores and fields of a fresh simulation, so a restart is
    bitwise identical.  Writes are atomic: the bytes land under a
    temporary name and are renamed into place, so a crash mid-save never
    clobbers the previous checkpoint.  There is no generator state to
    save: the step draws from no stream (refluxing re-emission is a pure
    function of the crossing particle's bits, see {!Vpic_particle.Push}),
    so a resumed run is bitwise identical to an uninterrupted one.  An
    image of any other format version is a {!Version_mismatch}.

    Limitation (stated, not hidden): laser antennas are closures and are
    not saved — re-attach them after {!load}; the coupler is
    reconstructed by the caller (it embeds runtime handles).

    {1 Generations}

    A run directory holds the last [keep] checkpoint generations, one
    subdirectory per generation with one file per {e block}
    ([blk%05d.ckpt]), plus a [MANIFEST] (format
    [vpic-checkpoint-manifest 2]) recording the file count [nblocks]
    and the generations whose every file has landed.  A {!Multiblock}
    world writes one file per block ([Multiblock.save_generation]) and
    restores through [Multiblock.resume]; a lone simulation stepped
    directly (srsbench, the tests) is block [rank] of [nranks]
    ({!save_generation}).  The commit protocol — every rank saves its
    blocks atomically (with bounded retry), barrier, the root rewrites
    the manifest atomically and prunes old generations — guarantees the
    manifest never points at a partial generation.  Restores walk
    committed generations newest-first and take the first one whose
    every file passes checksum verification.  A manifest whose file
    count differs from the running world's, or whose header or fields do
    not parse, is {!Corrupt}. *)

val format_version : int

(** A checkpoint file failed structural or checksum validation. *)
exception Corrupt of { path : string; reason : string }

(** The file is a checkpoint, but from a different format version. *)
exception Version_mismatch of { path : string; found : int; expected : int }

(** {1 Wire image}

    The same encoding that lands on disk also travels over the comm
    layer when a live block relocates during a rebalance: {!encode} a
    simulation into bytes, ship them, {!decode} on the receiver. *)

(** Serialise to the full wire image (magic, version, checksummed
    sections), sized exactly and allocated once.  [block_id]/[nblocks]
    (default 0/1) stamp the over-decomposition identity into the meta
    section. *)
val encode : ?block_id:int -> ?nblocks:int -> Simulation.t -> bytes

(** Rebuild a simulation from a wire image.  [expect_block] cross-checks
    the encoded block id (raises {!Corrupt} on mismatch); [perf] shares
    the caller's flop counters with the rebuilt simulation. *)
val decode :
  ?expect_block:int ->
  ?perf:Vpic_util.Perf.counters ->
  coupler:Coupler.t ->
  bytes ->
  Simulation.t

(** {1 Single files} *)

(** Write one checkpoint file atomically (temp + rename).  In a
    multi-rank run each rank saves its own file. *)
val save : ?block_id:int -> ?nblocks:int -> Simulation.t -> string -> unit

(** Like {!save}, with bounded retry for transient I/O failures: up to
    {!save_attempts} tries, exponential backoff with seed-deterministic
    jitter (keyed on path and attempt number).  The temporary file is
    unlinked on every failed attempt.  [rank] feeds the
    [Fault.io_failure] injection probe. *)
val save_retrying :
  ?block_id:int -> ?nblocks:int -> rank:int -> Simulation.t -> string -> unit

val save_attempts : int

(** Restore.  [coupler] must describe the same topology/boundaries the
    checkpoint was taken with; the grid is rebuilt from the snapshot.
    Raises {!Corrupt} or {!Version_mismatch}. *)
val load : coupler:Coupler.t -> string -> Simulation.t

(** Checksum-verify a file without decoding it or building a
    simulation; [Error reason] on any structural, checksum, version or
    I/O problem. *)
val verify : string -> (unit, string) result

(** {1 Multi-generation run directories} *)

(** Block [block]'s file for generation [gen] under [dir]. *)
val block_path : dir:string -> gen:int -> block:int -> string

(** Classic rank [rank]'s file for generation [gen]: {!block_path} of
    block [rank]. *)
val generation_path : dir:string -> gen:int -> rank:int -> string

(** Rebuild one block from its checkpoint file (a {!decode} of the
    file's bytes — same arguments, same errors). *)
val load_block :
  ?expect_block:int ->
  ?perf:Vpic_util.Perf.counters ->
  coupler:Coupler.t ->
  string ->
  Simulation.t

(** Collective.  Each rank passes the blocks it owns as [(id, sim)] and
    writes their files through {!save_retrying}; after a [barrier]
    (which must be a world barrier) the [root] rank (default 0; a
    recovered world passes its lowest live rank) commits generation
    [gen] to the manifest and prunes all but the newest [keep]
    generations ([keep >= 1]), never the one a {!recovery} pins, then
    clears that pin.  [owners], when given, is the full block → rank
    table at save time, recorded next to the block files as the
    generation's [OWNERS] file (recovery's agreed pre-failure
    baseline). *)
val save_generation_blocks :
  ?root:int ->
  ?owners:int array ->
  dir:string ->
  gen:int ->
  keep:int ->
  rank:int ->
  nblocks:int ->
  barrier:(unit -> unit) ->
  owned:(int * Simulation.t) list ->
  unit ->
  unit

(** Collective.  Newest committed generation whose every block file
    passes checksum verification.  [mine] is this rank's verification
    slice of the block ids (callers partition [0..nblocks-1] so each
    file is checked exactly once world-wide); per-rank validity counts
    are summed with [reduce_sum] and all ranks take the same decision. *)
val pick_latest_valid_gen :
  dir:string ->
  nblocks:int ->
  mine:int list ->
  reduce_sum:(float -> float) ->
  int option

(** Generations the manifest lists as fully committed, ascending.
    Empty when [dir] has no manifest. *)
val committed_generations : dir:string -> int list

(** Collective: {!save_generation_blocks} of this rank's simulation as
    block [rank] of [nranks], over the coupler's barrier. *)
val save_generation : Simulation.t -> dir:string -> gen:int -> keep:int -> unit

(** {1 Recovery support}

    Shared-disk state the self-healing protocol reads and writes: the
    generation ownership table ([OWNERS], written at commit), per-block
    file sizes (the deterministic cost vector for block adoption), and
    the [RECOVERY] side manifest pinning an in-progress rollback's
    target generation against retention pruning. *)

(** Ownership recorded at [gen]'s commit; [None] if the generation has
    no [OWNERS] file (pre-recovery checkpoint layouts). *)
val read_gen_owners : dir:string -> gen:int -> nblocks:int -> int array option

(** Size in bytes of each block's file in [gen] (0 when missing) — the
    cost vector recovery feeds to the adoption planner. *)
val block_file_sizes : dir:string -> gen:int -> nblocks:int -> float array

(** The agreement record of an in-progress recovery: rollback target,
    the world epoch that decided it, and the casualty list. *)
type recovery = { rollback_gen : int; epoch : int; dead : int list }

(** Atomically record the agreement ([dir/RECOVERY]); written by the
    recovery root before survivors start reloading.  While present, the
    retention pruner never deletes [rollback_gen]. *)
val write_recovery_manifest : dir:string -> recovery -> unit

val read_recovery_manifest : dir:string -> recovery option

(** Remove the record; also done automatically by the next successful
    checkpoint commit. *)
val clear_recovery_manifest : dir:string -> unit
