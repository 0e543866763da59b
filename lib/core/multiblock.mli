(** The block world: the global grid is split into blocks
    ({!Vpic_grid.Block}; at least one per rank, more to over-decompose)
    and each rank steps the {e list} of blocks it currently owns.  Each block is an ordinary
    {!Simulation.t} whose coupler performs no communication — ghost
    fills/folds, mover migration and reductions are all driven from
    here, fused across the owned blocks and routed by the block
    ownership table through {!Vpic_parallel.Exchange}.

    A block's step does not depend on its owner (its particles load
    from streams salted by its block id, and the push draws from no
    stream), so trajectories are independent of ownership: the greedy
    rebalancer
    ({!Vpic_parallel.Rebalance}) can ship whole blocks between ranks
    mid-run — over the checkpoint wire image — without perturbing the
    physics.  Every rank watches the same allreduced per-block push-cost
    vector, so the plan is agreed without a broadcast.

    The owned blocks step through the one sequence every simulation
    uses, {!Simulation.step_world}, under this driver's routing.  A
    1-block world's faces are local ([Periodic] and the like, never
    [Domain]), so the block ports fill and fold them in f64 and it steps
    bitwise like the serial loop on a local coupler; [N] blocks on [N]
    ranks step bitwise like [N] one-domain [Coupler.parallel] ranks.
    That makes this the one world every [vpic_run srs] run and every
    campaign job steps: resume ({!resume}), the health sentinel
    ({!set_monitor}, installed by [Sentinel.attach]), current
    filtering, rebalance and recovery all work at any block and rank
    count. *)

module Bc = Vpic_grid.Bc
module Block = Vpic_grid.Block
module Comm = Vpic_parallel.Comm

type t

(** The coupler every block simulation must be built with: its [rank]
    is the block id (the world routes by it; ownership never changes
    it) and its
    fill/fold closures raise — the driver routes all traffic, filter
    passes included, for any block count. *)
val block_coupler : Block.t -> global_bc:Bc.t -> id:int -> Coupler.t

(** Collective (when [comm] is given; every rank, same arguments).
    [build ~id ~coupler ~perf] constructs block [id]'s simulation — it
    must use the supplied [coupler] (checked) and should pass [perf] to
    [Simulation.make] so flop counters aggregate per rank; it is called
    for each block the contiguous initial ownership assigns to this
    rank.  [reattach id sim] re-installs deck closures (laser antennas)
    on a simulation freshly decoded from a relocation payload.
    Rebalancing triggers every [rebalance_interval] steps (default 10)
    when the max/mean per-rank push cost exceeds
    [rebalance_threshold] (default 0 = never).  [cost_model] selects the
    per-block cost gauge: [`Wall] (default) measures wall seconds of each
    block's push (interior pass, boundary loads and boundary pass,
    [Simulation.t.push_s]); [`Particles] counts macro-particles pushed —
    deterministic, so plans reproduce across machines and stay sane when
    ranks timeshare few cores.
    [pool] is the rank's worker team (default
    {!Vpic_util.Pool.serial}): it is installed on every owned block
    simulation — including blocks received from a rebalance — so the
    whole rank's compute fans out over one team. *)
val create :
  ?comm:Comm.t ->
  ?pool:Vpic_util.Pool.t ->
  ?rebalance_interval:int ->
  ?rebalance_threshold:float ->
  ?cost_model:[ `Wall | `Particles ] ->
  ?reattach:(int -> Simulation.t -> unit) ->
  layout:Block.t ->
  global_bc:Bc.t ->
  build:(id:int -> coupler:Coupler.t -> perf:Vpic_util.Perf.counters -> Simulation.t) ->
  unit ->
  t

val nblocks : t -> int
val nstep : t -> int
val perf : t -> Vpic_util.Perf.counters

(** Current block → rank table (copy). *)
val owners : t -> int array

(** Owned blocks' simulations as [(block id, sim)], ascending id. *)
val owned_sims : t -> (int * Simulation.t) list

(** Advance one full step (collective): {!Simulation.step_world} over
    the owned blocks with fused block routing, then the per-block cost
    gauge.  Spans carry the classic step's names, so the Scoreboard
    aggregates over-decomposed runs unchanged.  Every
    [rebalance_interval]-th step publishes per-block
    ["push.cost.b<id>"] gauges and, when the threshold is exceeded,
    executes a collectively-agreed block relocation
    (["rebalance.migrations"] / ["rebalance.bytes"] counters).  The
    monitor ({!set_monitor}) runs last, once the step counter has
    advanced; it may raise to abort the run. *)
val step : t -> unit

(** Install (or, with [None], remove) the health hook {!step} runs after
    every completed step on every rank — [Sentinel.attach] installs its
    check here.  The hook may make collective calls: every rank runs it
    at the same step. *)
val set_monitor : t -> (t -> unit) option -> unit

val run : t -> steps:int -> ?every:int -> ?diag:(t -> unit) -> unit -> unit

(** Blocks this rank shipped out, cumulative. *)
val migrations : t -> int

(** Payload bytes of shipped blocks, cumulative (this rank). *)
val ship_bytes : t -> float

(** max/mean per-rank push cost seen at the last rebalance check. *)
val last_imbalance : t -> float

(** Last allreduced per-block push-cost window (seconds; all blocks,
    world values) — what {!Vpic_telemetry.Scoreboard.print_block_rollup}
    tabulates. *)
val block_costs : t -> float array

(** {1 Diagnostics} (reduced across ranks; collective) *)

val energies : t -> Simulation.energies
val total_particles : t -> int
val gauss_residual : t -> float
val settle_fields : t -> passes:int -> unit

(** The world's max-reduction over the ranks (the identity in a serial
    world) — how a rank-local verdict becomes a world verdict. *)
val reduce_max : t -> float -> float

(** The comm handle the world was created with (None in serial runs). *)
val comm : t -> Comm.t option

(** {1 Checkpointing} *)

(** Collective: {!Checkpoint.save_generation_blocks} over the owned
    blocks — committed by the lowest live rank, with the current
    ownership table recorded as the generation's [OWNERS] file. *)
val save_generation : t -> dir:string -> gen:int -> keep:int -> unit

(** Collective: resume from the run directory [dir].  Each rank
    checksum-verifies the files of the blocks it owns, the world agrees
    on the newest generation whose every file passed
    ({!Checkpoint.pick_latest_valid_gen}, falling back past corrupted
    ones) and every rank reloads its blocks from it under the current
    ownership ({!rollback_to}).  Returns the restored generation, or
    [None] (the world untouched) when [dir] holds no usable generation.
    Raises {!Checkpoint.Corrupt} when [dir]'s generations hold a
    different block count. *)
val resume : t -> dir:string -> int option

(** {1 Recovery}

    Collective over the {e surviving} ranks.  [rollback_to t ~dir ~gen
    ~owner] discards every in-memory block, forces the ownership table
    to [owner] (the agreed adoption plan over the shrunken world) and
    reloads this rank's share of generation [gen] from disk; worker
    teams and laser antennas are re-installed through the same
    [set_pool]/[reattach] hooks a rebalance arrival uses, and the step
    counter rewinds to the restored simulations'.  A block's step does
    not depend on its owner, so the resumed trajectory is identical to
    an uninterrupted run from that checkpoint, whoever adopted which
    block. *)
val rollback_to : t -> dir:string -> gen:int -> owner:int array -> unit
