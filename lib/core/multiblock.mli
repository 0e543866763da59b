(** Over-decomposition driver: the global grid is split into more blocks
    than ranks ({!Vpic_grid.Block}) and each rank steps the {e list} of
    blocks it currently owns.  Each block is an ordinary
    {!Simulation.t} whose coupler performs no communication — ghost
    fills/folds, mover migration and reductions are all driven from
    here, fused across the owned blocks and routed by the block
    ownership table through {!Vpic_parallel.Exchange.Blocks}.

    A block's push RNG is salted by its block id (not its rank), so
    trajectories are independent of ownership: the greedy rebalancer
    ({!Vpic_parallel.Rebalance}) can ship whole blocks between ranks
    mid-run — over the checkpoint wire image — without perturbing the
    physics.  Every rank watches the same allreduced per-block push-cost
    vector, so the plan is agreed without a broadcast.

    The owned blocks step through the one sequence every simulation
    uses, {!Simulation.step_world}, under this driver's routing.  A
    1-block world routes through its block's own local coupler, so it
    steps bitwise like the classic serial loop. *)

module Bc = Vpic_grid.Bc
module Block = Vpic_grid.Block
module Comm = Vpic_parallel.Comm

type t

(** The coupler every block simulation must be built with: its [rank]
    is the block id (RNG salts are ownership-independent) and its
    fill/fold closures raise — the driver routes all traffic. *)
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
val time : t -> float
val perf : t -> Vpic_util.Perf.counters

(** Current block → rank table (copy). *)
val owners : t -> int array

(** Owned blocks' simulations as [(block id, sim)], ascending id. *)
val owned_sims : t -> (int * Simulation.t) list

(** Advance one full step (collective): {!Simulation.step_world} over
    the owned blocks with fused block routing, then the per-block cost
    gauge.  Spans carry the classic step's names, so the Scoreboard
    aggregates over-decomposed runs unchanged.  Every
    [rebalance_interval]-th step ends by publishing per-block
    ["push.cost.b<id>"] gauges and, when the threshold is exceeded,
    executing a collectively-agreed block relocation
    (["rebalance.migrations"] / ["rebalance.bytes"] counters). *)
val step : t -> unit

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

(** Fill/fold/migrate/ship wire bytes posted by this rank. *)
val comm_bytes : t -> float

(** Force a rebalance check now (collective); returns the number of
    moves executed. *)
val rebalance_now : t -> int

(** {1 Diagnostics} (reduced across ranks; collective) *)

val energies : t -> Simulation.energies
val total_particles : t -> int
val gauss_residual : t -> float
val div_b_max : t -> float
val settle_fields : t -> passes:int -> unit

(** The comm handle the world was created with (None in serial runs). *)
val comm : t -> Comm.t option

(** {1 Checkpointing} *)

(** Collective: {!Checkpoint.save_generation_blocks} over the owned
    blocks — committed by the lowest live rank, with the current
    ownership table recorded as the generation's [OWNERS] file. *)
val save_generation : t -> dir:string -> gen:int -> keep:int -> unit

(** {1 Recovery}

    Collective over the {e surviving} ranks.  [rollback_to t ~dir ~gen
    ~owner] discards every in-memory block, forces the ownership table
    to [owner] (the agreed adoption plan over the shrunken world) and
    reloads this rank's share of generation [gen] from disk; worker
    teams and laser antennas are re-installed through the same
    [set_pool]/[reattach] hooks a rebalance arrival uses, and the step
    counter rewinds to the restored simulations'.  Block-id-salted RNGs
    make the resumed trajectory identical to an uninterrupted run from
    that checkpoint, whoever adopted which block. *)
val rollback_to : t -> dir:string -> gen:int -> owner:int array -> unit
