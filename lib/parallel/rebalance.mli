(** Scoreboard-driven dynamic load balancing over relocatable blocks.

    This module is the {e planner}: a pure, deterministic function from
    the allreduced per-block push-cost vector and the current ownership
    table to a greedy block → rank move list.  Every rank runs it on
    identical inputs (the costs come out of [Comm.allreduce_sum_array]),
    so the world agrees on the plan without a broadcast.  Executing the
    plan — serialising the moving blocks over the checkpoint wire format
    and rebuilding them on the receiver — is the core layer's job. *)

(** Per-rank load: sum of the costs of the blocks each rank owns. *)
val rank_loads : costs:float array -> owner:int array -> nranks:int -> float array

(** max/mean of a load vector (1.0 when degenerate). *)
val imbalance : float array -> float

type plan = {
  moves : (int * int) list;
      (** (block id, destination rank), to apply in order *)
  imbalance_before : float;
  imbalance_after : float;  (** predicted, from the cost model *)
}

(** Greedy rebalancing: while max/mean load exceeds [threshold], move
    the best-fitting block from the most- to the least-loaded rank.  A
    donor always keeps at least one block, and every move must strictly
    improve the donor pair, so the plan is finite and deterministic.
    Returns an empty move list when already balanced (or fewer than two
    live ranks).  [alive] (default all-true) restricts the plan to the
    surviving rank set: dead ranks are never donors or targets and
    their zero load is excluded from the imbalance verdict. *)
val plan :
  ?max_moves:int ->
  ?alive:bool array ->
  costs:float array ->
  owner:int array ->
  nranks:int ->
  threshold:float ->
  unit ->
  plan

(** {!imbalance} over the live entries of a load vector only. *)
val imbalance_live : alive:bool array -> float array -> float

(** [adopt ~costs ~prev_owner ~alive] re-plans ownership over a shrunken
    world after rank deaths: blocks whose previous owner is still alive
    stay put, orphaned blocks are adopted heaviest-first by the
    least-loaded live rank (deterministic tie-breaks).  Pure: every
    survivor computes the identical table from shared data (checkpoint
    file sizes as costs, the checkpoint generation's recorded ownership
    as [prev_owner]), so no broadcast is needed.  Dead ranks are never
    assigned blocks.  Raises if [alive] is all-false. *)
val adopt :
  costs:float array -> prev_owner:int array -> alive:bool array -> int array

(** {1 Block shipping wire}

    A relocating block travels as its checkpoint encoding, carried by
    one {!Comm.allgather} round: 2 payload bytes per float, byte length
    in slot 0.  Exact round-trip (all values are small non-negative
    integers). *)

val floats_of_bytes : bytes -> float array
val bytes_of_floats : float array -> bytes
