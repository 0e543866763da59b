(** Self-healing runs: shrinking-world recovery.

    When a rank dies mid-run — an injected kill or an uncaught
    exception — the survivors run a coordinated recovery instead of
    aborting:

    + funnel into {!Vpic_parallel.Comm.recover}, the failure-detector
      barrier that agrees on the casualty list and opens a new message
      epoch (stale pre-rollback port traffic is discarded on receipt);
    + agree on the newest fully-valid checkpoint generation — checksum
      verification sliced over the live ranks, verdict allreduced;
    + re-plan block → rank ownership over the shrunken world with
      {!Vpic_parallel.Rebalance.adopt}, fed purely by shared on-disk
      data (the generation's [OWNERS] table and block file sizes), so
      no broadcast is needed and a death {e during} a rebalance — when
      the ranks' live ownership tables disagree — is still safe;
    + record the agreement in the [RECOVERY] manifest (pinning the
      generation against retention pruning), roll every survivor back
      with {!Multiblock.rollback_to} (orphaned blocks are adopted from
      their per-block images; teams and lasers re-attach through the
      rebalance hooks), and resume the step loop.

    A block's step does not depend on its owner, so the recovered
    trajectory matches an uninterrupted run from the same checkpoint to
    round-off.

    What is {e not} survivable: a rank's own death sentence (it must
    stand down), a world with no valid checkpoint generation, and — by
    construction — the loss of {e all} ranks. *)

module Comm = Vpic_parallel.Comm

(** The supervisor absorbed [attempts] deaths and then another
    recoverable failure arrived; [last] is that failure. *)
exception Recoveries_exhausted of { attempts : int; last : exn }

(** Recovery was entered but cannot proceed (serial world, or no valid
    checkpoint generation to roll back to). *)
exception Unrecoverable of string

(** Process exit code for {!Recoveries_exhausted} (5 — distinct from
    bad-checkpoint 2, injected-fault 3, health-abort 4). *)
val exit_recoveries_exhausted : int

(** [Some code] when [exn] should map to a dedicated process exit code. *)
val classify_exit : exn -> int option

(** Is this failure one the {e surviving} world can absorb?  True for a
    peer's {!Comm.Rank_failed} (raw or wrapped in
    {!Vpic_parallel.Team.Worker_failed}).  False for this rank's own
    death sentence. *)
val recoverable : Comm.t -> exn -> bool

type outcome = {
  rollback_gen : int;
  casualties : int list;  (** ranks lost in this round, sorted *)
  adopted : int;  (** orphaned blocks this rank adopted *)
  lost_steps : int;  (** steps rolled back (this rank's count) *)
}

(** Run the recovery protocol.  Collective over the survivors: every
    live rank must call it after catching a recoverable failure.
    Raises {!Unrecoverable} if there is nothing to roll back to. *)
val attempt : Multiblock.t -> dir:string -> outcome

(** [supervise ~dir ~keep ~ckpt_every ~steps mb] runs the step loop to
    [steps], checkpointing every [ckpt_every] steps ([> 0] — rollback
    needs checkpoints) and absorbing up to [max_recoveries] (default 3)
    rank deaths via {!attempt}; one more recoverable failure raises
    {!Recoveries_exhausted}.  [after_step ~step] is the driver's
    per-step tail (diagnostics, scoreboard, metrics emission); it runs
    on every live rank and its failures are recovered like the step's
    own.  Emits [recover.rollbacks] / [recover.adopted_blocks] /
    [recover.lost_steps] counters (pre-registered on every rank so the
    collective metric reduce sees one name set) and a scoreboard line
    per recovery.  Returns the number of recoveries performed. *)
val supervise :
  ?max_recoveries:int ->
  ?after_step:(step:int -> unit) ->
  dir:string ->
  keep:int ->
  ckpt_every:int ->
  steps:int ->
  Multiblock.t ->
  int
