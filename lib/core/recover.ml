(* Self-healing runs: shrinking-world recovery.

   When a rank dies mid-run (injected kill or uncaught exception), the
   survivors do not abort: they funnel into [Comm.recover] (the
   failure-detector barrier), agree on the newest fully-valid checkpoint
   generation, re-plan block ownership over the shrunken rank set,
   adopt the dead ranks' blocks from their on-disk images, and resume
   the step loop.  Because a block's step does not depend on its owner
   (see [Multiblock]), the recovered trajectory equals an uninterrupted
   run from that checkpoint to round-off.

   Agreement without broadcast.  Every decision is a pure function of
   data all survivors share:
   - the casualty list comes out of [Comm.recover] (shared world state);
   - the rollback generation comes from the checkpoint manifest, with
     per-block checksum verification sliced [b mod nlive = live_index]
     so each file is checked exactly once and the verdict is allreduced;
   - the adoption plan is [Rebalance.adopt] over the generation's OWNERS
     table (ownership at save time — on shared disk, hence agreed even
     when a death mid-rebalance left the ranks' live tables divergent)
     with block checkpoint file sizes as the cost vector. *)

module Comm = Vpic_parallel.Comm
module Rebalance = Vpic_parallel.Rebalance
module Team = Vpic_parallel.Team
module Fault = Vpic_util.Fault
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics
module Scoreboard = Vpic_telemetry.Scoreboard

exception Recoveries_exhausted of { attempts : int; last : exn }
exception Unrecoverable of string

let () =
  Printexc.register_printer (function
    | Recoveries_exhausted { attempts; last } ->
        Some
          (Printf.sprintf "Recover.Recoveries_exhausted(%d attempts, last: %s)"
             attempts (Printexc.to_string last))
    | Unrecoverable reason -> Some ("Recover.Unrecoverable: " ^ reason)
    | _ -> None)

let sid_recover = Trace.intern "recover"

(* Exit codes 2..4 are taken (bad checkpoint / injected fault / health
   abort); recoveries exhausted gets its own so CI can tell "the run
   kept dying past the budget" from a plain injected kill. *)
let exit_recoveries_exhausted = 5

let classify_exit = function
  | Recoveries_exhausted _ -> Some exit_recoveries_exhausted
  | _ -> None

(* Can the *surviving* world absorb [e] and roll back?  A peer's death
   is recoverable.  Our own death sentence ([Injected_kill] on this
   rank, [Rank_failed] naming ourselves) is never absorbed — the rank
   must stand down so the survivors' quorum math holds. *)
let recoverable c e =
  let me = Comm.rank c in
  match e with
  | Comm.Rank_failed { rank; _ } -> rank <> me
  | Team.Worker_failed { error = Comm.Rank_failed { rank; _ }; _ } ->
      rank <> me
  | _ -> false

type outcome = {
  rollback_gen : int;
  casualties : int list;  (** ranks lost in this round, sorted *)
  adopted : int;  (** orphaned blocks this rank adopted *)
  lost_steps : int;  (** steps rolled back (this rank's count) *)
}

(* The recovery protocol.  Collective over the survivors: every live
   rank must arrive here (they all do — once the world is poisoned,
   every blocking operation raises, and the supervisor funnels each
   recoverable raise into this call). *)
let attempt mb ~dir =
  Trace.with_span sid_recover @@ fun () ->
  let c =
    match Multiblock.comm mb with
    | Some c -> c
    | None -> raise (Unrecoverable "serial world: no ranks to shrink")
  in
  let step_before = Multiblock.nstep mb in
  (* Failure-detector barrier: completes when every still-live rank has
     arrived; bumps the world epoch, so stale pre-rollback messages in
     ports are discarded on receipt. *)
  let casualties = Comm.recover c in
  let nblocks = Multiblock.nblocks mb in
  let live = Comm.live_ranks c in
  let nlive = List.length live in
  let my_index = List.length (List.filter (fun r -> r < Comm.rank c) live) in
  (* Phase 1: the rollback generation.  Verification work is sliced over
     the live ranks; the per-generation verdict is allreduced, so all
     survivors agree on the same (newest fully-checksummed) target. *)
  let mine =
    List.filter (fun b -> b mod nlive = my_index) (List.init nblocks Fun.id)
  in
  let gen =
    match
      Checkpoint.pick_latest_valid_gen ~dir ~nblocks ~mine
        ~reduce_sum:(Comm.allreduce_sum c)
    with
    | Some g -> g
    | None ->
        raise (Unrecoverable ("no valid checkpoint generation under " ^ dir))
  in
  (* Phase 2: the adoption plan, purely from shared disk.  OWNERS is the
     ownership at save time (absent only for pre-OWNERS layouts, where
     the initial contiguous table is the save-time table); file sizes
     stand in for push cost. *)
  let prev_owner =
    match Checkpoint.read_gen_owners ~dir ~gen ~nblocks with
    | Some o -> o
    | None -> Array.init nblocks (fun b -> b * Comm.size c / nblocks)
  in
  let alive = Array.init (Comm.size c) (fun r -> Comm.alive c ~rank:r) in
  let costs = Checkpoint.block_file_sizes ~dir ~gen ~nblocks in
  let owner = Rebalance.adopt ~costs ~prev_owner ~alive in
  (* The recovery root records the agreement before anyone reloads: the
     pinned generation is now safe from retention pruning, and a
     post-mortem can see what the world decided. *)
  if Comm.rank c = Comm.root c then
    Checkpoint.write_recovery_manifest ~dir
      { Checkpoint.rollback_gen = gen; epoch = Comm.epoch c; dead = casualties };
  Comm.barrier c;
  Multiblock.rollback_to mb ~dir ~gen ~owner;
  (* Every survivor is reloaded before any of them steps (a fast rank's
     first fill must not race a slow rank's reload). *)
  Comm.barrier c;
  let adopted =
    let n = ref 0 in
    Array.iteri
      (fun b r ->
        let p = prev_owner.(b) in
        let orphaned = p < 0 || p >= Array.length alive || not alive.(p) in
        if r = Comm.rank c && orphaned then incr n)
      owner;
    !n
  in
  { rollback_gen = gen;
    casualties;
    adopted;
    lost_steps = max 0 (step_before - gen) }

(* ----------------------------------------------------------- supervisor ---- *)

let register_metrics () =
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    Metrics.counter_add m "recover.rollbacks" 0.;
    Metrics.counter_add m "recover.adopted_blocks" 0.;
    Metrics.counter_add m "recover.lost_steps" 0.
  end

let record_metrics c (o : outcome) =
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    (* Root-only for the world-scalar counters, per-rank for adoption:
       the collective metric reduce sums across ranks, so the world
       totals come out right. *)
    if Comm.rank c = Comm.root c then begin
      Metrics.counter_add m "recover.rollbacks" 1.;
      Metrics.counter_add m "recover.lost_steps" (float_of_int o.lost_steps)
    end;
    Metrics.counter_add m "recover.adopted_blocks" (float_of_int o.adopted)
  end

(* Run the step loop to [steps], absorbing up to [max_recoveries] rank
   deaths.  [after_step] is the driver's per-step tail (diagnostic
   sampling, scoreboard, metrics emission) — it runs on every live rank
   and its failures are recovered like the step's own.  Checkpoint
   generations land every [ckpt_every] steps through the world's
   current lowest live rank.  Returns the number of recoveries
   performed. *)
let supervise ?(max_recoveries = 3) ?(after_step = fun ~step:_ -> ())
    ~dir ~keep ~ckpt_every ~steps mb =
  if ckpt_every <= 0 then
    invalid_arg "Recover.supervise: ckpt_every must be > 0 (rollback needs \
                 checkpoints)";
  register_metrics ();
  let recoveries = ref 0 in
  let rec loop () =
    if Multiblock.nstep mb < steps then begin
      (try
         Multiblock.step mb;
         let step = Multiblock.nstep mb in
         after_step ~step;
         if step mod ckpt_every = 0 then
           Multiblock.save_generation mb ~dir ~gen:step ~keep
       with e when (match Multiblock.comm mb with
                    | Some c -> recoverable c e
                    | None -> false) ->
         if !recoveries >= max_recoveries then
           raise (Recoveries_exhausted { attempts = !recoveries; last = e });
         incr recoveries;
         let o = attempt mb ~dir in
         let c = Option.get (Multiblock.comm mb) in
         record_metrics c o;
         let world_adopted =
           int_of_float (Comm.allreduce_sum c (float_of_int o.adopted))
         in
         if Comm.rank c = Comm.root c then
           Scoreboard.print_recovery ~step:(Multiblock.nstep mb)
             ~rollback_gen:o.rollback_gen ~casualties:o.casualties
             ~adopted:world_adopted ~lost_steps:o.lost_steps);
      loop ()
    end
  in
  loop ();
  !recoveries
