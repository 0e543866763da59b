(* Self-healing runs: shrinking-world recovery.

   The contract under test: a rank death mid-run is absorbed, not fatal.
   Survivors agree on the casualty list, roll back to the newest valid
   checkpoint generation, adopt the dead ranks' blocks from their
   on-disk images and re-step — and because a block's step does not
   depend on its owner, the recovered trajectory matches an
   uninterrupted run to round-off.  The satellites ride along: bounded-retry checkpoint I/O,
   retention pruning that respects an in-progress recovery's pin, the
   recoveries-exhausted exit path, and the epoch stamp that keeps stale
   pre-rollback messages out of the recovered run. *)

module Bc = Vpic_grid.Bc
module Comm = Vpic_parallel.Comm
module Fault = Vpic_util.Fault
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Multiblock = Vpic.Multiblock
module Recover = Vpic.Recover
open Helpers

(* ------------------------------------------------------------ plumbing ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Fresh checkpoint directory; removed (and the fault registry disarmed,
   so no injection leaks into the next test) on the way out. *)
let with_temp_dir f =
  let dir = Filename.temp_file "vpic_recover" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () -> f dir)

(* Step a 2-rank 4-block world under the recovery supervisor and report
   (recoveries performed, final total energy, final step). *)
let supervised ?(blocks = 4) ?ppc_of ?rebalance_interval ?rebalance_threshold
    ?cost_model ~dir ~steps c =
  let mb =
    Suite_block.mk_world ~comm:c ~blocks ?ppc_of ?rebalance_interval
      ?rebalance_threshold ?cost_model ()
  in
  let n = Recover.supervise ~dir ~keep:4 ~ckpt_every:5 ~steps mb in
  (n, (Multiblock.energies mb).Simulation.total, Multiblock.nstep mb)

let check_survivor ~steps ~clean results =
  let clean_n, clean_e, clean_s = clean in
  Alcotest.(check int) "clean run needed no recovery" 0 clean_n;
  Alcotest.(check int) "clean run completed" steps clean_s;
  (match results.(1) with
  | Error (Fault.Injected_kill _) -> ()
  | Error e ->
      Alcotest.failf "rank 1 died of the wrong cause: %s"
        (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "rank 1 survived its own injected kill");
  match results.(0) with
  | Error e -> Alcotest.failf "survivor died: %s" (Printexc.to_string e)
  | Ok (n, e, s) ->
      Alcotest.(check int) "exactly one recovery" 1 n;
      Alcotest.(check int) "run completed" steps s;
      (* the acceptance bound: recovered == uninterrupted to 1e-8 *)
      check_close ~rtol:1e-8 "final energy matches the uninterrupted run"
        clean_e e

(* ------------------------------------------- kill, roll back, adopt ---- *)

(* Rank 1 is killed mid-step at step 13 of 25; rank 0 rolls back to the
   gen-10 checkpoint, adopts blocks 2 and 3, replays — and lands on the
   same final energy as the undisturbed 2-rank run. *)
let test_kill_and_recover () =
  with_temp_dir @@ fun clean_dir ->
  with_temp_dir @@ fun dir ->
  let steps = 25 in
  let clean =
    (Comm.run ~ranks:2 (fun c -> supervised ~dir:clean_dir ~steps c)).(0)
  in
  Fault.enable ~seed:11;
  Fault.arm (Fault.Kill_rank { rank = 1; step = 13 });
  let results =
    Comm.run_recoverable ~ranks:2 (fun c -> supervised ~dir ~steps c)
  in
  check_survivor ~steps ~clean results

(* Death in the middle of a rebalance move loop: ownership tables are
   divergent across ranks at the instant of death, which is exactly why
   recovery replans from the checkpoint generation's OWNERS table. *)
let test_die_during_rebalance () =
  with_temp_dir @@ fun clean_dir ->
  with_temp_dir @@ fun dir ->
  let steps = 20 in
  (* load skew forces a move at the first rebalance check (step 7 —
     after the gen-5 checkpoint exists to roll back to) *)
  let run ~dir c =
    supervised
      ~ppc_of:(fun id -> 4 + (6 * id))
      ~rebalance_interval:7 ~rebalance_threshold:1.01 ~cost_model:`Particles
      ~dir ~steps c
  in
  let clean = (Comm.run ~ranks:2 (fun c -> run ~dir:clean_dir c)).(0) in
  Fault.enable ~seed:3;
  Fault.arm (Fault.Kill_in_rebalance { rank = 1 });
  let results = Comm.run_recoverable ~ranks:2 (fun c -> run ~dir c) in
  check_survivor ~steps ~clean results

(* A source that dies between two of its own moves: blocks 4..7 (rank
   1's) carry ten times the load, so the plan ships two of them to rank
   0, and rank 1 dies right after the first.  Rank 0 may then close the
   second move's round alone; it must read the missing row as rank 1's
   death and recover, not decode an empty image. *)
let test_source_dies_between_moves () =
  with_temp_dir @@ fun clean_dir ->
  with_temp_dir @@ fun dir ->
  let steps = 20 in
  let run ~dir c =
    supervised ~blocks:8
      ~ppc_of:(fun id -> if id >= 4 then 20 else 2)
      ~rebalance_interval:7 ~rebalance_threshold:1.01 ~cost_model:`Particles
      ~dir ~steps c
  in
  let clean = (Comm.run ~ranks:2 (fun c -> run ~dir:clean_dir c)).(0) in
  Fault.enable ~seed:3;
  Fault.arm (Fault.Kill_in_rebalance { rank = 1 });
  let results = Comm.run_recoverable ~ranks:2 (fun c -> run ~dir c) in
  check_survivor ~steps ~clean results

(* Death between a rank's block writes and the commit barrier leaves a
   partially-written generation: block files on disk, no manifest entry.
   Recovery must roll back to the previous committed generation, and the
   next successful commit clears the RECOVERY manifest. *)
let test_die_during_checkpoint () =
  with_temp_dir @@ fun clean_dir ->
  with_temp_dir @@ fun dir ->
  let steps = 25 in
  let clean =
    (Comm.run ~ranks:2 (fun c -> supervised ~dir:clean_dir ~steps c)).(0)
  in
  Fault.enable ~seed:7;
  Fault.arm (Fault.Kill_in_checkpoint { rank = 1; gen = 10 });
  let results =
    Comm.run_recoverable ~ranks:2 (fun c -> supervised ~dir ~steps c)
  in
  check_survivor ~steps ~clean results;
  check_true "recovery manifest cleared by the next successful commit"
    (Checkpoint.read_recovery_manifest ~dir = None);
  check_true "the run re-committed past the failed generation"
    (List.mem steps (Checkpoint.committed_generations ~dir))

(* ------------------------------------------------- pruning + picking ---- *)

let tiny_sim () =
  let g = small_grid ~n:4 ~l:4. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic) ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 3) e ~ppc:2 ~uth:0.05 ());
  sim

let commit ~dir ~gen ~keep sim =
  Checkpoint.save_generation_blocks ~dir ~gen ~keep ~rank:0 ~nblocks:1
    ~barrier:(fun () -> ())
    ~owned:[ (0, sim) ]
    ()

(* Keep-K retention must never delete the generation an in-progress
   recovery has pinned, and generation picking must skip both
   partially-written (uncommitted) and corrupted generations. *)
let test_prune_guard_and_partial_gen () =
  with_temp_dir @@ fun dir ->
  let sim = tiny_sim () in
  List.iter (fun gen -> commit ~dir ~gen ~keep:2 sim) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "keep-2 window" [ 2; 3 ]
    (Checkpoint.committed_generations ~dir);
  (* a recovery is in progress, pinned to generation 2 *)
  let rec_manifest =
    { Checkpoint.rollback_gen = 2; epoch = 1; dead = [ 1 ] }
  in
  Checkpoint.write_recovery_manifest ~dir rec_manifest;
  check_true "recovery manifest round-trips"
    (Checkpoint.read_recovery_manifest ~dir = Some rec_manifest);
  (* keep-1 would normally drop everything but 4 — the pin must hold *)
  commit ~dir ~gen:4 ~keep:1 sim;
  Alcotest.(check (list int)) "pinned generation survives keep-1" [ 2; 4 ]
    (Checkpoint.committed_generations ~dir);
  check_true "pinned block file still on disk"
    (Sys.file_exists (Checkpoint.block_path ~dir ~gen:2 ~block:0));
  check_true "unpinned generation 3 was pruned"
    (not (Sys.file_exists (Checkpoint.block_path ~dir ~gen:3 ~block:0)));
  check_true "successful commit clears the recovery manifest"
    (Checkpoint.read_recovery_manifest ~dir = None);
  (* a partially-written generation: block file present, never committed
     to the manifest — picking must not see it *)
  let pick () =
    Checkpoint.pick_latest_valid_gen ~dir ~nblocks:1 ~mine:[ 0 ]
      ~reduce_sum:Fun.id
  in
  let partial = Checkpoint.block_path ~dir ~gen:9 ~block:0 in
  Unix.mkdir (Filename.dirname partial) 0o755;
  Checkpoint.save ~block_id:0 ~nblocks:1 sim partial;
  Alcotest.(check (option int)) "partial generation is skipped" (Some 4)
    (pick ());
  (* corrupt the newest committed generation: picking falls back *)
  let oc = open_out (Checkpoint.block_path ~dir ~gen:4 ~block:0) in
  output_string oc "not a checkpoint";
  close_out oc;
  Alcotest.(check (option int)) "corrupt generation falls back" (Some 2)
    (pick ())

(* ------------------------------------------------ bounded-retry I/O ---- *)

let test_save_retrying () =
  Alcotest.(check int) "three attempts" 3 Checkpoint.save_attempts;
  let sim = tiny_sim () in
  let path = Filename.temp_file "vpic_retry" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf path;
      rm_rf (path ^ ".tmp"))
  @@ fun () ->
  Fault.enable ~seed:1;
  (* two transient failures, then success on the third attempt *)
  Fault.arm
    (Fault.Fail_checkpoint_io
       { rank = 0; path_substring = Filename.basename path; times = 2 });
  Checkpoint.save_retrying ~rank:0 sim path;
  check_true "file verifies after retries" (Checkpoint.verify path = Ok ());
  check_true "no temp debris" (not (Sys.file_exists (path ^ ".tmp")));
  (* every attempt fails: the Sys_error propagates, nothing is left *)
  let path2 = Filename.temp_file "vpic_retry2" ".ckpt" in
  Sys.remove path2;
  Fault.arm
    (Fault.Fail_checkpoint_io
       { rank = 0; path_substring = Filename.basename path2; times = 3 });
  (match Checkpoint.save_retrying ~rank:0 sim path2 with
  | () -> Alcotest.fail "exhausted retries should raise"
  | exception Sys_error _ -> ());
  check_true "no temp debris after exhaustion"
    (not (Sys.file_exists (path2 ^ ".tmp")));
  check_true "no committed file after exhaustion"
    (not (Sys.file_exists path2))

(* ------------------------------------------------ recovery exhausted ---- *)

let test_recoveries_exhausted () =
  Alcotest.(check int) "dedicated exit code" 5
    Recover.exit_recoveries_exhausted;
  check_true "classify_exit maps the exception"
    (Recover.classify_exit
       (Recover.Recoveries_exhausted { attempts = 0; last = Not_found })
    = Some 5);
  check_true "classify_exit ignores other failures"
    (Recover.classify_exit Not_found = None);
  with_temp_dir @@ fun dir ->
  Fault.enable ~seed:5;
  Fault.arm (Fault.Kill_rank { rank = 1; step = 8 });
  let results =
    Comm.run_recoverable ~ranks:2 (fun c ->
        let mb = Suite_block.mk_world ~comm:c ~blocks:4 () in
        Recover.supervise ~max_recoveries:0 ~dir ~keep:2 ~ckpt_every:5
          ~steps:15 mb)
  in
  (match results.(0) with
  | Error (Recover.Recoveries_exhausted { attempts = 0; last }) ->
      check_true "last failure names the culprit"
        (match last with Comm.Rank_failed { rank = 1; _ } -> true | _ -> false)
  | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "survivor should have exhausted its budget");
  check_true "the killed rank is an Error too"
    (match results.(1) with Error _ -> true | Ok _ -> false)

let test_supervise_needs_checkpoints () =
  with_temp_dir @@ fun dir ->
  let mb = Suite_block.mk_world ~blocks:1 () in
  match Recover.supervise ~dir ~keep:1 ~ckpt_every:0 ~steps:1 mb with
  | _ -> Alcotest.fail "ckpt_every = 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------ epoch stamps ---- *)

(* A message committed before a recovery must not be delivered after
   it, even though a port delivers in commit order: rank 1 commits a
   stale payload to rank 0's port, rank 2 dies, the survivors recover
   (epoch bump), rank 1 commits again — and rank 0 must receive the
   fresh payload, the stale one silently discarded by its old epoch
   stamp. *)
let test_epoch_discards_stale_message () =
  (* Each survivor returns what it observed — its barrier outcome, the
     agreed casualty list, the new epoch and the payload — and the
     checks run after [Comm.run_recoverable], on the calling domain
     (Alcotest is not domain-safe). *)
  let post port v =
    let buf = Comm.port_reserve port ~len:1 in
    buf.{0} <- v;
    Comm.port_commit port ~len:1
  in
  let take port =
    let v = ref nan in
    Comm.port_wait port ~f:(fun buf _ -> v := buf.{0});
    !v
  in
  let results =
    Comm.run_recoverable ~ranks:3 (fun c ->
        (* one single-float inbound port per rank, slot 0 everywhere *)
        let slot = Comm.port_register c ~capacities:[| 1 |] in
        let port_of r = Comm.port c ~rank:r ~index:slot in
        let fail_then_recover () =
          (* Both survivors enter the barrier only once rank 2's death is
             recorded, which makes its outcome deterministic: the first
             arriver finds the quorum short and raises [Rank_failed]; the
             second makes the survivors' quorum, but the death is not
             recovered yet, so the round closes failed and it raises
             too. *)
          while Comm.alive c ~rank:2 do
            Unix.sleepf 1e-4
          done;
          let barrier_saw =
            match Comm.barrier c with
            | () -> None
            | exception Comm.Rank_failed { rank; _ } -> Some rank
          in
          let dead = Comm.recover c in
          (barrier_saw, dead, Comm.epoch c)
        in
        match Comm.rank c with
        | 1 ->
            (* stale payload first, then the go-signal that seals its
               happens-before relation to rank 2's death *)
            post (port_of 0) 1.;
            post (port_of 2) 0.;
            let seen = fail_then_recover () in
            post (port_of 0) 2.;
            Comm.barrier c;
            (seen, 0.)
        | 2 ->
            ignore (take (port_of 2));
            failwith "boom"
        | _ ->
            let seen = fail_then_recover () in
            let v = take (port_of 0) in
            Comm.barrier c;
            (seen, v))
  in
  let survivors =
    List.map
      (fun r ->
        match results.(r) with
        | Ok ((barrier_saw, dead, epoch), v) ->
            Alcotest.(check (list int)) "agreed casualty list" [ 2 ] dead;
            Alcotest.(check int) "epoch advanced" 1 epoch;
            (barrier_saw, v)
        | Error e ->
            Alcotest.failf "rank %d died: %s" r (Printexc.to_string e))
      [ 0; 1 ]
  in
  Alcotest.(check (list (option int)))
    "both survivors' barriers observe rank 2's death" [ Some 2; Some 2 ]
    (List.map fst survivors);
  check_close ~atol:0. ~rtol:0. "fresh payload, not the stale" 2.
    (snd (List.hd survivors));
  check_true "rank 2's death is its own Error"
    (match results.(2) with
    | Error (Failure m) -> m = "boom"
    | _ -> false)

let suite =
  [ slow_case "recover: killed rank rolled back, blocks adopted, energy intact"
      test_kill_and_recover;
    slow_case "recover: death mid-rebalance replans from the OWNERS table"
      test_die_during_rebalance;
    slow_case "recover: a source dying between its moves is recovered"
      test_source_dies_between_moves;
    slow_case "recover: death mid-checkpoint skips the partial generation"
      test_die_during_checkpoint;
    case "recover: retention honours the recovery pin, picking skips partials"
      test_prune_guard_and_partial_gen;
    case "recover: checkpoint writes retry with backoff, temp always unlinked"
      test_save_retrying;
    case "recover: exhausted budget maps to exit code 5"
      test_recoveries_exhausted;
    case "recover: supervise rejects a checkpoint-free configuration"
      test_supervise_needs_checkpoints;
    case "recover: epoch stamp discards a stale pre-recovery message"
      test_epoch_discards_stale_message ]
