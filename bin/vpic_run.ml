(* vpic_run: command-line deck runner.

     vpic_run langmuir    [--nx 32] [--ppc 64] [--steps 400]
     vpic_run two-stream  [--u0 0.1] [--ppc 256] [--t-end 12]
     vpic_run srs         [--a0 0.09] [--nr 0.1] [--te 2.5] [--nx 192]
                          [--ppc 32] [--steps N]
                          [--checkpoint-dir DIR] [--checkpoint-every N]
                          [--keep-generations K] [--resume auto]
                          [--sentinel-every N] [--sentinel-log FILE]
                          [--fault-kill-step N] [--fault-kill-rank R]
                          [--fault-seed S] [--recover auto]
                          [--max-recoveries K]
                          [--ranks N] [--blocks B] [--workers W]
                          [--rebalance-every N] [--rebalance-threshold X]
                          [--trace FILE] [--metrics FILE]
                          [--scoreboard-every N]
                          [--block-width W]
     vpic_run sweep       [--a0s 0.02,0.04,...] [--ppc 32] [--with-noise-run]
                          [--steps N] [--noise-floor R] [--json FILE]
                          [--campaign DIR] [--workers N]
     vpic_run campaign    submit|work|status|results [--dir DIR] [--json] ...
     vpic_run model       [--cus 17] [--particles 1e12] [--voxels 1.36e8]
*)

module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Sf = Vpic_grid.Scalar_field
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Loader = Vpic_particle.Loader
module Species = Vpic_particle.Species
module Particle = Vpic_particle.Particle
module Rng = Vpic_util.Rng
module Table = Vpic_util.Table
module Sentinel = Vpic.Sentinel
module Fault = Vpic_util.Fault
module Deck = Vpic_lpi.Deck
module Reflectivity = Vpic_lpi.Reflectivity
module Sweep = Vpic_lpi.Sweep
module Perf_model = Vpic_cell.Perf_model
module Roadrunner = Vpic_cell.Roadrunner
module Comm = Vpic_parallel.Comm
module Team = Vpic_parallel.Team
module Multiblock = Vpic.Multiblock
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics
module Scoreboard = Vpic_telemetry.Scoreboard
module Report = Vpic_telemetry.Report
module Json = Vpic_util.Json
module Campaign = Vpic_campaign.Service
module Campaign_spec = Vpic_campaign.Spec
module Campaign_queue = Vpic_campaign.Queue
module Campaign_store = Vpic_campaign.Store
open Cmdliner

(* ------------------------------------------------------------- langmuir *)

let run_langmuir nx ppc steps =
  let lx = 2. *. Float.pi in
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:0.5 ~dz:0.5 () in
  let grid = Grid.make ~nx ~ny:2 ~nz:2 ~lx ~ly:1. ~lz:1. ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 1) e ~ppc ~uth:1e-4 ());
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      Species.set e n { p with ux = p.Particle.ux +. (0.01 *. sin x) });
  let probe = ref [] in
  for _ = 1 to steps do
    Simulation.step sim;
    probe := Sf.get sim.Simulation.fields.Vpic_field.Em_field.ex 2 1 1 :: !probe
  done;
  let omega =
    Vpic_diag.Spectrum.zero_crossing_omega ~dt
      (Array.of_list (List.rev !probe))
  in
  Printf.printf "langmuir: omega = %.4f omega_pe (theory 1.0) after %d steps\n"
    omega steps

let langmuir_cmd =
  let nx =
    Arg.(value & opt int 32 & info [ "nx" ] ~doc:"Cells along x.")
  in
  let ppc = Arg.(value & opt int 64 & info [ "ppc" ] ~doc:"Particles per cell.") in
  let steps = Arg.(value & opt int 400 & info [ "steps" ] ~doc:"Steps to run.") in
  Cmd.v
    (Cmd.info "langmuir" ~doc:"Cold Langmuir oscillation (frequency check)")
    Term.(const run_langmuir $ nx $ ppc $ steps)

(* ----------------------------------------------------------- two-stream *)

let run_two_stream u0 ppc t_end =
  let k = sqrt (3. /. 8.) /. u0 in
  let nx = 64 in
  let lx = 2. *. Float.pi /. k in
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:0.5 ~dz:0.5 () in
  let grid = Grid.make ~nx ~ny:2 ~nz:2 ~lx ~ly:1. ~lz:1. ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ~sort_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.two_stream (Rng.of_int 9) e ~ppc ~u0 ~uth:1e-4 ());
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      let sign = if p.Particle.ux > 0. then 1. else -1. in
      Species.set e n
        { p with ux = p.Particle.ux +. (sign *. 2e-5 *. sin (k *. x)) });
  let fe () =
    fst (Vpic_field.Diagnostics.field_energy sim.Simulation.fields)
  in
  let steps = int_of_float (t_end /. dt) in
  let report = max 1 (steps / 20) in
  for step = 1 to steps do
    Simulation.step sim;
    if step mod report = 0 then
      Printf.printf "t=%6.2f  field E energy = %.4e\n" (Simulation.time sim)
        (fe ())
  done;
  Printf.printf "(theory: energy e-folds at 2 gamma = %.3f omega_pe)\n"
    (2. /. sqrt 8.)

let two_stream_cmd =
  let u0 = Arg.(value & opt float 0.1 & info [ "u0" ] ~doc:"Beam momentum / mc.") in
  let ppc = Arg.(value & opt int 256 & info [ "ppc" ] ~doc:"Particles per cell.") in
  let t_end =
    Arg.(value & opt float 12. & info [ "t-end" ] ~doc:"End time (1/omega_pe).")
  in
  Cmd.v
    (Cmd.info "two-stream" ~doc:"Two-stream instability deck")
    Term.(const run_two_stream $ u0 $ ppc $ t_end)

(* ------------------------------------------------------------------ srs *)

(* The rank's worker team ([--workers N]; 0 = the one-domain rank).
   Worker lanes arm their own trace buffers on spawn and wrap each
   region they join in a span, so Chrome-trace rows carry the worker id
   ([tid] = rank + 4096*worker).  [Trace.intern] memoises, so the
   per-region intern is a hashtable hit, not a growth. *)
let make_team ~rank ~workers =
  if workers <= 0 then None
  else
    Some
      (Team.create ~workers
         ~on_start:(fun ~lane -> Trace.enable_worker ~rank ~worker:lane ())
         ~on_span:(fun ~label f -> Trace.with_span (Trace.intern label) f)
         ())

(* Trace buffers are registered globally at [Trace.enable] and survive
   their domains, so the export happens once, after every rank joined. *)
let export_trace = function
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          if Filename.check_suffix path ".jsonl" then Trace.export_jsonl oc
          else Trace.export_chrome oc);
      Printf.printf "trace written to %s (%d spans, %d dropped)\n" path
        (Trace.total_entries ()) (Trace.dropped_entries ())

let allreduce op comm x = match comm with Some cm -> op cm x | None -> x

(* Sentinel violations go to stderr, or to [path] (one file per rank,
   [path.rankN], when there are several). *)
let sentinel_log ~rank ~nranks = function
  | None -> fun m -> Printf.eprintf "[sentinel] %s\n%!" m
  | Some path ->
      let oc =
        open_out
          (if nranks > 1 then Printf.sprintf "%s.rank%d" path rank else path)
      in
      at_exit (fun () -> close_out_noerr oc);
      fun m -> output_string oc (m ^ "\n"); flush oc

(* Every run is one world: [blocks] relocatable y-slabs (one per rank by
   default) spread over the ranks, resumed from the newest valid
   generation with [--resume auto], watched by the sentinel, rebalanced
   every [rebalance_every] steps when the max/mean push cost exceeds
   [rebalance_threshold], checkpointed per block and, with
   [recover_auto], stepped under the recovery supervisor. *)
let run_srs a0 nr te nx ny nz ppc steps ckpt_dir ckpt_every keep resume
    sentinel_every sentinel_log_file kill_step fault_seed ranks workers
    trace_file metrics_file scoreboard_every blocks rebalance_every
    rebalance_threshold cost_model y_skew kill_rank recover_auto
    max_recoveries block_width =
  let push_backend = Simulation.Host_block { width = block_width } in
  (* Fault injection is armed before anything else so even the first
     steps are covered; it is a no-op unless these flags are given. *)
  (match kill_step with
  | Some s ->
      Fault.enable ~seed:fault_seed;
      Fault.arm (Fault.Kill_rank { rank = kill_rank; step = s })
  | None -> ());
  if recover_auto then begin
    if ckpt_every <= 0 then
      invalid_arg
        "vpic_run: --recover auto requires --checkpoint-every > 0 (rollback \
         needs checkpoint generations)";
    if ranks <= 1 then
      invalid_arg "vpic_run: --recover auto requires --ranks >= 2"
  end;
  let blocks = if blocks <= 0 then ranks else blocks in
  if ranks > blocks then
    invalid_arg (Printf.sprintf "vpic_run: --blocks %d < --ranks %d" blocks ranks);
  let config =
    { Deck.default with a0; nr; te_kev = te; nx; ny; nz; ppc; y_skew }
  in
  (* Blocks cut y remainder-safely; widen the (quasi-1D) transverse box
     so every block keeps at least two cells. *)
  let config =
    if config.Deck.ny >= 2 * blocks then config
    else { config with Deck.ny = 2 * blocks }
  in
  let steps = Option.value steps ~default:(Deck.suggested_steps config) in
  (* The body runs once per rank ([Comm.run] when parallel); collective
     calls are kept on all ranks, prints on the live root only. *)
  let body comm =
    let rank, nranks =
      match comm with None -> (0, 1) | Some cm -> (Comm.rank cm, Comm.size cm)
    in
    let root = rank = 0 in
    Trace.enable ~rank ();
    Metrics.enable ();
    if Option.is_some comm then Metrics.install_comm_wait_observer ();
    let registry = Metrics.default () in
    let team = make_team ~rank ~workers in
    Fun.protect ~finally:(fun () -> Option.iter Team.shutdown team)
    @@ fun () ->
    let bs =
      Deck.build_over ?comm ?pool:(Option.map Team.pool team) ~push_backend
        ~rebalance_interval:rebalance_every ~rebalance_threshold ~cost_model
        ~blocks config
    in
    let mb = bs.Deck.mb in
    (if resume then
       match Multiblock.resume mb ~dir:ckpt_dir with
       | None when root ->
           Printf.printf
             "resume: no valid generation under %s, starting fresh\n%!" ckpt_dir
       | Some gen when root ->
           Printf.printf "resume: restored generation %d (step %d) from %s\n%!"
             gen (Multiblock.nstep mb) ckpt_dir
       | None | Some _ -> ());
    if sentinel_every > 0 then
      Sentinel.attach
        (Sentinel.make ~interval:sentinel_every
           ~log:(sentinel_log ~rank ~nranks sentinel_log_file)
           ())
        mb;
    let nparticles = Multiblock.total_particles mb in
    if root then
      Printf.printf
        "SRS deck: a0=%.3f nr=%.2f Te=%.1f keV, %d blocks on %d ranks, y-skew \
         %.2f, rebalance every %d @ threshold %.2f, %d particles, %d steps\n%!"
        a0 nr te blocks nranks y_skew rebalance_every rebalance_threshold
        nparticles steps;
    let reduce_sum = allreduce Comm.allreduce_sum comm in
    let board =
      Scoreboard.create
        ?worker_busy:(Option.map (fun tm () -> Team.busy_seconds tm) team)
        ~metrics:registry ~perf:(Multiblock.perf mb) ~nranks ~reduce_sum
        ~reduce_max:(allreduce Comm.allreduce_max comm) ()
    in
    (* The live root: lowest surviving rank.  Identical to [root] until
       a recovery shrinks the world; console prints and metrics lines
       follow it so a run that lost rank 0 still reports. *)
    let live_root () =
      match comm with Some cm -> rank = Comm.root cm | None -> root
    in
    (* Rank 0 creates (or truncates) the metrics file; a rank that
       becomes the live root later opens it for appending. *)
    let metrics_oc =
      ref (if root then Option.map open_out metrics_file else None)
    in
    let emit line =
      if live_root () then begin
        if Option.is_none !metrics_oc then
          metrics_oc :=
            Option.map
              (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644)
              metrics_file;
        Option.iter
          (fun oc -> output_string oc (line ^ "\n"); flush oc)
          !metrics_oc
      end
    in
    let snapshot () =
      match comm with
      | Some cm -> Metrics.reduce_comm cm registry
      | None -> Metrics.snapshot_local registry
    in
    let after_step step =
      Deck.sample_over bs;
      if scoreboard_every > 0 && step mod scoreboard_every = 0 then begin
        let s = Scoreboard.sample board ~step in
        let snap = snapshot () in
        if live_root () then Scoreboard.print s;
        emit (Scoreboard.sample_to_json s);
        emit (Metrics.snapshot_to_json ~step snap)
      end
    in
    (if recover_auto then
       ignore
         (Vpic.Recover.supervise ~max_recoveries
            ~after_step:(fun ~step -> after_step step)
            ~dir:ckpt_dir ~keep ~ckpt_every ~steps mb)
     else
       for step = Multiblock.nstep mb + 1 to steps do
         Multiblock.step mb;
         if ckpt_every > 0 && step mod ckpt_every = 0 then
           Multiblock.save_generation mb ~dir:ckpt_dir ~gen:step ~keep;
         after_step step
       done);
    let r =
      reduce_sum (Reflectivity.reflectivity bs.Deck.refl) /. float_of_int nranks
    in
    let totals = Scoreboard.totals board ~steps in
    let final_snap = snapshot () in
    let migrations = reduce_sum (float_of_int (Multiblock.migrations mb)) in
    let shipped = reduce_sum (Multiblock.ship_bytes mb) in
    let workload =
      let voxels =
        float_of_int (config.Deck.nx * config.Deck.ny * config.Deck.nz)
      in
      let sort_interval =
        match Multiblock.owned_sims mb with
        | (_, sim) :: _ -> sim.Simulation.sort_interval
        | [] -> 0
      in
      { Perf_model.particles = float_of_int nparticles;
        voxels;
        steps_per_sort = (if sort_interval > 0 then sort_interval else max_int);
        ppc_effective = float_of_int nparticles /. voxels }
    in
    let report =
      (* the block kernel's calibration, so predicted-vs-measured
         per-particle flop estimates compare like with like *)
      Report.make ~kernel:(`Block block_width) ~totals ~workload ()
    in
    let energy = (Multiblock.energies mb).Simulation.total in
    let hot, flat = Deck.trapping_over bs in
    if live_root () then begin
      Printf.printf "reflectivity = %.4e\n" r;
      Printf.printf "hot fraction (>3Te) = %.3e\n" hot;
      Printf.printf "f(v) flattening at v_phase = %.2f\n" flat;
      Scoreboard.print_block_rollup ~owners:(Multiblock.owners mb)
        ~costs:(Multiblock.block_costs mb) ~migrations ~shipped_bytes:shipped;
      Printf.printf "push imbalance (max/mean, last window) = %.3f\n"
        (Multiblock.last_imbalance mb);
      Scoreboard.print_totals totals;
      Report.print report;
      emit (Metrics.snapshot_to_json ~step:steps final_snap);
      emit (Report.to_json report);
      Option.iter close_out !metrics_oc;
      Printf.printf "final total energy = %.10e at step %d\n" energy
        (Multiblock.nstep mb)
    end
  in
  (if ranks <= 1 then body None
   else if not recover_auto then
     ignore (Comm.run ~ranks (fun cm -> body (Some cm)))
   else begin
     (* Self-healing run: rank deaths are expected, so per-rank outcomes
        come back as results.  One surviving rank means the world
        absorbed its losses — success.  All dead means the failure beat
        the recovery budget: re-raise the most meaningful exception
        (recoveries-exhausted preferred over the death it chased). *)
     let results = Comm.run_recoverable ~ranks (fun cm -> body (Some cm)) in
     if not (Array.exists Result.is_ok results) then
       let errors =
         List.filter_map (function Error e -> Some e | Ok _ -> None)
           (Array.to_list results)
       in
       let exhausted = function
         | Vpic.Recover.Recoveries_exhausted _ -> true
         | _ -> false
       in
       match (List.find_opt exhausted errors, errors) with
       | Some e, _ | None, e :: _ -> raise e
       | None, [] -> ()
   end);
  export_trace trace_file

(* Typed failures get a readable one-line report and a distinct exit
   code (2 = unusable checkpoint, 3 = injected fault, 4 = health abort,
   5 = recoveries exhausted) so the CI smoke jobs can tell them apart.
   A [Team.Worker_failed] wrapper is peeled off first: the worker's
   underlying failure decides the code. *)
let rec classify_failure = function
  | Team.Worker_failed { error; _ } -> classify_failure error
  | Checkpoint.Version_mismatch { path; found; expected } ->
      Printf.eprintf
        "vpic_run: %s is a format-%d checkpoint; this build reads format %d\n"
        path found expected;
      exit 2
  | Checkpoint.Corrupt { path; reason } ->
      Printf.eprintf "vpic_run: checkpoint %s is unusable: %s\n" path reason;
      exit 2
  | Fault.Injected_kill { rank; step } ->
      Printf.eprintf "vpic_run: fault injection killed rank %d at step %d\n"
        rank step;
      exit 3
  | Sentinel.Health_violation d ->
      Printf.eprintf "vpic_run: health sentinel abort: %s\n"
        (Sentinel.diagnosis_to_string d);
      exit 4
  | Vpic.Recover.Recoveries_exhausted { attempts; last } as e ->
      Printf.eprintf
        "vpic_run: recovery budget exhausted after %d recoveries (last \
         failure: %s)\n"
        attempts (Printexc.to_string last);
      exit (Option.value ~default:1 (Vpic.Recover.classify_exit e))
  | e -> raise e

let run_srs a0 nr te nx ny nz ppc steps ckpt_dir ckpt_every keep resume
    sentinel_every sentinel_log kill_step fault_seed ranks workers
    trace_file metrics_file scoreboard_every blocks rebalance_every
    rebalance_threshold cost_model y_skew kill_rank recover_auto
    max_recoveries block_width =
  try
    run_srs a0 nr te nx ny nz ppc steps ckpt_dir ckpt_every keep resume
      sentinel_every sentinel_log kill_step fault_seed ranks workers
      trace_file metrics_file scoreboard_every blocks rebalance_every
      rebalance_threshold cost_model y_skew kill_rank recover_auto
      max_recoveries block_width
  with e -> classify_failure e

let srs_cmd =
  let a0 = Arg.(value & opt float 0.09 & info [ "a0" ] ~doc:"Pump amplitude.") in
  let nr = Arg.(value & opt float 0.1 & info [ "nr" ] ~doc:"n_e / n_cr.") in
  let te = Arg.(value & opt float 2.5 & info [ "te" ] ~doc:"Te in keV.") in
  let nx = Arg.(value & opt int 192 & info [ "nx" ] ~doc:"Cells along x.") in
  let ny =
    Arg.(value & opt int Deck.default.Deck.ny
         & info [ "ny" ]
             ~doc:"Transverse cells along y (>= 3 gives the deck an \
                   interior region, so the overlapped interior push — and \
                   the block kernel — has particles to work on).")
  in
  let nz =
    Arg.(value & opt int Deck.default.Deck.nz
         & info [ "nz" ] ~doc:"Transverse cells along z.")
  in
  let ppc = Arg.(value & opt int 32 & info [ "ppc" ] ~doc:"Particles per cell.") in
  let steps =
    Arg.(value & opt (some int) None & info [ "steps" ] ~doc:"Override step count.")
  in
  let ckpt_dir =
    Arg.(value & opt string "srs.ckpt"
         & info [ "checkpoint-dir" ]
             ~doc:"Directory for periodic checkpoint generations.")
  in
  let ckpt_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ]
             ~doc:"Save a checkpoint generation (one file per block) \
                   every N steps (0 = off); --resume auto restarts from \
                   the newest valid one.")
  in
  let keep =
    Arg.(value & opt int 3
         & info [ "keep-generations" ]
             ~doc:"Checkpoint generations to retain.")
  in
  let resume =
    let modes = Arg.enum [ ("auto", true); ("off", false) ] in
    Arg.(value & opt modes false
         & info [ "resume" ]
             ~doc:"$(b,auto) resumes from the newest valid generation in \
                   --checkpoint-dir (falling back past corrupted ones); \
                   $(b,off) starts fresh.")
  in
  let sentinel_every =
    Arg.(value & opt int 0
         & info [ "sentinel-every" ]
             ~doc:"Run the numerical health sentinel every N steps (0 = off).")
  in
  let sentinel_log =
    Arg.(value & opt (some string) None
         & info [ "sentinel-log" ]
             ~doc:"Append sentinel violations to this file (default stderr).")
  in
  let kill_step =
    Arg.(value & opt (some int) None
         & info [ "fault-kill-step" ]
             ~doc:"Fault injection: kill the run during step N.")
  in
  let kill_rank =
    Arg.(value & opt int 0
         & info [ "fault-kill-rank" ]
             ~doc:"With --fault-kill-step: the rank to kill (default 0).")
  in
  let recover =
    let modes = Arg.enum [ ("auto", true); ("off", false) ] in
    Arg.(value & opt modes false
         & info [ "recover" ]
             ~doc:"$(b,auto): survive rank deaths by shrinking the world — \
                   survivors agree on the dead, roll back collectively to \
                   the newest valid checkpoint generation, adopt the \
                   orphaned blocks and resume (requires --ranks >= 2 and \
                   --checkpoint-every > 0).  $(b,off) (default): any rank \
                   death aborts the run.")
  in
  let max_recoveries =
    Arg.(value & opt int 3
         & info [ "max-recoveries" ]
             ~doc:"With --recover auto: recovery budget; one more death \
                   exits with code 5.")
  in
  let fault_seed =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~doc:"Fault injection RNG seed.")
  in
  let ranks =
    Arg.(value & opt int 1
         & info [ "ranks" ]
             ~doc:"Run the deck over N ranks (domains), each stepping the \
                   y-slab blocks it owns (--blocks; one per rank by \
                   default).")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ]
             ~doc:"Per-rank worker team size: each rank's compute phases \
                   (interior push, sort, interpolator load, clean, \
                   moments) fan out over N domains inside the rank, for \
                   every block the rank owns.  The tile decomposition is \
                   fixed, so stepped results are bitwise identical for \
                   any N >= 1.  0 (default) is the one-domain rank (legacy \
                   summation order).")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Write a trace of the step's phase spans to this file: \
                   Chrome trace-event JSON (one track per rank; open in \
                   chrome://tracing or Perfetto), or JSONL if the file \
                   ends in .jsonl.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics" ]
             ~doc:"Append rank-reduced scoreboard/metrics snapshots to \
                   this file, one JSON object per line.")
  in
  let scoreboard_every =
    Arg.(value & opt int 0
         & info [ "scoreboard-every" ]
             ~doc:"Print (and log, with --metrics) a performance \
                   scoreboard sample every N steps (0 = only the final \
                   rollup).")
  in
  let blocks =
    Arg.(value & opt int 0
         & info [ "blocks" ]
             ~doc:"Cut y into N relocatable y-slab blocks (must be >= \
                   --ranks; 0, the default, means one block per rank).  \
                   Every run is this one world: resume, the sentinel, \
                   checkpoints, rebalance and recovery work at any N.  \
                   The cut is remainder-safe (ny need not divide by N); \
                   ny is widened to 2N if smaller.  Per-block loading RNGs make \
                   results independent of the rank count and of any \
                   mid-run block relocation.")
  in
  let rebalance_every =
    Arg.(value & opt int 10
         & info [ "rebalance-every" ]
             ~doc:"Check per-block push-cost gauges and consider \
                   shipping blocks every N steps.")
  in
  let rebalance_threshold =
    Arg.(value & opt float 0.
         & info [ "rebalance-threshold" ]
             ~doc:"Rebalance when max/mean per-rank push cost exceeds \
                   this ratio (e.g. 1.2; 0 = never).")
  in
  let cost_model =
    let models = Arg.enum [ ("wall", `Wall); ("particles", `Particles) ] in
    Arg.(value & opt models `Wall
         & info [ "rebalance-cost" ]
             ~doc:"Per-block cost gauge for the rebalancer. $(b,wall) times \
                   the push; $(b,particles) counts macro-particles pushed \
                   (deterministic — use when ranks timeshare few cores).")
  in
  let y_skew =
    Arg.(value & opt float 0.
         & info [ "y-skew" ]
             ~doc:"Tilt the plasma density linearly along y: n *= 1 + \
                   s*(y/L - 1/2).  Creates a deliberate load imbalance \
                   for exercising --rebalance-threshold.")
  in
  let block_width =
    let widest = Vpic_particle.Push.max_block_width in
    let width =
      Arg.conv
        ( (fun s ->
            match Arg.conv_parser Arg.int s with
            | Ok w when w >= 1 && w <= widest -> Ok w
            | Ok w ->
                Error (`Msg (Printf.sprintf "%d is not in [1,%d]" w widest))
            | Error _ as e -> e),
          Arg.conv_printer Arg.int )
    in
    Arg.(value & opt width Vpic_particle.Push.default_block_width
         & info [ "block-width" ]
             ~doc:(Printf.sprintf
                     "Particles per block of the block-vectorized push \
                      kernel — fixed-width particle blocks against one \
                      cached 72-byte interpolator block per voxel, \
                      cell-crossers falling out to the face-crossing \
                      walk: 1 to %d (typically 4 or 8).  Stepped results \
                      are bitwise invariant in the width." widest))
  in
  Cmd.v
    (Cmd.info "srs" ~doc:"Laser-plasma SRS deck (one parameter-study point)")
    Term.(const run_srs $ a0 $ nr $ te $ nx $ ny $ nz $ ppc $ steps $ ckpt_dir
          $ ckpt_every $ keep $ resume $ sentinel_every $ sentinel_log
          $ kill_step $ fault_seed $ ranks $ workers $ trace_file
          $ metrics_file $ scoreboard_every $ blocks $ rebalance_every
          $ rebalance_threshold $ cost_model $ y_skew $ kill_rank $ recover
          $ max_recoveries $ block_width)

(* ---------------------------------------------------------------- sweep *)

let iso_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* The sweep artifact envelope ({"schema":"vpic-bench/1",...}), built
   on Vpic_util.Json. *)
let bench_json ~bench ~ranks results =
  Json.Obj
    [ ("schema", Json.Str "vpic-bench/1");
      ("bench", Json.Str bench);
      ( "meta",
        Json.Obj
          [ ("git", Json.Str (git_describe ()));
            ("date", Json.Str (iso_now ()));
            ("ranks", Json.Num (float_of_int ranks)) ] );
      ("results", Json.Obj results) ]

let write_json_file ~file json =
  let oc = open_out file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let sweep_point_json (p : Sweep.point) =
  Json.Obj
    [ ("a0", Json.Num p.Sweep.a0);
      ("intensity_w_cm2", Json.Num p.Sweep.intensity_w_cm2);
      ("gain_theory", Json.Num p.Sweep.gain_theory);
      ("r_theory", Json.Num p.Sweep.r_theory);
      ("r_measured", Json.Num p.Sweep.r_measured);
      ("r_noise", Json.Num p.Sweep.r_noise);
      ("r_peak", Json.Num p.Sweep.r_peak);
      ("hot_fraction", Json.Num p.Sweep.hot_fraction);
      ("flattening", Json.Num p.Sweep.flattening) ]

let campaign_stats_json (s : Campaign.stats) =
  Json.Obj
    [ ("completed", Json.Num (float_of_int s.Campaign.completed));
      ("failed", Json.Num (float_of_int s.Campaign.failed));
      ("exhausted", Json.Num (float_of_int s.Campaign.exhausted));
      ("retried", Json.Num (float_of_int s.Campaign.retried));
      ("cache_hits", Json.Num (float_of_int s.Campaign.cache_hits));
      ("sim_steps", Json.Num (float_of_int s.Campaign.sim_steps)) ]

let print_sweep_table points =
  let t =
    Table.create
      [ "a0"; "I(W/cm^2)"; "R seeded"; "R peak"; "R noise-seeded"; "R theory";
        "hot frac" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ Table.cell_f p.Sweep.a0;
          Printf.sprintf "%.2e" p.Sweep.intensity_w_cm2;
          Printf.sprintf "%.3e" p.Sweep.r_measured;
          Printf.sprintf "%.3e" p.Sweep.r_peak;
          Printf.sprintf "%.3e" p.Sweep.r_noise;
          Printf.sprintf "%.3e" p.Sweep.r_theory;
          Printf.sprintf "%.2e" p.Sweep.hot_fraction ])
    points;
  Table.print ~title:"reflectivity vs intensity" t

let run_sweep a0s ppc with_noise steps noise_floor json_file campaign_dir
    workers =
  let base = { Deck.default with ppc } in
  let points, stats =
    match campaign_dir with
    | None ->
        ( Sweep.reflectivity_vs_intensity ~base ?steps
            ~with_noise_run:with_noise ?noise_floor ~a0s (),
          None )
    | Some dir ->
        let q = Campaign_queue.create ~root:dir in
        let store = Campaign_store.open_ ~root:dir in
        let params = { Campaign.default_params with Campaign.workers } in
        let points, stats =
          Campaign.sweep ~params ~base ?steps ~with_noise_run:with_noise
            ?noise_floor ~a0s q store
        in
        (points, Some stats)
  in
  print_sweep_table points;
  (match stats with
  | None -> ()
  | Some s ->
      Printf.printf
        "campaign: %d completed, %d cache hits, %d retried, %d sim steps\n"
        s.Campaign.completed s.Campaign.cache_hits s.Campaign.retried
        s.Campaign.sim_steps);
  match json_file with
  | None -> ()
  | Some file ->
      let results =
        ("points", Json.Arr (List.map sweep_point_json points))
        ::
        (match stats with
        | None -> []
        | Some s -> [ ("campaign", campaign_stats_json s) ])
      in
      write_json_file ~file (bench_json ~bench:"sweep" ~ranks:1 results)

let sweep_cmd =
  let a0s =
    Arg.(value
         & opt (list float) Sweep.default_a0s
         & info [ "a0s" ] ~doc:"Comma-separated pump amplitudes.")
  in
  let ppc = Arg.(value & opt int 32 & info [ "ppc" ] ~doc:"Particles per cell.") in
  let sub =
    Arg.(value & flag
         & info [ "with-noise-run" ]
             ~doc:"Also run each point with the seed off (noise-seeded SRS). \
                   Up to doubles the sweep cost; points whose seeded run \
                   stays below the noise floor skip the second pass.")
  in
  let steps =
    Arg.(value & opt (some int) None
         & info [ "steps" ] ~doc:"Override the per-point step count.")
  in
  let noise_floor =
    Arg.(value & opt (some float) None
         & info [ "noise-floor" ]
             ~doc:"Reflectivity below which the seed-off noise run is \
                   skipped (default 5x the seed ratio; 0 forces the noise \
                   run everywhere).")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ]
             ~doc:"Write the sweep as a vpic-bench/1 JSON artifact.")
  in
  let campaign_dir =
    Arg.(value & opt (some string) None
         & info [ "campaign" ]
             ~doc:"Route the sweep through the campaign service rooted at \
                   this directory: points become content-hashed jobs, \
                   already-computed points are served from the results \
                   cache without simulating.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ]
             ~doc:"With --campaign: worker pool size (jobs run \
                   concurrently, one domain each).")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Reflectivity-vs-intensity parameter study (E3)")
    Term.(const run_sweep $ a0s $ ppc $ sub $ steps $ noise_floor $ json_file
          $ campaign_dir $ workers)

(* ------------------------------------------------------------- campaign *)

let campaign_open dir =
  let q = Campaign_queue.create ~root:dir in
  let store = Campaign_store.open_ ~root:dir in
  (q, store)

let run_campaign_submit dir a0s nrs seeds steps nr te nx ppc as_json =
  let base = { Deck.default with nr; te_kev = te; nx; ppc } in
  let q, store = campaign_open dir in
  let spec = Campaign_spec.make ~a0s ~nrs ~seeds ~steps ~base () in
  let r = Campaign.submit q store spec in
  if as_json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("jobs", Json.Num (float_of_int r.Campaign.jobs));
              ("submitted", Json.Num (float_of_int r.Campaign.submitted));
              ("reopened", Json.Num (float_of_int r.Campaign.reopened));
              ("in_flight", Json.Num (float_of_int r.Campaign.in_flight));
              ("precached", Json.Num (float_of_int r.Campaign.precached)) ]))
  else
    Printf.printf
      "campaign %s: %d jobs (%d submitted, %d reopened, %d in flight, %d \
       already cached)\n"
      dir r.Campaign.jobs r.Campaign.submitted r.Campaign.reopened
      r.Campaign.in_flight r.Campaign.precached

let run_campaign_work dir workers lease_s retry_budget ckpt_every keep
    sentinel_every kill_step fault_seed trace_file as_json =
  (match kill_step with
  | Some s ->
      Fault.enable ~seed:fault_seed;
      Fault.arm (Fault.Kill_rank { rank = 0; step = s })
  | None -> ());
  if trace_file <> None then Trace.enable ~rank:0 ();
  Metrics.enable ();
  let q, store = campaign_open dir in
  let params =
    { Campaign.workers;
      lease_s;
      retry_budget;
      checkpoint_every = ckpt_every;
      keep;
      sentinel_every;
      poll_s = Campaign.default_params.Campaign.poll_s }
  in
  let stats =
    try Campaign.work ~params q store with e -> classify_failure e
  in
  export_trace trace_file;
  if as_json then print_endline (Json.to_string (campaign_stats_json stats))
  else begin
    let (pending, leased, done_, failed), cached = Campaign.status q store in
    Printf.printf
      "campaign %s: %d completed, %d cache hits, %d retried, %d failed \
       attempts, %d exhausted, %d sim steps\n"
      dir stats.Campaign.completed stats.Campaign.cache_hits
      stats.Campaign.retried stats.Campaign.failed stats.Campaign.exhausted
      stats.Campaign.sim_steps;
    Printf.printf
      "queue: %d pending, %d leased, %d done, %d failed; %d results cached\n"
      pending leased done_ failed cached
  end

let run_campaign_status dir as_json =
  let q, store = campaign_open dir in
  let (pending, leased, done_, failed), cached = Campaign.status q store in
  if as_json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("pending", Json.Num (float_of_int pending));
              ("leased", Json.Num (float_of_int leased));
              ("done", Json.Num (float_of_int done_));
              ("failed", Json.Num (float_of_int failed));
              ("cached", Json.Num (float_of_int cached)) ]))
  else
    Printf.printf
      "campaign %s: %d pending, %d leased, %d done, %d failed; %d results \
       cached\n"
      dir pending leased done_ failed cached

let run_campaign_results dir as_json =
  let _q, store = campaign_open dir in
  let rows = Campaign_store.rows store in
  if as_json then
    print_endline
      (Json.to_string
         (Json.Arr (List.map Campaign_store.row_to_json rows)))
  else begin
    let t =
      Table.create
        [ "hash"; "a0"; "nr"; "seed"; "steps"; "R"; "R peak"; "hot frac";
          "elapsed s"; "resumed"; "worker" ]
    in
    List.iter
      (fun (r : Campaign_store.row) ->
        Table.add_row t
          [ String.sub r.Campaign_store.hash 0 12;
            Table.cell_f r.Campaign_store.a0;
            Table.cell_f r.Campaign_store.nr;
            string_of_int r.Campaign_store.seed;
            string_of_int r.Campaign_store.steps;
            Printf.sprintf "%.3e" r.Campaign_store.r_measured;
            Printf.sprintf "%.3e" r.Campaign_store.r_peak;
            Printf.sprintf "%.2e" r.Campaign_store.hot_fraction;
            Printf.sprintf "%.2f" r.Campaign_store.elapsed_s;
            string_of_int r.Campaign_store.resumed_gen;
            string_of_int r.Campaign_store.worker ])
      rows;
    Table.print ~title:(Printf.sprintf "campaign results (%s)" dir) t
  end

let campaign_cmd =
  let dir =
    Arg.(value & opt string "campaign"
         & info [ "dir" ] ~doc:"Campaign root directory.")
  in
  let as_json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit machine-readable JSON on stdout.")
  in
  let submit =
    let a0s =
      Arg.(value & opt (list float) []
           & info [ "a0s" ]
               ~doc:"Pump amplitudes (grid axis; empty = the base value).")
    in
    let nrs =
      Arg.(value & opt (list float) []
           & info [ "nrs" ] ~doc:"Densities n_e/n_cr (grid axis).")
    in
    let seeds =
      Arg.(value & opt (list int) []
           & info [ "seeds" ] ~doc:"RNG seeds (grid axis).")
    in
    let steps =
      Arg.(value & opt (list int) []
           & info [ "steps" ]
               ~doc:"Step counts (grid axis; empty = the deck's suggested \
                     count per point).")
    in
    let nr =
      Arg.(value & opt float Deck.default.Deck.nr
           & info [ "nr" ] ~doc:"Base density n_e/n_cr.")
    in
    let te =
      Arg.(value & opt float Deck.default.Deck.te_kev
           & info [ "te" ] ~doc:"Te in keV.")
    in
    let nx =
      Arg.(value & opt int Deck.default.Deck.nx
           & info [ "nx" ] ~doc:"Cells along x.")
    in
    let ppc =
      Arg.(value & opt int Deck.default.Deck.ppc
           & info [ "ppc" ] ~doc:"Particles per cell.")
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:"Expand a parameter grid into content-hashed jobs and enqueue \
               them (done/failed jobs are reopened; previously computed \
               results will be served from the cache).")
      Term.(const run_campaign_submit $ dir $ a0s $ nrs $ seeds $ steps $ nr
            $ te $ nx $ ppc $ as_json)
  in
  let work =
    let workers =
      Arg.(value & opt int 2
           & info [ "workers" ] ~doc:"Worker pool size (domains).")
    in
    let lease_s =
      Arg.(value & opt float 30.
           & info [ "lease-s" ]
               ~doc:"Lease duration in seconds; a dead worker's job is \
                     reclaimed this long after its last renewal.")
    in
    let retry_budget =
      Arg.(value & opt int 3
           & info [ "retry-budget" ]
               ~doc:"Leases granted per job before it lands in failed/.")
    in
    let ckpt_every =
      Arg.(value & opt int 25
           & info [ "checkpoint-every" ]
               ~doc:"Steps between per-job checkpoint generations (0 = \
                     never; retried jobs then restart from step 0).")
    in
    let keep =
      Arg.(value & opt int 2
           & info [ "keep-generations" ]
               ~doc:"Checkpoint generations retained per job.")
    in
    let sentinel_every =
      Arg.(value & opt int 50
           & info [ "sentinel-every" ]
               ~doc:"Numerical-health sentinel interval, steps (0 = off).")
    in
    let kill_step =
      Arg.(value & opt (some int) None
           & info [ "fault-kill-step" ]
               ~doc:"Fault injection: kill a worker during simulation step \
                     N of whichever job reaches it first (the whole pool \
                     aborts, simulating process death; held leases are \
                     left to expire).")
    in
    let fault_seed =
      Arg.(value & opt int 1
           & info [ "fault-seed" ] ~doc:"Fault injection RNG seed.")
    in
    let trace_file =
      Arg.(value & opt (some string) None
           & info [ "trace" ]
               ~doc:"Write per-job trace spans (Chrome trace JSON, or \
                     JSONL if the file ends in .jsonl).")
    in
    Cmd.v
      (Cmd.info "work"
         ~doc:"Run a worker pool until the queue drains: lease, simulate \
               (resuming from the newest valid checkpoint), append the \
               result, complete.  Expired leases are reclaimed and retried.")
      Term.(const run_campaign_work $ dir $ workers $ lease_s $ retry_budget
            $ ckpt_every $ keep $ sentinel_every $ kill_step $ fault_seed
            $ trace_file $ as_json)
  in
  let status =
    Cmd.v
      (Cmd.info "status" ~doc:"Queue state counts and cached-result count.")
      Term.(const run_campaign_status $ dir $ as_json)
  in
  let results =
    Cmd.v
      (Cmd.info "results" ~doc:"Dump the results store.")
      Term.(const run_campaign_results $ dir $ as_json)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Lease-based work queue + worker pool + content-hash-cached \
             results store for parameter studies.")
    [ submit; work; status; results ]

(* ---------------------------------------------------------------- model *)

let run_model cus particles voxels =
  let machine = Roadrunner.with_cus cus in
  let w =
    { Perf_model.paper_workload with particles; voxels;
      ppc_effective = particles /. voxels }
  in
  let b = Perf_model.model machine w Perf_model.default_calibration in
  Printf.printf "%s: %d nodes, peak %.3f Pflop/s s.p.\n"
    machine.Roadrunner.name machine.Roadrunner.nodes
    (Roadrunner.peak_sp_flops machine /. 1e15);
  Printf.printf "workload: %.3g particles on %.3g voxels\n" particles voxels;
  Printf.printf "  t_step      = %.4f s\n" b.Perf_model.t_step;
  Printf.printf "  sustained   = %.4f Pflop/s (%.1f%% of peak)\n"
    (b.Perf_model.sustained_flops /. 1e15)
    (100. *. b.Perf_model.efficiency_vs_peak);
  Printf.printf "  inner loop  = %.4f Pflop/s\n" (b.Perf_model.inner_flops /. 1e15);
  Printf.printf "  rate        = %.3g particle-steps/s\n" b.Perf_model.particle_rate

let model_cmd =
  let cus = Arg.(value & opt int 17 & info [ "cus" ] ~doc:"Connected units (1-17).") in
  let particles =
    Arg.(value & opt float 1e12 & info [ "particles" ] ~doc:"Total particles.")
  in
  let voxels =
    Arg.(value & opt float 1.36e8 & info [ "voxels" ] ~doc:"Total voxels.")
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Roadrunner performance model (E1/E2)")
    Term.(const run_model $ cus $ particles $ voxels)

let () =
  let doc = "VPIC reproduction: kinetic plasma simulation decks" in
  let info = Cmd.info "vpic_run" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ langmuir_cmd; two_stream_cmd; srs_cmd; sweep_cmd; campaign_cmd;
            model_cmd ]))
