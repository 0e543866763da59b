(* The SRS benchmark: builds srs decks through [Deck.build] from a seed,
   steps them, checks their physics and prints one JSON result line.  It
   times calls into public functions only, from outside:

   - [--trace 0] times each [Simulation.step] (the end-to-end metrics);
   - [--trace 1] drives every step through [Simulation]'s phase API and
     the [Coupler] record in [step]'s order, with a timer around each
     call (the per-layer metrics), next to an untraced [Simulation.step]
     run of the same seed whose final energy it must reproduce bitwise.

   Usage:
     srsbench --workload NAME --seed N --seconds S --trace 0|1

   [srsbench/run.py] builds this executable, runs it and adds the peak
   RSS it measures on the child process. *)

module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Comm = Vpic_parallel.Comm
module Team = Vpic_parallel.Team
module Marder = Vpic_field.Marder
module Em_field = Vpic_field.Em_field
module Sf = Vpic_grid.Scalar_field
module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Sort = Vpic_particle.Sort
module Perf = Vpic_util.Perf
module Json = Vpic_util.Json
module Stats = Vpic_util.Stats

(* ------------------------------------------------------------ workloads *)

type workload = {
  name : string;
  config : Deck.config;  (** [rng_seed] is replaced by [--seed] *)
  ranks : int;           (** y-slabs, one [Comm] rank each *)
  workers : int;         (** [Team] lanes per rank; 0 = no team *)
  ckpt_every : int;      (** steps between checkpoint generations; 0 = none *)
  keep : int;            (** checkpoint generations retained *)
}

let backend = Simulation.Host_block { width = 8 }

(* Why each deck exists is recorded beside its name in BENCHMARK.json;
   srsbench/LAYERS.md maps each layer metric to the end-to-end metric
   and workload it should move. *)
let workloads =
  let d = Deck.default in
  [ (* push-bound: many particles per cell with real transverse extent,
       so the block kernel's interior lanes carry the step *)
    { name = "srs_push";
      config = { d with nx = 128; ny = 8; nz = 8; ppc = 12 };
      ranks = 1; workers = 0; ckpt_every = 0; keep = 0 };
    (* grid-bound: ~1 particle per cell over a wide y-z grid split across
       2 ranks, so per-voxel work, ghosts, comm waits and migration
       dominate *)
    { name = "srs_grid";
      config = { d with nx = 192; ny = 32; nz = 8; ppc = 1; vacuum = 7. };
      ranks = 2; workers = 0; ckpt_every = 0; keep = 0 };
    (* team-bound: a hotter plasma on a worker team, so the tiled team
       push, the 16-tile slab reduce and the scalar walk tail carry the
       step.  One lane: on a shared 2-vCPU host a second lane's domain
       waits on the other vCPU, and two sets of ten 2-lane runs spread by
       20-25% (particle_steps_per_s, step_s_p90), beyond the bounds.  A 1x1
       transverse box on 4x4 cells: cells as large as 8x8 cells on the
       default 2x2 box, so particles cross as often, with a quarter of the
       work per step, so a run holds more repeats. *)
    { name = "srs_team";
      config =
        { d with nx = 160; ny = 4; nz = 4; l_transverse = 1.; ppc = 16; te_kev = 20. };
      ranks = 1; workers = 1; ckpt_every = 0; keep = 0 };
    (* checkpoint-bound: a generation written every 5 steps, so saves
       are a fifth of the steps and set the p90 step time *)
    { name = "srs_checkpoint";
      config = { d with nx = 128; ny = 4; nz = 4; ppc = 16 };
      ranks = 1; workers = 0; ckpt_every = 5; keep = 2 } ]

(* Every repeat steps [warm_steps] untimed, then times [timed_steps]: a
   whole number of sort (25), Marder (50) and checkpoint (5) periods, so
   the timed steps sample the same mix of steps each time, and enough
   steps that their p90 has ten samples beyond it.  The warm steps hold
   the first sort, so the window starts on sorted particles rather than
   on the slower, noisier order the deck is loaded in.

   Every repeat of one seed does the same work, step for step (the run is
   deterministic), so step [i] of each repeat times the same computation.
   The step timings are each step's median over the repeats.  The host's
   speed changes from one moment to the next: short bursts run up to 1.5x
   faster than usual, and slow spells add time.  A step's fastest repeat
   depends on whether a burst happened to fall on it, which made the
   fastest-repeat statistic spread twice as much as the median across
   runs of [srs_push] and [srs_team] (srsbench/LAYERS.md). *)
let warm_steps = 25
let timed_steps = 100
let min_repeats = 5

(* Set-up lasts 3-75 ms, so a handful of samples leaves its median to
   page-fault and allocator noise: before each repeat an end-to-end run
   builds the deck [setups_per_repeat] more times, which spreads the
   set-up samples over the whole run. *)
let setups_per_repeat = 4

let () =
  List.iter
    (fun wl ->
      assert (wl.ckpt_every = 0 || timed_steps mod wl.ckpt_every = 0);
      assert (wl.config.Deck.filter_passes = 0))
    workloads

(* Correctness bounds, checked on every repeat outside the timed region.
   The pump and seed antennas inject energy, so the drift is taken
   beyond the most they can inject: each antenna's sheet current emits
   |E| <= e_a both ways, at most 2 e_a^2 per unit area and time.  A hot
   plasma loses charge into the absorbing walls, which the Gauss bound
   allows for.  Every repeat of one seed must also end on the same
   energy, bitwise: the rank and worker decompositions are deterministic
   by contract. *)
let max_energy_excess = 0.02
let max_energy_loss = 0.5
let max_gauss_residual = 5e-2
let ckpt_root = ".srsbench_tmp"

(* ------------------------------------------------------------ utilities *)

let median xs = Stats.percentile 50. xs

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A checkpoint directory of its own for each world, removed after it.
   [body dir] runs on the calling domain, before any rank starts. *)
let worlds = ref 0

let with_ckpt_dir body =
  incr worlds;
  mkdir_p ckpt_root;
  let dir =
    Filename.concat ckpt_root (Printf.sprintf "ckpt-%d-%d" (Unix.getpid ()) !worlds)
  in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> body dir)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One world per repeat: [ranks] [Comm] domains, or the calling domain.
   Returns the per-rank results. *)
let in_world wl body =
  if wl.ranks = 1 then [| body None |] else Comm.run ~ranks:wl.ranks (fun cm -> body (Some cm))

(* ---------------------------------------------------------------- setup *)

type built = {
  sim : Simulation.t;
  team : Team.t option;
  setup_s : float;  (** team creation + [Deck.build], barrier to barrier *)
  team_s : float;
  build_s : float;
}

let build wl ~seed comm =
  let sync () = Option.iter Comm.barrier comm in
  sync ();
  let t0 = Perf.now () in
  let team =
    if wl.workers > 0 then Some (Team.create ~workers:wl.workers ()) else None
  in
  let t1 = Perf.now () in
  let setup =
    Deck.build ?comm ~push_backend:backend { wl.config with Deck.rng_seed = seed }
  in
  let sim = setup.Deck.sim in
  Option.iter (fun tm -> Simulation.set_pool sim (Team.pool tm)) team;
  sync ();
  let t2 = Perf.now () in
  { sim; team; setup_s = t2 -. t0; team_s = t1 -. t0; build_s = t2 -. t1 }

let with_built wl ~seed comm f =
  let b = build wl ~seed comm in
  Fun.protect ~finally:(fun () -> Option.iter Team.shutdown b.team) (fun () -> f b)

let save_due wl (sim : Simulation.t) =
  wl.ckpt_every > 0 && sim.Simulation.nstep mod wl.ckpt_every = 0

let save wl ~dir (sim : Simulation.t) =
  Checkpoint.save_generation sim ~dir ~gen:sim.Simulation.nstep ~keep:wl.keep

(* ---------------------------------------------------------- correctness *)

(* Collective.  Finite fields and momenta (a NaN or Inf anywhere makes the
   interior field sums or the kinetic energy non-finite), bounded energy
   drift over the window (see [max_energy_excess]), bounded Gauss
   residual.  On checkpointing
   workloads: the newest generation verifies, and a reload of it steps to
   the same energy as the live run.  Returns the failures, if any. *)
let check wl (sim : Simulation.t) ~dir ~e0 =
  let c = sim.Simulation.coupler in
  let finite =
    List.for_all
      (fun f -> Float.is_finite (Sf.sum_sq_interior f))
      (Em_field.em_components sim.Simulation.fields)
    && List.for_all
         (fun s -> Float.is_finite (Species.kinetic_energy s))
         (Simulation.species sim)
  in
  let finite = c.Coupler.reduce_max (if finite then 0. else 1.) = 0. in
  let e1 = (Simulation.energies sim).Simulation.total in
  let cfg = wl.config in
  let g = sim.Simulation.grid in
  let injected =
    2. *. (Deck.e0_of cfg ** 2.) *. (1. +. cfg.Deck.r_seed)
    *. (cfg.Deck.l_transverse ** 2.)
    *. float_of_int timed_steps *. g.Vpic_grid.Grid.dt
  in
  let drift = (e1 -. e0 -. injected) /. e0 in
  let gauss = Simulation.gauss_residual sim in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  if not finite then fail "non-finite field or momentum";
  if not (drift <= max_energy_excess) then
    fail "energy rose %.3e of E0 beyond the antenna input" drift;
  if not (e1 >= (1. -. max_energy_loss) *. e0) then
    fail "energy fell from %.6e to %.6e" e0 e1;
  if not (gauss <= max_gauss_residual) then
    fail "Gauss residual %.3e > %.0e" gauss max_gauss_residual;
  if wl.ckpt_every > 0 then begin
    match List.rev (Checkpoint.committed_generations ~dir) with
    | [] -> fail "no committed checkpoint generation"
    | gen :: _ -> (
        let path = Checkpoint.generation_path ~dir ~gen ~rank:c.Coupler.rank in
        match Checkpoint.verify path with
        | Error e -> fail "generation %d fails verify: %s" gen e
        | Ok () when gen <> sim.Simulation.nstep ->
            fail "newest generation %d is not step %d" gen sim.Simulation.nstep
        | Ok () ->
            let re = Checkpoint.load ~coupler:c path in
            List.iter (Simulation.add_laser re) (Simulation.lasers sim);
            Simulation.set_push_backend re backend;
            Simulation.set_pool re (Simulation.pool sim);
            for _ = 1 to 5 do
              Simulation.step sim;
              Simulation.step re
            done;
            let a = (Simulation.energies sim).Simulation.total in
            let b = (Simulation.energies re).Simulation.total in
            if not (bits_equal a b) then
              fail "reloaded generation %d steps to energy %.17g, live run %.17g"
                gen b a)
  end;
  (!fails, drift, gauss)

(* ------------------------------------------------------- untraced repeat *)

type plain = {
  p_setup_s : float;
  p_wall : float;          (** timed wall, barrier to barrier *)
  p_times : float array;   (** per-step wall (step + any checkpoint save) *)
  p_psteps : float array;  (** per-step particle-steps, all ranks *)
  p_energy : float;        (** total energy at the end of the window *)
  p_fails : string list;
  p_drift : float;
  p_gauss : float;
}

let run_plain wl ~seed ~dir comm =
  with_built wl ~seed comm @@ fun b ->
  let sim = b.sim in
  let c = sim.Simulation.coupler in
  let loop_step () =
    Simulation.step sim;
    if save_due wl sim then save wl ~dir sim
  in
  for _ = 1 to warm_steps do loop_step () done;
  let e0 = (Simulation.energies sim).Simulation.total in
  let perf = sim.Simulation.perf in
  let times = Array.make timed_steps 0. and psteps = Array.make timed_steps 0. in
  c.Coupler.barrier ();
  let t0 = Perf.now () in
  for i = 0 to timed_steps - 1 do
    let s = Perf.now () and ps = perf.Perf.particle_steps in
    loop_step ();
    times.(i) <- Perf.now () -. s;
    psteps.(i) <- perf.Perf.particle_steps -. ps
  done;
  c.Coupler.barrier ();
  let wall = Perf.now () -. t0 in
  let psteps = Array.map c.Coupler.reduce_sum psteps in
  let energy = (Simulation.energies sim).Simulation.total in
  let fails, drift, gauss = check wl sim ~dir ~e0 in
  { p_setup_s = b.setup_s; p_wall = wall; p_times = times; p_psteps = psteps;
    p_energy = energy; p_fails = fails; p_drift = drift; p_gauss = gauss }

(* --------------------------------------------------------- traced repeat *)

(* Layers, named after the modules whose public calls they time. *)
let layer_names =
  [| "push.interior"; "push.boundary"; "interp.load"; "accum.unload"; "field";
     "exchange.fill"; "exchange.fold"; "migrate"; "laser"; "sort"; "clean";
     "checkpoint" |]

let l_push_interior = 0
let l_push_boundary = 1
let l_interp = 2
let l_unload = 3
let l_field = 4
let l_fill = 5
let l_fold = 6
let l_migrate = 7
let l_laser = 8
let l_sort = 9
let l_clean = 10
let l_ckpt = 11

type ledger = {
  secs : float array;
  calls : int array;
  flops : float array;   (** Perf ledger flops charged inside each layer *)
  bytes : float array;   (** Perf ledger bytes (computed, not measured) *)
  mutable movers : int;
  mutable locality : float;  (** summed pre-sort locality scores *)
  mutable localities : int;
  mutable ckpt_bytes : float;
  mutable wait_s : float;
  mutable waits : int;
}

let new_ledger () =
  let n = Array.length layer_names in
  { secs = Array.make n 0.; calls = Array.make n 0; flops = Array.make n 0.;
    bytes = Array.make n 0.; movers = 0; locality = 0.; localities = 0;
    ckpt_bytes = 0.; wait_s = 0.; waits = 0 }

let timed lg (perf : Perf.counters) l f =
  let f0 = perf.Perf.flops and b0 = perf.Perf.bytes_moved in
  let t0 = Perf.now () in
  let r = f () in
  lg.secs.(l) <- lg.secs.(l) +. (Perf.now () -. t0);
  lg.calls.(l) <- lg.calls.(l) + 1;
  lg.flops.(l) <- lg.flops.(l) +. (perf.Perf.flops -. f0);
  lg.bytes.(l) <- lg.bytes.(l) +. (perf.Perf.bytes_moved -. b0);
  r

(* [Simulation.step] as the phase sequence simulation.mli promises
   reproduces it exactly, each call timed into [lg].  [interp.load]
   includes the current clear done by [phase_clear_and_load]. *)
let traced_step lg (sim : Simulation.t) =
  let c = sim.Simulation.coupler and f = sim.Simulation.fields in
  let t l g = timed lg sim.Simulation.perf l g in
  let accum = Option.map snd sim.Simulation.interp_accum in
  t l_fill (fun () -> c.Coupler.fill_em_begin f);
  let sc = t l_interp (fun () -> Simulation.phase_clear_and_load sim) in
  t l_push_interior (fun () -> Simulation.phase_push_interior sim sc);
  t l_fill (fun () -> c.Coupler.fill_em_finish f);
  t l_interp (fun () -> Simulation.phase_load_boundary sim);
  t l_push_boundary (fun () -> Simulation.phase_push_boundary sim sc);
  t l_laser (fun () -> Simulation.phase_lasers sim);
  List.iter
    (fun (_, (s : Simulation.push_scratch)) ->
      lg.movers <- lg.movers + Push.Movers.count s.Simulation.movers)
    sc;
  t l_migrate (fun () ->
      List.iter
        (fun (sp, (s : Simulation.push_scratch)) ->
          c.Coupler.migrate ?accum sp f s.Simulation.movers)
        sc);
  t l_unload (fun () -> Simulation.phase_unload_accum sim);
  t l_fold (fun () -> c.Coupler.fold_currents f);
  t l_field (fun () -> Simulation.phase_advance_b sim ~frac:0.5);
  t l_fill (fun () -> c.Coupler.fill_em f);
  t l_field (fun () -> Simulation.phase_advance_e sim);
  if Simulation.interval_due sim sim.Simulation.clean_div_interval then
    t l_clean (fun () ->
        Simulation.deposit_rho sim;
        ignore
          (Marder.clean ~perf:sim.Simulation.perf ~pool:(Simulation.pool sim)
             ~passes:sim.Simulation.marder_passes
             ~hooks:(Coupler.marder_hooks c f) f));
  t l_fill (fun () -> c.Coupler.fill_em f);
  t l_field (fun () ->
      Simulation.phase_advance_b sim ~frac:0.5;
      Simulation.phase_absorb sim);
  if Simulation.interval_due sim sim.Simulation.sort_interval then begin
    List.iter
      (fun s ->
        lg.locality <- lg.locality +. Sort.locality_score s;
        lg.localities <- lg.localities + 1)
      (Simulation.species sim);
    t l_sort (fun () -> Simulation.phase_sort sim)
  end;
  sim.Simulation.nstep <- sim.Simulation.nstep + 1

type traced = {
  t_metrics : (string * string * float) list;  (** name, unit, value *)
  t_wall : float;
  t_energy : float;
  t_fails : string list;
}

let run_traced wl ~seed ~stream_gbs ~dir comm =
  with_built wl ~seed comm @@ fun b ->
  let sim = b.sim in
  let c = sim.Simulation.coupler and perf = sim.Simulation.perf in
  assert (sim.Simulation.smoothed = None);
  let loop_step lg =
    traced_step lg sim;
    if save_due wl sim then begin
      timed lg perf l_ckpt (fun () -> save wl ~dir sim);
      let path =
        Checkpoint.generation_path ~dir ~gen:sim.Simulation.nstep ~rank:c.Coupler.rank
      in
      lg.ckpt_bytes <- lg.ckpt_bytes +. float_of_int (Unix.stat path).Unix.st_size
    end
  in
  let warm = new_ledger () in
  for _ = 1 to warm_steps do loop_step warm done;
  let e0 = (Simulation.energies sim).Simulation.total in
  let lg = new_ledger () in
  let ps0 = perf.Perf.particle_steps and vox0 = perf.Perf.voxel_updates in
  let st0 = sim.Simulation.push_stats in
  let bytes0 = c.Coupler.comm_bytes () in
  let busy0 = Option.map Team.busy_seconds b.team in
  Comm.set_wait_observer
    (Some
       { Comm.on_wait =
           (fun ~port:_ ~seconds ->
             lg.wait_s <- lg.wait_s +. seconds;
             lg.waits <- lg.waits + 1);
         on_timeout = (fun ~port:_ -> ()) });
  c.Coupler.barrier ();
  let t0 = Perf.now () in
  for _ = 1 to timed_steps do loop_step lg done;
  c.Coupler.barrier ();
  let wall = Perf.now () -. t0 in
  Comm.set_wait_observer None;
  let psteps = perf.Perf.particle_steps -. ps0 in
  let voxels = perf.Perf.voxel_updates -. vox0 in
  let st1 = sim.Simulation.push_stats in
  let lanes = float_of_int (st1.Push.block_lanes - st0.Push.block_lanes) in
  let cleanup = float_of_int (st1.Push.block_cleanup - st0.Push.block_cleanup) in
  let comm_bytes = c.Coupler.comm_bytes () -. bytes0 in
  let busy =
    match (busy0, b.team) with
    | Some a, Some tm ->
        let z = Team.busy_seconds tm in
        Array.mapi (fun i x -> x -. a.(i)) z
    | _ -> [||]
  in
  let energy = (Simulation.energies sim).Simulation.total in
  let fails, _, _ = check wl sim ~dir ~e0 in
  let steps = float_of_int timed_steps in
  let sec l = lg.secs.(l) in
  let div a b = if b > 0. then a /. b else 0. in
  let per_call l = div (sec l) (float_of_int lg.calls.(l)) in
  let gbs ls =
    div (List.fold_left (fun a l -> a +. lg.bytes.(l)) 0. ls)
      (List.fold_left (fun a l -> a +. sec l) 0. ls)
    /. 1e9
  in
  let push = [ l_push_interior; l_push_boundary ] in
  let push_s = sec l_push_interior +. sec l_push_boundary in
  let lane i = if i < Array.length busy then busy.(i) /. steps else 0. in
  let busy_mean = div (Array.fold_left ( +. ) 0. busy) (float_of_int (Array.length busy)) in
  let busy_max = Array.fold_left Float.max 0. busy in
  let metrics =
    [ ("push.interior_s", "s", sec l_push_interior /. steps);
      ("push.boundary_s", "s", sec l_push_boundary /. steps);
      ("push.ns_per_particle", "ns", div push_s psteps *. 1e9);
      ("push.cleanup_frac", "ratio", div cleanup lanes);
      ("push.flops_per_s", "flop/s",
       div (lg.flops.(l_push_interior) +. lg.flops.(l_push_boundary)) push_s);
      ("push.computed_gb_per_s", "GB/s", gbs push);
      ("push.bound_frac", "ratio", div (gbs push) stream_gbs);
      ("interp.load_s", "s", sec l_interp /. steps);
      ("interp.computed_gb_per_s", "GB/s", gbs [ l_interp ]);
      ("interp.bound_frac", "ratio", div (gbs [ l_interp ]) stream_gbs);
      ("accum.unload_s", "s", sec l_unload /. steps);
      ("accum.computed_gb_per_s", "GB/s", gbs [ l_unload ]);
      ("accum.bound_frac", "ratio", div (gbs [ l_unload ]) stream_gbs);
      ("field_s", "s", sec l_field /. steps);
      ("field.voxel_updates_per_s", "1/s", div voxels (sec l_field));
      ("field.computed_gb_per_s", "GB/s", gbs [ l_field ]);
      ("field.bound_frac", "ratio", div (gbs [ l_field ]) stream_gbs);
      ("exchange.fill_s", "s", sec l_fill /. steps);
      ("exchange.fold_s", "s", sec l_fold /. steps);
      ("exchange.bytes_per_step", "B", comm_bytes /. steps);
      ("comm.wait_s", "s", lg.wait_s /. steps);
      ("comm.waits", "count", float_of_int lg.waits /. steps);
      ("migrate_s", "s", sec l_migrate /. steps);
      ("migrate.movers_per_step", "count", float_of_int lg.movers /. steps);
      ("laser_s", "s", sec l_laser /. steps);
      ("sort_s", "s", per_call l_sort);
      ("sort.locality", "ratio", div lg.locality (float_of_int lg.localities));
      ("clean_s", "s", per_call l_clean);
      ("team.busy_s.lane0", "s", lane 0);
      ("team.idle_frac", "ratio", if busy = [||] then 0. else 1. -. (busy_mean /. wall));
      ("team.imbalance", "ratio", div busy_max busy_mean);
      ("checkpoint.save_s", "s", per_call l_ckpt);
      ("checkpoint.bytes", "B", div lg.ckpt_bytes (float_of_int lg.calls.(l_ckpt)));
      ("checkpoint.mb_per_s", "MB/s", div lg.ckpt_bytes (sec l_ckpt) /. 1e6);
      ("checkpoint.overhead_frac", "ratio", sec l_ckpt /. wall);
      ("setup.build_s", "s", b.build_s);
      ("setup.team_s", "s", b.team_s);
      ("step_s_traced", "s", wall /. steps);
      ("closure.residual_frac", "ratio",
       1. -. (Array.fold_left ( +. ) 0. lg.secs /. wall)) ]
  in
  { t_metrics = metrics; t_wall = wall; t_energy = energy; t_fails = fails }

(* ------------------------------------------------------------ bandwidth *)

let read_line path =
  try In_channel.with_open_text path In_channel.input_line with Sys_error _ -> None

(* Size in bytes of the highest cache level that sysfs lists for CPU 0. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let size s =
    Scanf.sscanf_opt s "%d%s" (fun n suffix ->
        match suffix with "K" -> n lsl 10 | "M" -> n lsl 20 | _ -> n)
  in
  Array.fold_left
    (fun best e ->
      let field f = read_line (Filename.concat (Filename.concat dir e) f) in
      match (Option.bind (field "level") int_of_string_opt, Option.bind (field "size") size) with
      | Some level, Some bytes -> (
          match best with
          | Some (l, _) when l >= level -> best
          | _ -> Some (level, bytes))
      | _ -> best)
    None entries
  |> Option.map snd

(* MemAvailable from /proc/meminfo, in bytes. *)
let available_bytes () =
  try
    In_channel.with_open_text "/proc/meminfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
              match Scanf.sscanf_opt l "MemAvailable: %d kB" (fun k -> k * 1024) with
              | Some b -> Some b
              | None -> go ())
        in
        go ())
  with Sys_error _ -> None

(* STREAM triad in its in-place form a <- a + q*b (24 bytes per element:
   read a, read b, write a), best of [passes].  Two arrays rather than
   three keep the resident set at 2x the array size.  Raises if the
   arithmetic comes out wrong. *)
let stream_triad ~array_bytes =
  let open Bigarray in
  let n = array_bytes / 8 in
  let a = Array1.create float64 c_layout n in
  let b = Array1.create float64 c_layout n in
  Array1.fill a 1.0;
  Array1.fill b 2.0;
  let q = 3.0 and passes = 4 in
  let best = ref 0. in
  for _ = 1 to passes do
    let t0 = Perf.now () in
    for i = 0 to n - 1 do
      Array1.unsafe_set a i (Array1.unsafe_get a i +. (q *. Array1.unsafe_get b i))
    done;
    best := Float.max !best (24. *. float_of_int n /. (Perf.now () -. t0) /. 1e9)
  done;
  let expect = 1.0 +. (float_of_int passes *. q *. 2.0) in
  if a.{0} <> expect || a.{n / 2} <> expect || a.{n - 1} <> expect then
    failwith "stream triad: wrong result";
  !best

(* ---------------------------------------------------------------- output *)

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj m) ]))

let describe wl =
  let c = wl.config in
  Printf.printf
    "workload %s: %dx%dx%d voxels, ppc %d, Te %.1f keV, %d rank(s) x %s, \
     kernel %s, checkpoint every %s\n%!"
    wl.name c.Deck.nx c.Deck.ny c.Deck.nz c.Deck.ppc c.Deck.te_kev wl.ranks
    (if wl.workers = 0 then "no team" else Printf.sprintf "%d-lane team" wl.workers)
    (Simulation.push_backend_to_string backend)
    (if wl.ckpt_every = 0 then "never" else Printf.sprintf "%d steps (keep %d)" wl.ckpt_every wl.keep)

let report_fails label fails =
  List.iter (fun m -> Printf.printf "CHECK FAILED (%s): %s\n%!" label m) fails

(* --trace 0: repeats of build + warm + timed window until [seconds], or
   exactly [repeats] of them when [repeats] > 0. *)
let run_end_to_end wl ~seed ~seconds ~repeats =
  let start = Perf.now () in
  let finished k =
    if repeats > 0 then k >= repeats
    else k >= min_repeats && Perf.now () -. start >= seconds
  in
  let setups = ref [] in
  let rec loop acc k =
    if finished k then List.rev acc
    else begin
      (* not in the exact-repeats mode: run.py measures peak RSS there, as
         of one user run *)
      if repeats = 0 then
        for _ = 1 to setups_per_repeat do
          Gc.full_major ();
          let s = (in_world wl (fun comm -> with_built wl ~seed comm (fun b -> b.setup_s))).(0) in
          setups := s :: !setups
        done;
      Gc.full_major ();
      let r = with_ckpt_dir (fun dir -> (in_world wl (run_plain wl ~seed ~dir)).(0)) in
      loop (r :: acc) (k + 1)
    end
  in
  let reps = Array.of_list (loop [] 0) in
  let setups = Array.append (Array.of_list !setups) (Array.map (fun r -> r.p_setup_s) reps) in
  let sum = Array.fold_left ( +. ) 0. in
  let typical =
    Array.init timed_steps (fun i -> median (Array.map (fun r -> r.p_times.(i)) reps))
  in
  let rates = Array.map (fun r -> sum r.p_psteps /. r.p_wall) reps in
  let reps =
    Array.map
      (fun r ->
        if bits_equal r.p_energy reps.(0).p_energy then r
        else
          { r with
            p_fails =
              Printf.sprintf "final energy %.17g differs from repeat 0's %.17g"
                r.p_energy reps.(0).p_energy
              :: r.p_fails })
      reps
  in
  let failed = Array.fold_left (fun n r -> if r.p_fails = [] then n else n + 1) 0 reps in
  Array.iteri (fun k r -> report_fails (Printf.sprintf "repeat %d" k) r.p_fails) reps;
  Printf.printf "per-repeat particle-steps/s:";
  Array.iter (fun r -> Printf.printf " %.4g" r) rates;
  print_newline ();
  Printf.printf
    "%d repeats x %d timed steps; particle_steps_per_s and step_s_p50/p90 \
     over the %d steps, each timed by its median repeat; setup_s median of \
     %d set-ups; %.0f particle-steps per repeat; max energy rise beyond \
     antenna input %.2e of E0; max Gauss residual %.2e\n%!"
    (Array.length reps) timed_steps timed_steps (Array.length setups)
    (sum reps.(0).p_psteps)
    (Array.fold_left (fun a r -> Float.max a r.p_drift) neg_infinity reps)
    (Array.fold_left (fun a r -> Float.max a r.p_gauss) 0. reps);
  print_result ~correct:(failed = 0) ~attempted:(Array.length reps) ~failed
    [ ("particle_steps_per_s", sum reps.(0).p_psteps /. sum typical, "1/s");
      ("step_s_p50", Stats.percentile 50. typical, "s");
      ("step_s_p90", Stats.percentile 90. typical, "s");
      ("setup_s", median setups, "s") ]

(* --trace 1: STREAM once, then pairs of (untraced, traced) runs of the
   same seed until [seconds], and at least two pairs. *)
let run_traced_mode wl ~seed ~seconds =
  let start = Perf.now () in
  (* the two STREAM arrays take at most half the available memory *)
  let llc, llc_note =
    match llc_bytes () with
    | Some b -> (b, "")
    | None -> (32 lsl 20, " (size unknown to sysfs; 32 MiB assumed)")
  in
  let cap = match available_bytes () with Some b -> b / 4 | None -> max_int in
  let array_bytes = min (4 * llc) cap in
  let stream_gbs = stream_triad ~array_bytes in
  Gc.full_major ();
  Printf.printf
    "stream triad (a <- a + q*b, 2 arrays): %.2f GB/s; each array %.0f MB, \
     last-level cache %.0f MB%s%s\n%!"
    stream_gbs
    (float_of_int array_bytes /. 1e6)
    (float_of_int llc /. 1e6) llc_note
    (if array_bytes < 4 * llc then " (arrays capped below 4x by available memory)" else "");
  let rec loop acc k =
    if k >= 2 && Perf.now () -. start >= seconds then List.rev acc
    else begin
      let plain () =
        Gc.full_major ();
        with_ckpt_dir (fun dir -> (in_world wl (run_plain wl ~seed ~dir)).(0))
      in
      let traced () =
        Gc.full_major ();
        with_ckpt_dir (fun dir -> in_world wl (run_traced wl ~seed ~stream_gbs ~dir))
      in
      (* alternate which run of the pair goes first, so that an ordering
         effect does not bias trace.overhead_frac *)
      let p, ranks =
        if k mod 2 = 0 then
          let p = plain () in
          (p, traced ())
        else
          let ranks = traced () in
          (plain (), ranks)
      in
      let t = ranks.(0) in
      let fails =
        p.p_fails @ List.concat_map (fun r -> r.t_fails) (Array.to_list ranks)
        @
        if bits_equal p.p_energy t.t_energy then []
        else
          [ Printf.sprintf "traced energy %.17g <> Simulation.step energy %.17g"
              t.t_energy p.p_energy ]
      in
      report_fails (Printf.sprintf "pair %d" k) fails;
      loop ((p, ranks, fails) :: acc) (k + 1)
    end
  in
  let pairs = loop [] 0 in
  let value name (n, _, v) = if n = name then Some v else None in
  let get name ms = List.find_map (value name) ms in
  let (_, first_ranks, _) = List.hd pairs in
  let names = List.map (fun (n, u, _) -> (n, u)) first_ranks.(0).t_metrics in
  (* per pair: the mean over ranks; reported: the median over pairs *)
  let per_pair =
    List.map
      (fun (p, ranks, _) ->
        let n = float_of_int (Array.length ranks) in
        let mean name =
          Array.fold_left (fun a r -> a +. Option.get (get name r.t_metrics)) 0. ranks
          /. n
        in
        ("trace.overhead_frac", "ratio", (ranks.(0).t_wall /. p.p_wall) -. 1.)
        :: ("stream.triad_gb_per_s", "GB/s", stream_gbs)
        :: List.map (fun (name, u) -> (name, u, mean name)) names)
      pairs
  in
  let med name =
    median
      (Array.of_list (List.map (fun m -> Option.get (get name m)) per_pair))
  in
  let (_, last_ranks, _) = List.nth pairs (List.length pairs - 1) in
  if Array.length last_ranks > 1 then
    Array.iteri
      (fun r t ->
        Printf.printf "rank %d:" r;
        List.iter
          (fun (k, u, v) -> if u = "s" then Printf.printf " %s=%.3e" k v)
          t.t_metrics;
        print_newline ())
      last_ranks;
  let failed = List.length (List.filter (fun (_, _, f) -> f <> []) pairs) in
  let metrics =
    List.map (fun (name, u, _) -> (name, med name, u)) (List.hd per_pair)
  in
  Printf.printf "%d traced pairs, %d failed (checks, bitwise energy)\n%!"
    (List.length pairs) failed;
  print_result ~correct:(failed = 0) ~attempted:(List.length pairs) ~failed metrics

(* ------------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let repeats = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N deck RNG seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--repeats", Arg.Set_int repeats, "N exact end-to-end repeats (0: until S)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "srsbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun wl -> wl.name = !workload) workloads with
  | None ->
      Printf.eprintf "srsbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun wl -> wl.name) workloads));
      exit 2
  | Some wl ->
      describe wl;
      (* each run removes its own checkpoint directory; the shared root
         goes only once empty *)
      Fun.protect ~finally:(fun () -> try Unix.rmdir ckpt_root with Unix.Unix_error _ -> ())
      @@ fun () ->
      if !trace = 0 then
        run_end_to_end wl ~seed:!seed ~seconds:!seconds ~repeats:!repeats
      else
        run_traced_mode wl ~seed:!seed ~seconds:!seconds
