open Helpers
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Spectrum = Vpic_diag.Spectrum
module Growth = Vpic_diag.Growth

(* Electrons plus co-located ions: exactly neutral node by node at t=0. *)
let load_neutral_plasma sim ~ppc ~uth ~ion_mass ~seed =
  let rng = Rng.of_int seed in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.split rng 1) e ~ppc ~uth ());
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:ion_mass in
  let irng = Rng.split rng 2 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      Species.append ions
        { p with
          ux = 0.02 *. Rng.normal irng;
          uy = 0.02 *. Rng.normal irng;
          uz = 0.02 *. Rng.normal irng });
  e

let quasi_1d_grid ~nx ~lx =
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:0.5 ~dz:0.5 () in
  Grid.make ~nx ~ny:2 ~nz:2 ~lx ~ly:1. ~lz:1. ~dt ()

let test_plasma_oscillation_frequency () =
  let grid = quasi_1d_grid ~nx:32 ~lx:(2. *. Float.pi) in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 1) e ~ppc:64 ~uth:1e-4 ());
  (* velocity perturbation at mode 1 excites a Langmuir oscillation *)
  let v0 = 0.01 and k = 1. in
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      Species.set e n { p with ux = p.Particle.ux +. (v0 *. sin (k *. x)) });
  let probe = ref [] in
  for _ = 1 to 400 do
    Simulation.step sim;
    probe := Sf.get sim.Simulation.fields.Em_field.ex 8 1 1 :: !probe
  done;
  let xs = Array.of_list (List.rev !probe) in
  let omega = Spectrum.zero_crossing_omega ~dt:grid.Grid.dt xs in
  check_close ~rtol:0.02 "Langmuir frequency = omega_pe" 1.0 omega

let test_energy_conservation_thermal_plasma () =
  let g = small_grid ~n:8 ~l:4. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:20 ()
  in
  ignore (load_neutral_plasma sim ~ppc:32 ~uth:0.08 ~ion_mass:100. ~seed:7);
  let en0 = Simulation.energies sim in
  Simulation.run sim ~steps:200 ();
  let en1 = Simulation.energies sim in
  let drift =
    Float.abs (en1.Simulation.total -. en0.Simulation.total)
    /. en0.Simulation.total
  in
  check_true
    (Printf.sprintf "total energy drift %.2e < 1%%" drift)
    (drift < 0.01)

let test_momentum_conservation () =
  let g = small_grid ~n:8 ~l:4. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ()
  in
  ignore (load_neutral_plasma sim ~ppc:32 ~uth:0.08 ~ion_mass:100. ~seed:8);
  let total_p () =
    List.fold_left
      (fun acc s -> Vec3.add acc (Species.momentum s))
      Vec3.zero (Simulation.species sim)
  in
  let p0 = total_p () in
  Simulation.run sim ~steps:100 ();
  let p1 = total_p () in
  (* Particle momentum alone is conserved only together with the field
     momentum; for a quiet thermal plasma both stay near the noise level. *)
  let np = float_of_int (Simulation.total_particles sim) in
  let scale = 0.08 *. sqrt np /. np (* thermal noise of the mean *) in
  check_true "px stays at noise level"
    (Float.abs (p1.Vec3.x -. p0.Vec3.x) /. Grid.volume g < 5. *. scale)

let test_gauss_law_maintained () =
  let g = small_grid ~n:8 ~l:4. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:10 ~marder_passes:3 ()
  in
  ignore (load_neutral_plasma sim ~ppc:32 ~uth:0.08 ~ion_mass:100. ~seed:9);
  check_true "initially consistent" (Simulation.gauss_residual sim < 1e-10);
  Simulation.run sim ~steps:100 ();
  let res = Simulation.gauss_residual sim in
  (* rho ~ O(1); the residual must stay far below the physical density *)
  check_true
    (Printf.sprintf "gauss residual %.2e stays small" res)
    (res < 0.02)

let mode_amplitude sim k =
  (* |DFT of Ex along x| at wavenumber k, normalised by nx *)
  let f = sim.Simulation.fields in
  let g = sim.Simulation.grid in
  let re = ref 0. and im = ref 0. in
  for i = 1 to g.Grid.nx do
    let x = (float_of_int (i - 1) +. 0.5) *. g.Grid.dx in
    let e = Sf.get f.Em_field.ex i 1 1 in
    re := !re +. (e *. cos (k *. x));
    im := !im -. (e *. sin (k *. x))
  done;
  sqrt ((!re *. !re) +. (!im *. !im)) /. float_of_int g.Grid.nx

let test_two_stream_growth_rate () =
  (* V1 validation: symmetric cold beams; fastest mode K = k v0/omega_pe
     = sqrt(3/8), gamma_theory = omega_pe/sqrt(8) = 0.3536.  The unstable
     eigenmode is seeded (opposite velocity kicks on the two beams) and
     its growth is fitted between amplitude thresholds chosen above the
     loading-noise floor and below trapping saturation. *)
  let u0 = 0.1 in
  let k = sqrt (3. /. 8.) /. u0 in
  let grid = quasi_1d_grid ~nx:64 ~lx:(2. *. Float.pi /. k) in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ~sort_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.two_stream (Rng.of_int 9) e ~ppc:256 ~u0 ~uth:1e-4 ());
  let eps = 2e-5 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      let sign = if p.Particle.ux > 0. then 1. else -1. in
      Species.set e n
        { p with ux = p.Particle.ux +. (sign *. eps *. sin (k *. x)) });
  let times = ref [] and amps = ref [] in
  let steps = int_of_float (12. /. grid.Grid.dt) in
  for _ = 1 to steps do
    Simulation.step sim;
    times := Simulation.time sim :: !times;
    amps := mode_amplitude sim k :: !amps
  done;
  let times = Array.of_list (List.rev !times) in
  let amps = Array.of_list (List.rev !amps) in
  let lo = ref 0 and hi = ref 0 in
  Array.iteri
    (fun i a ->
      if !lo = 0 && a > 5e-4 then lo := i;
      if !hi = 0 && a > 2.2e-3 then hi := i)
    amps;
  check_true "window found" (!lo > 0 && !hi > !lo + 5);
  let gamma, r2 = Growth.rate_in_window ~times ~amps ~i_lo:!lo ~i_hi:!hi in
  check_true (Printf.sprintf "clean fit r2=%.3f" r2) (r2 > 0.9);
  check_close ~rtol:0.3 "two-stream growth rate" (1. /. sqrt 8.) gamma

let build_checkpoint_sim () =
  let g = small_grid ~n:6 ~l:3. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:7 ~sort_interval:5 ()
  in
  ignore (load_neutral_plasma sim ~ppc:16 ~uth:0.05 ~ion_mass:50. ~seed:11);
  sim

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "vpic_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sim = build_checkpoint_sim () in
      Simulation.run sim ~steps:20 ();
      Checkpoint.save sim path;
      Simulation.run sim ~steps:20 ();
      let restored = Checkpoint.load ~coupler:(Coupler.local Bc.periodic) path in
      Alcotest.(check int) "step counter" 20 restored.Simulation.nstep;
      Simulation.run restored ~steps:20 ();
      (* Deterministic continuation: bitwise-identical fields. *)
      check_close ~atol:0. ~rtol:0. "fields identical" 0.
        (Em_field.max_component_diff sim.Simulation.fields
           restored.Simulation.fields);
      Alcotest.(check int) "particle count"
        (Simulation.total_particles sim)
        (Simulation.total_particles restored);
      let ea = Simulation.energies sim and eb = Simulation.energies restored in
      check_close ~rtol:1e-12 "energies" ea.Simulation.total eb.Simulation.total)

let test_checkpoint_version_guard () =
  let path = Filename.temp_file "vpic_bad" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Marshal.to_channel oc "not a checkpoint" [];
      close_out oc;
      check_true "load rejects garbage"
        (try
           ignore (Checkpoint.load ~coupler:(Coupler.local Bc.periodic) path);
           false
         with _ -> true))

let test_species_registry () =
  let g = small_grid ~n:4 ~l:2. () in
  let sim = Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic) () in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  check_true "find returns same" (Simulation.find_species sim "electron" == e);
  check_true "missing raises"
    (try
       ignore (Simulation.find_species sim "muon");
       false
     with Invalid_argument _ -> true);
  Simulation.run sim ~steps:3 ();
  check_close ~rtol:1e-12 "time" (3. *. g.Grid.dt) (Simulation.time sim)

let test_run_diag_cadence () =
  let g = small_grid ~n:4 ~l:2. () in
  let sim = Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic) () in
  let calls = ref 0 in
  Simulation.run sim ~steps:10 ~every:3 ~diag:(fun _ -> incr calls) ();
  Alcotest.(check int) "diag called at steps 3,6,9" 3 !calls

let test_refluxing_box_holds_equilibrium () =
  (* Thermal plasma between two refluxing x-walls: particle count is
     conserved and the temperature stays at the bath value. *)
  let g = small_grid ~n:8 ~l:4. () in
  let uth = 0.08 in
  let bc =
    Bc.with_face
      (Bc.with_face Bc.periodic Axis.X `Lo (Bc.Refluxing uth))
      Axis.X `Hi (Bc.Refluxing uth)
  in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local bc) ~clean_div_interval:10 ()
  in
  ignore (load_neutral_plasma sim ~ppc:24 ~uth ~ion_mass:100. ~seed:17);
  let n0 = Simulation.total_particles sim in
  Simulation.run sim ~steps:150 ();
  Alcotest.(check int) "count conserved" n0 (Simulation.total_particles sim);
  let e = Simulation.find_species sim "electron" in
  check_true "some refluxes happened"
    (sim.Simulation.push_stats.Vpic_particle.Push.refluxed > 0);
  let spread = Moments.thermal_spread e in
  check_close ~rtol:0.1 "bath temperature held" uth spread.Vec3.x

let test_single_cell_transverse () =
  (* ny = nz = 1: the truly 1D configuration (periodic single transverse
     cell wraps onto itself); the Langmuir oscillation must survive it. *)
  let nx = 32 in
  let lx = 2. *. Float.pi in
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:1. ~dz:1. () in
  let grid = Grid.make ~nx ~ny:1 ~nz:1 ~lx ~ly:1. ~lz:1. ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 1) e ~ppc:64 ~uth:1e-4 ());
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      Species.set e n { p with ux = p.Particle.ux +. (0.01 *. sin x) });
  let probe = ref [] in
  for _ = 1 to 300 do
    Simulation.step sim;
    probe := Sf.get sim.Simulation.fields.Em_field.ex 8 1 1 :: !probe
  done;
  let omega =
    Spectrum.zero_crossing_omega ~dt (Array.of_list (List.rev !probe))
  in
  check_close ~rtol:0.03 "1D Langmuir frequency" 1.0 omega

let test_parallel_checkpoint_roundtrip () =
  (* per-rank checkpoint files restore a bitwise-identical continuation *)
  let module Comm = Vpic_parallel.Comm in
  let module Decomp = Vpic_grid.Decomp in
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let paths = Array.init 2 (fun r -> Filename.temp_file (Printf.sprintf "vpic_r%d" r) ".ckpt") in
  Fun.protect
    ~finally:(fun () -> Array.iter Sys.remove paths)
    (fun () ->
      let results =
        Comm.run ~ranks:2 (fun c ->
            let rank = Comm.rank c in
            let grid = Decomp.local_grid d ~dt ~rank in
            let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
            let coupler = Coupler.parallel c bc ~grid in
            let sim =
              Simulation.make ~grid ~coupler ~clean_div_interval:5 ()
            in
            let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
            ignore
              (Loader.maxwellian (Rng.of_int (3 + rank)) e ~ppc:6 ~uth:0.15 ());
            Simulation.run sim ~steps:10 ();
            Checkpoint.save sim paths.(rank);
            Simulation.run sim ~steps:10 ();
            (* restore from the checkpoint and replay the same 10 steps *)
            let restored = Checkpoint.load ~coupler paths.(rank) in
            Simulation.run restored ~steps:10 ();
            ( Em_field.max_component_diff sim.Simulation.fields
                restored.Simulation.fields,
              Species.count (Simulation.find_species restored "electron") ))
      in
      Array.iter
        (fun (diff, np) ->
          check_close ~atol:0. ~rtol:0. "bitwise continuation" 0. diff;
          check_true "particles restored" (np > 0))
        results)

let test_species_growth_stress () =
  let g = small_grid ~n:4 ~l:2. () in
  let s = Species.create ~initial_capacity:2 ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 12 in
  (* interleave growth and swap-removal over several doubling cycles *)
  for round = 1 to 5 do
    for _ = 1 to 1000 * round do
      Species.append s
        { i = 1 + Rng.int rng 4; j = 1 + Rng.int rng 4; k = 1 + Rng.int rng 4;
          fx = Rng.uniform rng; fy = Rng.uniform rng; fz = Rng.uniform rng;
          ux = 0.; uy = 0.; uz = 0.; w = 1. }
    done;
    for _ = 1 to 300 do
      Species.remove s (Rng.int rng (Species.count s))
    done
  done;
  Alcotest.(check int) "final count" ((1000 * 15) - 1500) (Species.count s);
  check_close "weights intact" (float_of_int (Species.count s))
    (-.Species.total_charge s)

let test_absorbing_box_loses_particles () =
  let g = small_grid ~n:8 ~l:4. () in
  let bc = Bc.uniform Bc.Absorbing in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local bc) ~clean_div_interval:0 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 3) e ~ppc:8 ~uth:0.2 ());
  let n0 = Species.count e in
  Simulation.run sim ~steps:100 ();
  check_true "particles escape" (Species.count e < n0)

let suite =
  [ slow_case "sim: Langmuir frequency" test_plasma_oscillation_frequency;
    slow_case "sim: energy conservation (thermal plasma)"
      test_energy_conservation_thermal_plasma;
    slow_case "sim: momentum noise bound" test_momentum_conservation;
    slow_case "sim: Gauss law maintained" test_gauss_law_maintained;
    slow_case "sim: two-stream growth rate" test_two_stream_growth_rate;
    case "sim: checkpoint roundtrip" test_checkpoint_roundtrip;
    case "sim: checkpoint version guard" test_checkpoint_version_guard;
    case "sim: species registry" test_species_registry;
    case "sim: diag cadence" test_run_diag_cadence;
    case "sim: absorbing box loses particles" test_absorbing_box_loses_particles;
    slow_case "sim: refluxing box holds equilibrium"
      test_refluxing_box_holds_equilibrium;
    slow_case "sim: truly 1D (single transverse cell)" test_single_cell_transverse;
    case "sim: parallel checkpoint roundtrip" test_parallel_checkpoint_roundtrip;
    case "species: growth stress" test_species_growth_stress ]
