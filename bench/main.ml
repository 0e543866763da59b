(* Benchmark & figure harness: regenerates every table/figure of the
   paper's evaluation (see DESIGN.md experiment index and EXPERIMENTS.md
   for paper-vs-measured records).

     dune exec bench/main.exe                 # all figures (E1..E6, V1, V2)
     dune exec bench/main.exe -- quick        # reduced-size E3/E4 sweep
     dune exec bench/main.exe -- e1 e2 ...    # individual sections
*)

module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Sf = Vpic_grid.Scalar_field
module Decomp = Vpic_grid.Decomp
module Em_field = Vpic_field.Em_field
module Maxwell = Vpic_field.Maxwell
module Boundary = Vpic_field.Boundary
module Diagnostics = Vpic_field.Diagnostics
module Species = Vpic_particle.Species
module Store = Vpic_particle.Store
module Particle = Vpic_particle.Particle
module Push = Vpic_particle.Push
module Sort = Vpic_particle.Sort
module Moments = Vpic_particle.Moments
module Loader = Vpic_particle.Loader
module Comm = Vpic_parallel.Comm
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Roadrunner = Vpic_cell.Roadrunner
module Perf_model = Vpic_cell.Perf_model
module Spe_pipeline = Vpic_cell.Spe_pipeline
module Sweep = Vpic_lpi.Sweep
module Deck = Vpic_lpi.Deck
module Rng = Vpic_util.Rng
module Table = Vpic_util.Table
module Perf = Vpic_util.Perf

let pf = Printf.printf

(* ------------------------------------------------------------------ E1 *)

let e1_headline () =
  pf "\n###### E1: sustained performance on the full machine ######\n";
  pf "paper (abstract): 0.374 Pflop/s sustained s.p., 0.488 Pflop/s inner loop,\n";
  pf "1.0e12 particles on 1.36e8 voxels, 17 CUs (3060 nodes, 12240 Cells).\n";
  let b = Perf_model.headline () in
  let t = Table.create [ "quantity"; "paper"; "model"; "note" ] in
  Table.add_row t
    [ "sustained Pflop/s (s.p.)"; "0.374";
      Printf.sprintf "%.3f" (b.Perf_model.sustained_flops /. 1e15);
      "calibrated residual: see DESIGN.md" ];
  Table.add_row t
    [ "inner loop Pflop/s"; "0.488";
      Printf.sprintf "%.3f" (b.Perf_model.inner_flops /. 1e15);
      "SPE rate from measured kernel flops" ];
  Table.add_row t
    [ "% of Cell s.p. peak"; "14.9%";
      Printf.sprintf "%.1f%%" (100. *. b.Perf_model.efficiency_vs_peak); "" ];
  Table.add_row t
    [ "particle-steps / s"; "~1.4e12";
      Printf.sprintf "%.3g" b.Perf_model.particle_rate;
      "derived from abstract numbers" ];
  Table.add_row t
    [ "s / step (1e12 particles)"; "-";
      Printf.sprintf "%.3f" b.Perf_model.t_step; "" ];
  Table.print ~title:"E1 headline" t;
  let t = Table.create [ "phase"; "s/step"; "% of step" ] in
  let row name v =
    Table.add_row t
      [ name; Printf.sprintf "%.4f" v;
        Printf.sprintf "%.1f" (100. *. v /. b.Perf_model.t_step) ]
  in
  row "particle push (SPE)" b.Perf_model.t_push;
  row "field solve" b.Perf_model.t_field;
  row "voxel sort (amortised)" b.Perf_model.t_sort;
  row "accumulator reduce" b.Perf_model.t_accumulate;
  row "communication" b.Perf_model.t_comm;
  row "residual overhead (fit)" b.Perf_model.t_overhead;
  Table.print ~title:"E1 modelled step breakdown" t;
  let t = Table.create [ "design choice"; "sustained Pflop/s"; "vs baseline" ] in
  let rows = Perf_model.ablations () in
  let base = snd (List.hd rows) in
  List.iter
    (fun (label, bd) ->
      Table.add_row t
        [ label;
          Printf.sprintf "%.4f" (bd.Perf_model.sustained_flops /. 1e15);
          Printf.sprintf "%.2fx"
            (bd.Perf_model.sustained_flops
            /. base.Perf_model.sustained_flops) ])
    rows;
  Table.print ~title:"E1 ablations (the paper's design arguments)" t

(* ------------------------------------------------------------------ E2 *)

let measure_local_ranks ranks =
  let steps = 30 in
  let cells_per_rank = 8 and ppc = 48 in
  let gnx = cells_per_rank * ranks in
  let d =
    Decomp.make ~px:ranks ~py:1 ~pz:1 ~gnx ~gny:4 ~gnz:4
      ~lx:(0.5 *. float_of_int gnx) ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let (), elapsed =
    Perf.timed (fun () ->
        ignore
          (Comm.run ~ranks (fun c ->
               let rank = Comm.rank c in
               let grid = Decomp.local_grid d ~dt ~rank in
               let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
               let sim =
                 Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid) ()
               in
               let e =
                 Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1.
               in
               ignore
                 (Loader.maxwellian (Rng.of_int (7 + rank)) e ~ppc ~uth:0.08 ());
               Simulation.run sim ~steps ())))
  in
  elapsed /. float_of_int steps

let e2_weak_scaling () =
  pf "\n###### E2: weak scaling ######\n";
  pf "paper: near-linear Pflop/s growth from 1 to 17 CUs at fixed per-node work.\n";
  let t = Table.create [ "CUs"; "nodes"; "Pflop/s"; "inner Pflop/s"; "efficiency" ] in
  let rows = Perf_model.weak_scaling [ 1; 2; 4; 8; 12; 17 ] in
  let _, _, b1 = List.hd rows in
  let per_cu1 = b1.Perf_model.sustained_flops in
  List.iter
    (fun (cu, nodes, b) ->
      Table.add_row t
        [ Table.cell_i cu;
          Table.cell_i nodes;
          Printf.sprintf "%.4f" (b.Perf_model.sustained_flops /. 1e15);
          Printf.sprintf "%.4f" (b.Perf_model.inner_flops /. 1e15);
          Printf.sprintf "%.3f"
            (b.Perf_model.sustained_flops /. (float_of_int cu *. per_cu1)) ])
    rows;
  Table.print ~title:"E2 Roadrunner model (paper shape: ~linear)" t;
  let t1 = measure_local_ranks 1 in
  let t2 = measure_local_ranks 2 in
  let t = Table.create [ "ranks"; "s/step"; "efficiency" ] in
  Table.add_row t [ "1"; Printf.sprintf "%.4f" t1; "1.00" ];
  Table.add_row t [ "2"; Printf.sprintf "%.4f" t2; Printf.sprintf "%.2f" (t1 /. t2) ];
  Table.print
    ~title:"E2 measured (local domains; bounded by this host's 2 shared cores)"
    t

(* --------------------------------------------------------------- E3/E4 *)

let e3_e4_reflectivity ~quick () =
  pf "\n###### E3: reflectivity vs laser intensity / E4: trapping ######\n";
  pf "paper: parameter study of laser reflectivity vs intensity in hohlraum\n";
  pf "conditions; trapping flattens f(v) at the EPW phase velocity.\n";
  pf "(scaled-down seeded runs; see DESIGN.md substitutions)\n%!";
  let base =
    if quick then { Deck.default with nx = 128; ppc = 16; vacuum = 3.; r_seed = 2e-3 }
    else { Deck.default with nx = 192; ppc = 64; vacuum = 4.; r_seed = 5e-3 }
  in
  let a0s = if quick then [ 0.03; 0.09; 0.15 ] else Sweep.default_a0s in
  let points =
    Sweep.reflectivity_vs_intensity ~base ~with_noise_run:(not quick) ~a0s ()
  in
  let t =
    Table.create
      [ "a0"; "I(W/cm^2)"; "gain G"; "R theory"; "R seeded"; "R peak";
        "R noise-seeded"; "flattening"; "hot frac" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ Table.cell_f p.Sweep.a0;
          Printf.sprintf "%.2e" p.Sweep.intensity_w_cm2;
          Printf.sprintf "%.2f" p.Sweep.gain_theory;
          Printf.sprintf "%.3e" p.Sweep.r_theory;
          Printf.sprintf "%.3e" p.Sweep.r_measured;
          Printf.sprintf "%.3e" p.Sweep.r_peak;
          Printf.sprintf "%.3e" p.Sweep.r_noise;
          Printf.sprintf "%.2f" p.Sweep.flattening;
          Printf.sprintf "%.2e" p.Sweep.hot_fraction ];
      pf "  a0=%.3f done\n%!" p.Sweep.a0)
    points;
  Table.print
    ~title:
      "E3/E4 (shape to reproduce: threshold, steep rise, saturation; \
       flattening -> 0 and hot fraction rising with intensity)"
    t;
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  pf "rise from threshold: R(%.2f)=%.2e -> peak R(%.2f)=%.2e; trapping \
     saturation: flattening %.2f -> %.2f\n"
    first.Sweep.a0 first.Sweep.r_measured last.Sweep.a0 last.Sweep.r_peak
    first.Sweep.flattening last.Sweep.flattening

(* ------------------------------------------------------------------ E5 *)

let kernel_fixture () =
  let n = 16 in
  let l = 8. in
  let dx = l /. float_of_int n in
  let dt = Grid.courant_dt ~dx ~dy:dx ~dz:dx () in
  let g = Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt () in
  let f = Em_field.create g in
  let rng = Rng.of_int 42 in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.05 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em Bc.periodic f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian rng s ~ppc:64 ~uth:0.08 ());
  (g, f, s)

let e5_kernels () =
  pf "\n###### E5: kernel costs and the Cell offload ######\n";
  let g, f, s = kernel_fixture () in
  let np = Species.count s in
  let reps = 3 in
  let t = Table.create [ "kernel"; "measured"; "unit"; "notes" ] in
  Sort.by_voxel s;
  let _, d_sorted =
    Perf.timed (fun () ->
        for _ = 1 to reps do
          ignore (Push.advance s f Bc.periodic)
        done)
  in
  let ns_pp = d_sorted /. float_of_int (np * reps) *. 1e9 in
  Table.add_row t
    [ "particle push (sorted)"; Printf.sprintf "%.0f" ns_pp;
      "ns/particle-step"; "" ];
  (* Sorting ablation on a cache-exceeding grid (the paper's locality
     argument needs field data larger than cache to show). *)
  let big =
    let n = 40 in
    let l = 20. in
    let dx = l /. float_of_int n in
    let dt = Grid.courant_dt ~dx ~dy:dx ~dz:dx () in
    Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt ()
  in
  let bf = Em_field.create big in
  Boundary.fill_em Bc.periodic bf;
  let bs = Species.create ~name:"e" ~q:(-1.) ~m:1. big in
  ignore (Loader.maxwellian (Rng.of_int 2) bs ~ppc:16 ~uth:0.08 ());
  let bn = Species.count bs in
  (* randomise order, then measure; then sort and measure again *)
  let shuffle () =
    let rng = Rng.of_int 11 in
    for i = bn - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      Species.swap bs i j
    done
  in
  shuffle ();
  let _, d_big_unsorted =
    Perf.timed (fun () -> ignore (Push.advance bs bf Bc.periodic))
  in
  Sort.by_voxel bs;
  let _, d_big_sorted =
    Perf.timed (fun () -> ignore (Push.advance bs bf Bc.periodic))
  in
  Table.add_row t
    [ "push, 64k-voxel grid, sorted";
      Printf.sprintf "%.0f" (d_big_sorted /. float_of_int bn *. 1e9);
      "ns/particle-step";
      Printf.sprintf "vs %.0f shuffled (%.2fx)"
        (d_big_unsorted /. float_of_int bn *. 1e9)
        (d_big_unsorted /. d_big_sorted) ];
  let out = Array.make 6 0. in
  let st = s.Species.store in
  let _, d_gather =
    Perf.timed (fun () ->
        let open Bigarray.Array1 in
        for _ = 1 to reps do
          for n = 0 to np - 1 do
            let i, j, k =
              Grid.cell_of_voxel g
                (Int32.to_int (unsafe_get st.Store.voxel n))
            in
            Vpic_particle.Interp.gather_into f ~i ~j ~k
              ~fx:(unsafe_get st.Store.fx n)
              ~fy:(unsafe_get st.Store.fy n)
              ~fz:(unsafe_get st.Store.fz n)
              ~out
          done
        done)
  in
  Table.add_row t
    [ "field gather";
      Printf.sprintf "%.0f" (d_gather /. float_of_int (np * reps) *. 1e9);
      "ns/particle"; "staggered trilinear, 6 components" ];
  let rng = Rng.of_int 3 in
  let resort () =
    Species.iter s (fun n ->
        let _, j, k = Species.cell s n in
        Species.set_cell s n (1 + Rng.int rng g.Grid.nx) j k);
    Sort.by_voxel s
  in
  let _, d_sort = Perf.timed resort in
  Table.add_row t
    [ "voxel counting sort";
      Printf.sprintf "%.0f" (d_sort /. float_of_int np *. 1e9); "ns/particle";
      "" ];
  let _, d_rho =
    Perf.timed (fun () ->
        for _ = 1 to reps do
          Moments.deposit_rho s ~rho:f.Em_field.rho
        done)
  in
  Table.add_row t
    [ "rho deposit (node CIC)";
      Printf.sprintf "%.0f" (d_rho /. float_of_int (np * reps) *. 1e9);
      "ns/particle"; "" ];
  let nvox = Grid.interior_count g in
  let freps = 50 in
  let _, d_e =
    Perf.timed (fun () ->
        for _ = 1 to freps do
          Maxwell.advance_e f
        done)
  in
  let _, d_b =
    Perf.timed (fun () ->
        for _ = 1 to freps do
          Maxwell.advance_b f ~frac:0.5
        done)
  in
  Table.add_row t
    [ "advance E";
      Printf.sprintf "%.1f" (d_e /. float_of_int (nvox * freps) *. 1e9);
      "ns/voxel"; "" ];
  Table.add_row t
    [ "advance B (half)";
      Printf.sprintf "%.1f" (d_b /. float_of_int (nvox * freps) *. 1e9);
      "ns/voxel"; "" ];
  Table.print ~title:"E5 measured kernel costs (this host)" t;
  (* the simulated SPE pipeline: DMA ledger and modelled Cell rates *)
  let pipe = Spe_pipeline.create Roadrunner.full in
  ignore (Spe_pipeline.advance_species pipe s f Bc.periodic);
  let led = Spe_pipeline.ledger pipe in
  let t = Table.create [ "quantity"; "value"; "unit" ] in
  Table.add_row t
    [ "DMA bytes / particle";
      Printf.sprintf "%.1f"
        ((led.Spe_pipeline.bytes_in +. led.Spe_pipeline.bytes_out)
        /. float_of_int led.Spe_pipeline.particles);
      "bytes" ];
  Table.add_row t
    [ "modelled SPE rate";
      Printf.sprintf "%.1f" (Spe_pipeline.spe_particle_rate pipe /. 1e6);
      "Mparticles/s/SPE" ];
  Table.add_row t
    [ "modelled machine rate";
      Printf.sprintf "%.2e" (Spe_pipeline.machine_particle_rate pipe);
      "particle-steps/s" ];
  Table.add_row t
    [ "compute/DMA overlap";
      Printf.sprintf "%.2f"
        (led.Spe_pipeline.t_exposed
        /. (led.Spe_pipeline.t_compute +. led.Spe_pipeline.t_dma));
      "exposed / total (0.5 = perfect)" ];
  Table.print ~title:"E5 simulated Cell SPE pipeline (double-buffered DMA)" t

(* ------------------------------------------------------------------ E6 *)

let e6_conservation () =
  pf "\n###### E6: conservation at scale (VPIC correctness claims) ######\n";
  let n = 10 in
  let l = 5. in
  let dx = l /. float_of_int n in
  let dt = Grid.courant_dt ~dx ~dy:dx ~dz:dx () in
  let grid = Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:25 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  let rng = Rng.of_int 7 in
  ignore (Loader.maxwellian (Rng.split rng 1) e ~ppc:32 ~uth:0.08 ());
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
  let irng = Rng.split rng 2 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      Species.append ions
        { p with
          ux = 0.01 *. Rng.normal irng;
          uy = 0.01 *. Rng.normal irng;
          uz = 0.01 *. Rng.normal irng });
  let en0 = Simulation.energies sim in
  let steps = 400 in
  let worst_gauss = ref 0. and worst_divb = ref 0. in
  for _ = 1 to 4 do
    Simulation.run sim ~steps:(steps / 4) ();
    worst_gauss := Float.max !worst_gauss (Simulation.gauss_residual sim);
    worst_divb := Float.max !worst_divb (Simulation.div_b_max sim)
  done;
  let en1 = Simulation.energies sim in
  let t = Table.create [ "invariant"; "value"; "comment" ] in
  Table.add_row t
    [ "total energy drift";
      Printf.sprintf "%.2e"
        (Float.abs ((en1.Simulation.total /. en0.Simulation.total) -. 1.));
      Printf.sprintf "over %d steps (t = %.0f/omega_pe)" steps
        (Simulation.time sim) ];
  Table.add_row t
    [ "max |div E - rho|"; Printf.sprintf "%.2e" !worst_gauss;
      "co-located load starts exactly neutral; VB deposition keeps it" ];
  Table.add_row t
    [ "max |div B|"; Printf.sprintf "%.2e" !worst_divb;
      "exactly preserved by the Yee update" ];
  Table.add_row t
    [ "particles"; string_of_int (Simulation.total_particles sim);
      "conserved in a periodic box" ];
  Table.print ~title:"E6 conservation (thermal plasma)" t;
  (* ablation: VPIC-style matched current/force smoothing *)
  let heating passes =
    let sim2 =
      Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
        ~clean_div_interval:25 ~current_filter_passes:passes ()
    in
    let e2 = Simulation.add_species sim2 ~name:"electron" ~q:(-1.) ~m:1. in
    let rng2 = Rng.of_int 7 in
    ignore (Loader.maxwellian (Rng.split rng2 1) e2 ~ppc:32 ~uth:0.08 ());
    let i2 = Simulation.add_species sim2 ~name:"ion" ~q:1. ~m:100. in
    Species.iter e2 (fun n ->
        let p = Species.get e2 n in
        Species.append i2 { p with ux = 0.; uy = 0.; uz = 0. });
    let t0 = (Simulation.energies sim2).Simulation.total in
    Simulation.run sim2 ~steps:200 ();
    let t1 = (Simulation.energies sim2).Simulation.total in
    ( Float.abs ((t1 /. t0) -. 1.),
      fst (Diagnostics.field_energy sim2.Simulation.fields) )
  in
  let d0, f0 = heating 0 in
  let d1, f1 = heating 1 in
  let t = Table.create [ "current filter"; "energy drift"; "field noise" ] in
  Table.add_row t [ "off"; Printf.sprintf "%.2e" d0; Printf.sprintf "%.2e" f0 ];
  Table.add_row t [ "1 binomial pass"; Printf.sprintf "%.2e" d1; Printf.sprintf "%.2e" f1 ];
  Table.print
    ~title:"E6 ablation: matched binomial smoothing suppresses self-heating"
    t

(* --------------------------------------------------------------- V1/V2 *)

let v1_two_stream () =
  pf "\n###### V1: two-stream instability growth rate (validation) ######\n";
  let u0 = 0.1 in
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
  ignore (Loader.two_stream (Rng.of_int 9) e ~ppc:256 ~u0 ~uth:1e-4 ());
  let eps = 2e-5 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      let x, _, _ = Particle.position grid p in
      let sign = if p.Particle.ux > 0. then 1. else -1. in
      Species.set e n
        { p with ux = p.Particle.ux +. (sign *. eps *. sin (k *. x)) });
  let mode_amp () =
    let re = ref 0. and im = ref 0. in
    for i = 1 to nx do
      let x = (float_of_int (i - 1) +. 0.5) *. dx in
      let v = Sf.get sim.Simulation.fields.Em_field.ex i 1 1 in
      re := !re +. (v *. cos (k *. x));
      im := !im -. (v *. sin (k *. x))
    done;
    sqrt ((!re *. !re) +. (!im *. !im)) /. float_of_int nx
  in
  let times = ref [] and amps = ref [] in
  for _ = 1 to int_of_float (12. /. dt) do
    Simulation.step sim;
    times := Simulation.time sim :: !times;
    amps := mode_amp () :: !amps
  done;
  let times = Array.of_list (List.rev !times) in
  let amps = Array.of_list (List.rev !amps) in
  let lo = ref 0 and hi = ref 0 in
  Array.iteri
    (fun i a ->
      if !lo = 0 && a > 5e-4 then lo := i;
      if !hi = 0 && a > 2.2e-3 then hi := i)
    amps;
  let gamma, r2 =
    Vpic_diag.Growth.rate_in_window ~times ~amps ~i_lo:!lo ~i_hi:!hi
  in
  pf "measured gamma = %.3f omega_pe | theory omega_pe/sqrt(8) = %.3f (r2 = %.3f)\n"
    gamma (1. /. sqrt 8.) r2

let v2_plasma_oscillation () =
  pf "\n###### V2: Langmuir oscillation frequency (validation) ######\n";
  let nx = 32 in
  let lx = 2. *. Float.pi in
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:0.5 ~dz:0.5 () in
  let grid = Grid.make ~nx ~ny:2 ~nz:2 ~lx ~ly:1. ~lz:1. ~dt () in
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
  for _ = 1 to 400 do
    Simulation.step sim;
    probe := Sf.get sim.Simulation.fields.Em_field.ex 8 1 1 :: !probe
  done;
  let omega =
    Vpic_diag.Spectrum.zero_crossing_omega ~dt
      (Array.of_list (List.rev !probe))
  in
  pf "measured omega = %.4f omega_pe | theory 1.0000\n" omega

(* ----------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let sections =
    match List.filter (fun a -> a <> "quick") args with
    | [] -> [ "figures" ]
    | l -> l
  in
  let section = function
    | "figures" | "all" ->
        Some
          [ e1_headline; e2_weak_scaling; e3_e4_reflectivity ~quick;
            e5_kernels; e6_conservation; v1_two_stream; v2_plasma_oscillation ]
    | "e1" -> Some [ e1_headline ]
    | "e2" -> Some [ e2_weak_scaling ]
    | "e3" | "e4" -> Some [ e3_e4_reflectivity ~quick ]
    | "e5" -> Some [ e5_kernels ]
    | "e6" -> Some [ e6_conservation ]
    | "v1" -> Some [ v1_two_stream ]
    | "v2" -> Some [ v2_plasma_oscillation ]
    | _ -> None
  in
  (* resolve every section before running any, so a typo fails fast *)
  let plan =
    List.map
      (fun name ->
        match section name with
        | Some runs -> runs
        | None ->
            Printf.eprintf
              "unknown section %s (e1..e6, v1, v2, figures)\n" name;
            exit 2)
      sections
  in
  List.iter (List.iter (fun run -> run ())) plan
