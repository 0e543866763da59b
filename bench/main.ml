(* Benchmark & figure harness: regenerates every table/figure of the
   paper's evaluation (see DESIGN.md experiment index and EXPERIMENTS.md
   for paper-vs-measured records).

     dune exec bench/main.exe                 # all figures (E1..E6, V1, V2)
     dune exec bench/main.exe -- quick        # reduced-size E3/E4 sweep
     dune exec bench/main.exe -- kernels      # bechamel kernel microbenches
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
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Sort = Vpic_particle.Sort
module Moments = Vpic_particle.Moments
module Loader = Vpic_particle.Loader
module Comm = Vpic_parallel.Comm
module Team = Vpic_parallel.Team
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
module Trace = Vpic_telemetry.Trace

let pf = Printf.printf

(* ------------------------------------------------- bench JSON emission *)

(* Every bench artifact shares one schema:
     {"schema":"vpic-bench/1","bench":...,
      "meta":{"git":...,"date":...,"ranks":N},"results":{...}}
   [results] is a list of (key, rendered JSON value). *)

let bench_date = ref ""

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

let json_num v = if Float.is_finite v then Printf.sprintf "%.6e" v else "null"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let write_bench_json ~file ~bench ~ranks ~results =
  let date = if !bench_date <> "" then !bench_date else iso_now () in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"vpic-bench/1\",\n\
    \  \"bench\": %s,\n\
    \  \"meta\": {\"git\": %s, \"date\": %s, \"ranks\": %d},\n\
    \  \"results\": {\n"
    (Vpic_util.Json.quote bench)
    (Vpic_util.Json.quote (git_describe ()))
    (Vpic_util.Json.quote date) ranks;
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" k v
        (if i < List.length results - 1 then "," else ""))
    results;
  output_string oc "  }\n}\n";
  close_out oc;
  pf "wrote %s\n" file

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

(* ------------------------------------------------------- push bench *)

(* Two A/Bs of the production Push.advance on a sorted thermal
   population in random fields: direct strided gather/scatter against
   the interpolator/accumulator memory system, then the scalar against
   the block-vectorized kernel (and its SPE-stream form), closed by a
   bitwise energy-parity check of the two kernels on a short srs deck. *)
let push_bench ?(quick = false) () =
  (* -------- A/B: the production Push.advance, direct strided
     gather/scatter vs the interpolator/accumulator memory system.
     This times the whole advance (gather, Boris, walk, current
     deposition) through the public API; the interpolator pass pays its
     honest per-step overhead — the coefficient load before the push and
     the accumulator unload after it.  Each timed pass starts from a
     freshly sorted population so both paths see the same locality the
     step loop maintains. *)
  pf "\n###### push A/B: direct gather/scatter vs interpolator/accumulator ######\n";
  let n2 = if quick then 16 else 64 in
  let ppc2 = if quick then 8 else 40 in
  (* cells of size 0.5 *)
  let l2 = float_of_int n2 *. 0.5 in
  let g2 =
    Grid.make ~nx:n2 ~ny:n2 ~nz:n2 ~lx:l2 ~ly:l2 ~lz:l2
      ~dt:(Grid.courant_dt ~dx:(l2 /. float_of_int n2)
             ~dy:(l2 /. float_of_int n2) ~dz:(l2 /. float_of_int n2) ())
      ()
  in
  let f2 = Em_field.create g2 in
  let rng2 = Rng.of_int 43 in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.05 *. (Rng.uniform rng2 -. 0.5)))
    (Em_field.em_components f2);
  Boundary.fill_em Bc.periodic f2;
  let s2 = Species.create ~name:"e" ~q:(-1.) ~m:1. g2 in
  ignore (Loader.maxwellian rng2 s2 ~ppc:ppc2 ~uth:0.08 ());
  Sort.by_voxel s2;
  let np2 = Species.count s2 in
  let ip = Interpolator.create g2 in
  let ac = Accumulator.create g2 in
  let direct_pass () =
    Em_field.clear_currents f2;
    ignore (Push.advance s2 f2 Bc.periodic)
  in
  let interp_pass () =
    Em_field.clear_currents f2;
    Interpolator.load ip f2;
    ignore (Push.advance ~interp:ip ~accum:ac s2 f2 Bc.periodic);
    Accumulator.unload ac f2
  in
  direct_pass ();
  interp_pass ();
  let reps2 = if quick then 3 else 5 in
  let d_dir = ref 0. and d_int = ref 0. in
  let time_into acc pass =
    Sort.by_voxel s2;
    let _, d = Perf.timed pass in
    acc := !acc +. d
  in
  for r = 1 to reps2 do
    (* alternate order so slow drift biases neither path *)
    if r land 1 = 1 then begin
      time_into d_dir direct_pass;
      time_into d_int interp_pass
    end
    else begin
      time_into d_int interp_pass;
      time_into d_dir direct_pass
    end
  done;
  let r_dir = float_of_int (np2 * reps2) /. !d_dir in
  let r_int = float_of_int (np2 * reps2) /. !d_int in
  let t = Table.create [ "path"; "Mparticles/s"; "ns/particle" ] in
  Table.add_row t
    [ "direct gather/scatter";
      Printf.sprintf "%.2f" (r_dir /. 1e6);
      Printf.sprintf "%.0f" (1e9 /. r_dir) ];
  Table.add_row t
    [ "interpolator/accumulator";
      Printf.sprintf "%.2f" (r_int /. 1e6);
      Printf.sprintf "%.0f" (1e9 /. r_int) ];
  Table.print
    ~title:
      (Printf.sprintf "Push.advance A/B, %d sorted particles (incl. load/unload)"
         np2)
    t;
  pf "interp/direct speedup: %.3fx\n" (r_int /. r_dir);
  (* -------- A/B: scalar vs block-vectorized Push.advance on the
     interpolator/accumulator fast path.  The coefficient load happens
     once, outside the timers, and the current clear is hoisted into
     the (untimed) per-rep setup, so the ratio isolates the kernel
     restructuring: 8-wide particle blocks against one run-cached
     72-byte interpolator block, fused gather/rotate/advance/deposit
     passes, cell-crossers falling out to the scalar cleanup pass. *)
  pf "\n###### push A/B: scalar vs block-vectorized kernel ######\n";
  let width = Push.default_block_width in
  Interpolator.load ip f2;
  let scalar_kernel_pass () =
    ignore (Push.advance ~interp:ip ~accum:ac s2 f2 Bc.periodic)
  in
  let lanes = ref 0 and cleanup = ref 0 in
  let block_kernel_pass () =
    let st =
      Push.advance ~interp:ip ~accum:ac ~kernel:(Push.Block { width }) s2 f2
        Bc.periodic
    in
    lanes := !lanes + st.Push.block_lanes;
    cleanup := !cleanup + st.Push.block_cleanup
  in
  let pipe = Spe_pipeline.create Roadrunner.full in
  let spe_pass () =
    ignore
      (Spe_pipeline.advance_species ~interp:ip ~accum:ac
         ~kernel:(Push.Block { width }) pipe s2 f2 Bc.periodic)
  in
  let time_kernel acc pass =
    Sort.by_voxel s2;
    Em_field.clear_currents f2;
    let _, d = Perf.timed pass in
    acc := !acc +. d
  in
  (* warm up all three paths, then drop the warm-up lane counts *)
  time_kernel (ref 0.) scalar_kernel_pass;
  time_kernel (ref 0.) block_kernel_pass;
  time_kernel (ref 0.) spe_pass;
  lanes := 0;
  cleanup := 0;
  let d_sc = ref 0. and d_bl = ref 0. and d_spe = ref 0. in
  for r = 1 to reps2 do
    (* alternate order so slow drift biases neither path *)
    if r land 1 = 1 then begin
      time_kernel d_sc scalar_kernel_pass;
      time_kernel d_bl block_kernel_pass;
      time_kernel d_spe spe_pass
    end
    else begin
      time_kernel d_spe spe_pass;
      time_kernel d_bl block_kernel_pass;
      time_kernel d_sc scalar_kernel_pass
    end
  done;
  let r_sc = float_of_int (np2 * reps2) /. !d_sc in
  let r_bl = float_of_int (np2 * reps2) /. !d_bl in
  let r_spe = float_of_int (np2 * reps2) /. !d_spe in
  let cleanup_frac =
    if !lanes > 0 then float_of_int !cleanup /. float_of_int !lanes else 0.
  in
  let t = Table.create [ "kernel"; "Mparticles/s"; "ns/particle" ] in
  let krow name r =
    Table.add_row t
      [ name; Printf.sprintf "%.2f" (r /. 1e6); Printf.sprintf "%.0f" (1e9 /. r) ]
  in
  krow "scalar (interp/accum)" r_sc;
  krow (Printf.sprintf "block%d" width) r_bl;
  krow (Printf.sprintf "spe stream (block%d)" width) r_spe;
  Table.print
    ~title:
      (Printf.sprintf "push kernel A/B, %d sorted particles (load outside timer)"
         np2)
    t;
  pf "block/scalar speedup: %.3fx (cleanup fraction %.4f)\n" (r_bl /. r_sc)
    cleanup_frac;
  pf "spe-stream/scalar speedup: %.3fx\n" (r_spe /. r_sc);
  (* -------- energy parity: a short srs deck stepped under both
     kernels must land on the bitwise-identical total energy — the
     block kernel is a scheduling change, not a numerical one. *)
  let parity_steps = if quick then 6 else 10 in
  let parity_config =
    { Deck.default with nx = 128; ny = 6; nz = 6; ppc = 2; vacuum = 3. }
  in
  let final_energy backend =
    let setup = Deck.build ~push_backend:backend parity_config in
    for _ = 1 to parity_steps do
      Simulation.step setup.Deck.sim
    done;
    (Simulation.energies setup.Deck.sim).Simulation.total
  in
  let e_scalar = final_energy Simulation.Host_scalar in
  let e_block = final_energy (Simulation.Host_block { width }) in
  let e_diff = e_block -. e_scalar in
  pf "energy parity over %d srs steps: scalar %.17g | block %.17g | diff %g\n"
    parity_steps e_scalar e_block e_diff;
  write_bench_json ~file:"BENCH_push.json" ~bench:"push" ~ranks:1
    ~results:
      [ ( "interp_accum",
          json_obj
            [ ("particles", string_of_int np2);
              ("reps", string_of_int reps2);
              ("direct_s", json_num (!d_dir /. float_of_int reps2));
              ("interp_s", json_num (!d_int /. float_of_int reps2));
              ("direct_particles_per_sec", json_num r_dir);
              ("interp_particles_per_sec", json_num r_int);
              ("speedup", Printf.sprintf "%.4f" (r_int /. r_dir)) ] );
        ( "block_push",
          json_obj
            [ ("particles", string_of_int np2);
              ("reps", string_of_int reps2);
              ("width", string_of_int width);
              ("cleanup_frac", json_num cleanup_frac);
              ("scalar_s", json_num (!d_sc /. float_of_int reps2));
              ("block_s", json_num (!d_bl /. float_of_int reps2));
              ("scalar_particles_per_sec", json_num r_sc);
              ("block_particles_per_sec", json_num r_bl);
              ("speedup", Printf.sprintf "%.4f" (r_bl /. r_sc));
              ( "spe",
                json_obj
                  [ ("spe_s", json_num (!d_spe /. float_of_int reps2));
                    ("host_particles_per_sec", json_num r_spe);
                    ( "spe_particle_rate",
                      json_num (Spe_pipeline.spe_particle_rate pipe) );
                    ( "machine_particle_rate",
                      json_num (Spe_pipeline.machine_particle_rate pipe) ) ] );
              ("energy_scalar", json_num e_scalar);
              ("energy_block", json_num e_block);
              ("energy_diff", json_num e_diff) ] ) ]

(* ----------------------------------------------------- whole-step bench *)

(* One serial Simulation.step, phase-resolved through the telemetry
   spans: the single number the scoreboard rates hang off, measured on a
   thermal box big enough that the push dominates. *)
let step_bench () =
  pf "\n###### step: whole-step phase breakdown (serial, via spans) ######\n";
  Trace.reset ();
  Trace.enable ~rank:0 ();
  let n = 24 in
  let l = 12. in
  let dx = l /. float_of_int n in
  let dt = Grid.courant_dt ~dx ~dy:dx ~dz:dx () in
  let grid = Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt () in
  let sim = Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic) () in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 5) e ~ppc:27 ~uth:0.08 ());
  let np = Species.count e in
  let steps = 30 in
  let ps0 = sim.Simulation.perf.Perf.particle_steps in
  let fl0 = sim.Simulation.perf.Perf.flops in
  let (), wall = Perf.timed (fun () -> Simulation.run sim ~steps ()) in
  let d_ps = sim.Simulation.perf.Perf.particle_steps -. ps0 in
  let d_fl = sim.Simulation.perf.Perf.flops -. fl0 in
  let fsteps = float_of_int steps in
  let totals = Trace.phase_totals () in
  let t = Table.create [ "phase"; "ms/step"; "% of step"; "spans" ] in
  let step_s =
    match List.find_opt (fun (n, _, _) -> n = "step") totals with
    | Some (_, s, _) -> s
    | None -> wall
  in
  let phase_rows =
    List.filter (fun (n, _, _) -> n <> "step") totals
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  List.iter
    (fun (name, s, count) ->
      Table.add_row t
        [ name;
          Printf.sprintf "%.3f" (1e3 *. s /. fsteps);
          Printf.sprintf "%.1f" (100. *. s /. Float.max 1e-12 step_s);
          string_of_int count ])
    phase_rows;
  Table.print
    ~title:
      (Printf.sprintf "whole step: %d particles, %d voxels, %d steps" np
         (Grid.interior_count grid) steps)
    t;
  let prate = d_ps /. wall in
  pf "particle rate: %.3e particle-steps/s | analytic %.3e flop/s\n" prate
    (d_fl /. wall);
  write_bench_json ~file:"BENCH_step.json" ~bench:"step" ~ranks:1
    ~results:
      ([ ("particles", string_of_int np);
         ("steps", string_of_int steps);
         ("wall_s", json_num wall);
         ("s_per_step", json_num (wall /. fsteps));
         ("particle_steps_per_sec", json_num prate);
         ("analytic_flops_per_sec", json_num (d_fl /. wall)) ]
      @ List.map
          (fun (name, s, _) ->
            ( "phase_s_per_step/" ^ name,
              json_num (s /. fsteps) ))
          phase_rows);
  Trace.reset ()

(* ----------------------------------------------------- rebalance bench *)

(* Over-decomposition: 2 ranks x 4 relocatable blocks with a
   deliberately skewed per-block particle load (ppc rises with block id,
   so rank 1's slabs start ~2.7x heavier than rank 0's).  The same world
   runs twice — static ownership vs the greedy rebalancer on the
   deterministic [`Particles] cost model — reporting the push imbalance
   before/after, the blocks and payload bytes shipped, the wall cost of
   the relocation machinery, and that the physics agrees. *)
let rebalance_bench () =
  pf "\n###### rebalance: scoreboard-driven block relocation (2 ranks x 4 blocks) ######\n";
  let module Multiblock = Vpic.Multiblock in
  let module Block = Vpic_grid.Block in
  let ranks = 2 and blocks = 4 in
  let steps = 40 and interval = 5 in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let mk_layout () =
    Block.over
      (Decomp.make ~px:1 ~py:blocks ~pz:1 ~gnx:8 ~gny:16 ~gnz:6 ~lx:4. ~ly:8.
         ~lz:3.)
  in
  (* block-id-skewed load: blocks 0..3 carry ppc 4, 10, 16, 22 *)
  let ppc_of id = 4 + (6 * id) in
  let build layout ~id ~coupler ~perf =
    let grid = Block.grid layout ~dt ~id in
    let sim =
      Simulation.make ~grid ~coupler ~perf ~clean_div_interval:7
        ~sort_interval:5 ()
    in
    let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
    ignore
      (Loader.maxwellian
         (Rng.of_int (211 + (17 * id)))
         e ~ppc:(ppc_of id) ~uth:0.08 ());
    let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
    Species.iter e (fun n ->
        let p = Species.get e n in
        Species.append ions { p with ux = 0.; uy = 0.; uz = 0. });
    sim
  in
  let variant ~threshold =
    Trace.reset ();
    let res =
      Comm.run ~ranks (fun c ->
          let rank = Comm.rank c in
          Trace.enable ~rank ();
          let layout = mk_layout () in
          let mb =
            Multiblock.create ~comm:c ~rebalance_interval:interval
              ~rebalance_threshold:threshold ~cost_model:`Particles ~layout
              ~global_bc:Bc.periodic ~build:(build layout) ()
          in
          Comm.barrier c;
          let (), wall = Perf.timed (fun () -> Multiblock.run mb ~steps ()) in
          let en = (Multiblock.energies mb).Simulation.total in
          ( Multiblock.last_imbalance mb,
            Comm.allreduce_sum c (float_of_int (Multiblock.migrations mb)),
            Comm.allreduce_sum c (Multiblock.ship_bytes mb),
            Comm.allreduce_max c wall,
            Comm.allreduce_max c
              (Trace.phase_seconds (Trace.intern "rebalance")),
            en ))
    in
    Trace.reset ();
    res.(0)
  in
  let imb_s, _, _, wall_s, chk_s, en_s = variant ~threshold:0. in
  let imb_d, moves, bytes, wall_d, chk_d, en_d = variant ~threshold:1.01 in
  let t =
    Table.create
      [ "ownership"; "imbalance (max/mean)"; "blocks shipped"; "payload KiB";
        "wall s"; "rebalance s" ]
  in
  Table.add_row t
    [ "static"; Printf.sprintf "%.3f" imb_s; "0"; "0";
      Printf.sprintf "%.2f" wall_s; Printf.sprintf "%.4f" chk_s ];
  Table.add_row t
    [ "rebalanced"; Printf.sprintf "%.3f" imb_d; Printf.sprintf "%.0f" moves;
      Printf.sprintf "%.1f" (bytes /. 1024.); Printf.sprintf "%.2f" wall_d;
      Printf.sprintf "%.4f" chk_d ];
  Table.print
    ~title:
      (Printf.sprintf
         "dynamic load balance, %d steps, check every %d (particle-count cost)"
         steps interval)
    t;
  let rel = Float.abs (en_d -. en_s) /. Float.abs en_s in
  pf "energy parity: static %.10e vs rebalanced %.10e (rel %.1e)\n" en_s en_d
    rel;
  pf "relocation machinery: %.4f s checks+shipping vs %.4f s checks only\n"
    chk_d chk_s;
  write_bench_json ~file:"BENCH_rebalance.json" ~bench:"rebalance" ~ranks
    ~results:
      [ ("blocks", string_of_int blocks);
        ("steps", string_of_int steps);
        ("rebalance_interval", string_of_int interval);
        ( "static",
          json_obj
            [ ("imbalance", json_num imb_s);
              ("wall_s", json_num wall_s);
              ("rebalance_s", json_num chk_s);
              ("energy", json_num en_s) ] );
        ( "rebalanced",
          json_obj
            [ ("imbalance", json_num imb_d);
              ("migrations", Printf.sprintf "%.0f" moves);
              ("shipped_bytes", Printf.sprintf "%.0f" bytes);
              ("wall_s", json_num wall_d);
              ("rebalance_s", json_num chk_d);
              ("energy", json_num en_d) ] );
        ("energy_rel_diff", json_num rel) ]

(* ------------------------------------------------------- bechamel mode *)

let bechamel_kernels () =
  let open Bechamel in
  let g, f, s = kernel_fixture () in
  Sort.by_voxel s;
  let out = Array.make 6 0. in
  let u = [| 0.1; 0.2; 0.3 |] in
  let tests =
    [ Test.make ~name:"E5/push-100-particles"
        (Staged.stage (fun () ->
             ignore (Push.advance ~first:0 ~count:100 s f Bc.periodic)));
      Test.make ~name:"E5/gather"
        (Staged.stage (fun () ->
             Vpic_particle.Interp.gather_into f ~i:8 ~j:8 ~k:8 ~fx:0.3 ~fy:0.6
               ~fz:0.9 ~out));
      Test.make ~name:"E5/boris"
        (Staged.stage (fun () ->
             Push.boris ~u ~ex:0.1 ~ey:0.2 ~ez:0.3 ~bx:0.1 ~by:0.2 ~bz:0.3
               ~qdt_2m:0.01));
      Test.make ~name:"E5/advance-e-field"
        (Staged.stage (fun () -> Maxwell.advance_e f));
      Test.make ~name:"E5/advance-b-field"
        (Staged.stage (fun () -> Maxwell.advance_b f ~frac:0.5));
      Test.make ~name:"E5/rho-deposit"
        (Staged.stage (fun () -> Moments.deposit_rho s ~rho:f.Em_field.rho));
      Test.make ~name:"E6/gauss-residual"
        (Staged.stage (fun () -> ignore (Diagnostics.gauss_residual f)));
      Test.make ~name:"E5/sort"
        (Staged.stage (fun () -> Sort.by_voxel s)) ]
  in
  let grouped = Test.make_grouped ~name:"vpic" tests in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  pf "\n###### bechamel kernel benches ######\n";
  pf "(per-run wall time; push batch = 100 particles, field kernels = %d voxels)\n"
    (Grid.interior_count g);
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort compare rows in
  let t = Table.create [ "bench"; "time/run"; "r^2" ] in
  let json_rows = ref [] in
  List.iter
    (fun (name, o) ->
      let est =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square o with Some r -> r | None -> nan in
      json_rows :=
        (name, json_obj [ ("ns_per_run", json_num est); ("r2", json_num r2) ])
        :: !json_rows;
      Table.add_row t
        [ name;
          (if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
           else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
           else Printf.sprintf "%.0f ns" est);
          Printf.sprintf "%.3f" r2 ])
    rows;
  Table.print ~title:"bechamel (monotonic clock, OLS)" t;
  write_bench_json ~file:"BENCH_kernels.json" ~bench:"kernels" ~ranks:1
    ~results:(List.rev !json_rows)


(* ------------------------------------------------------------ smp bench *)

(* Scalar-vs-team A/B on the srs deck: the identical stepped deck per
   worker count, so particles/s, speedup and parallel efficiency compare
   like against like.  Final energies are recorded next to the rates:
   across team sizes (1/2/4/8 workers) they must be bitwise equal — the
   Pool fixed-tile determinism contract — while the scalar baseline may
   differ in the last bits (legacy summation order).  Speedup is bounded
   by the machine's real core count, which is recorded in the results:
   on a 1-core container every team size measures ~1x, honestly. *)
let smp_bench ~quick () =
  pf "\n###### smp: scalar vs worker-team on the srs deck ######\n";
  let cores = Domain.recommended_domain_count () in
  let config = { Deck.default with ppc = (if quick then 2 else 8) } in
  let steps = if quick then 10 else 40 in
  let run ~workers =
    let setup = Deck.build config in
    let sim = setup.Deck.sim in
    let team = if workers >= 1 then Some (Team.create ~workers ()) else None in
    Option.iter (fun tm -> Simulation.set_pool sim (Team.pool tm)) team;
    let np = Simulation.total_particles sim in
    let (), wall =
      Perf.timed (fun () ->
          for _ = 1 to steps do
            Simulation.step sim
          done)
    in
    Option.iter Team.shutdown team;
    let en = (Simulation.energies sim).Simulation.total in
    (np, wall, en)
  in
  let np, wall_scalar, en_scalar = run ~workers:0 in
  let sweep = [ 1; 2; 4; 8 ] in
  let team_runs = List.map (fun w -> (w, run ~workers:w)) sweep in
  let rate wall = float_of_int np *. float_of_int steps /. wall in
  let _, wall_1w, en_1w = List.assoc 1 team_runs in
  let t =
    Table.create
      [ "mode"; "wall s"; "psteps/s"; "speedup vs 1w"; "efficiency";
        "final energy" ]
  in
  Table.add_row t
    [ "scalar"; Printf.sprintf "%.3f" wall_scalar;
      Printf.sprintf "%.3e" (rate wall_scalar); "-"; "-";
      Printf.sprintf "%.10e" en_scalar ];
  List.iter
    (fun (w, (_, wall, en)) ->
      let speedup = wall_1w /. wall in
      Table.add_row t
        [ Printf.sprintf "%d workers" w;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.3e" (rate wall);
          Printf.sprintf "%.2f" speedup;
          Printf.sprintf "%.2f" (speedup /. float_of_int w);
          Printf.sprintf "%.10e" en ])
    team_runs;
  Table.print
    ~title:
      (Printf.sprintf "smp A/B: %d particles, %d steps, %d cores" np steps
         cores)
    t;
  let invariant =
    List.for_all (fun (_, (_, _, en)) -> en = en_1w) team_runs
  in
  pf "team energies bitwise invariant across 1/2/4/8 workers: %b\n" invariant;
  if not invariant then
    List.iter
      (fun (w, (_, _, en)) -> pf "  %d workers: %.17e\n" w en)
      team_runs;
  write_bench_json ~file:"BENCH_smp.json" ~bench:"smp" ~ranks:1
    ~results:
      ([ ("particles", string_of_int np);
         ("steps", string_of_int steps);
         ("cores", string_of_int cores);
         ( "scalar",
           json_obj
             [ ("wall_s", json_num wall_scalar);
               ("particle_steps_per_sec", json_num (rate wall_scalar));
               ("final_energy", Printf.sprintf "%.17e" en_scalar) ] ) ]
      @ List.map
          (fun (w, (_, wall, en)) ->
            ( Printf.sprintf "workers_%d" w,
              json_obj
                [ ("workers", string_of_int w);
                  ("wall_s", json_num wall);
                  ("particle_steps_per_sec", json_num (rate wall));
                  ("speedup_vs_1w", json_num (wall_1w /. wall));
                  ( "efficiency",
                    json_num (wall_1w /. wall /. float_of_int w) );
                  ("final_energy", Printf.sprintf "%.17e" en) ] ))
          team_runs
      @ [ ( "speedup_4w",
            json_num
              (let _, wall4, _ = List.assoc 4 team_runs in
               wall_1w /. wall4) );
          ("energies_invariant", string_of_bool invariant) ])

(* ------------------------------------------------------------- campaign *)

let campaign_bench ~quick () =
  let module Campaign = Vpic_campaign.Service in
  let module Campaign_spec = Vpic_campaign.Spec in
  let module Campaign_queue = Vpic_campaign.Queue in
  let module Campaign_store = Vpic_campaign.Store in
  pf "\n###### campaign: lease queue + content-hash-cached store ######\n";
  let root = Filename.temp_file "vpic_campbench" "" in
  Sys.remove root;
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let base = { Deck.default with nx = 128; ppc = (if quick then 4 else 16) } in
  let steps = if quick then 30 else 80 in
  let spec =
    Campaign_spec.make ~base ~a0s:[ 0.02; 0.05; 0.08; 0.11 ] ~seeds:[ 1; 2 ]
      ~steps:[ steps ] ()
  in
  let q = Campaign_queue.create ~root in
  let store = Campaign_store.open_ ~root in
  let params =
    { Campaign.default_params with
      Campaign.workers = 2;
      checkpoint_every = 0;
      sentinel_every = 0 }
  in
  ignore (Campaign.submit q store spec);
  let cold, cold_wall = Perf.timed (fun () -> Campaign.work ~params q store) in
  (* Identical resubmit: every job is served from the results store. *)
  ignore (Campaign.submit q store spec);
  let warm, warm_wall = Perf.timed (fun () -> Campaign.work ~params q store) in
  let t = Table.create [ "pass"; "wall s"; "completed"; "cache hits"; "sim steps" ] in
  Table.add_row t
    [ "cold"; Printf.sprintf "%.3f" cold_wall;
      string_of_int cold.Campaign.completed;
      string_of_int cold.Campaign.cache_hits;
      string_of_int cold.Campaign.sim_steps ];
  Table.add_row t
    [ "warm"; Printf.sprintf "%.3f" warm_wall;
      string_of_int warm.Campaign.completed;
      string_of_int warm.Campaign.cache_hits;
      string_of_int warm.Campaign.sim_steps ];
  Table.print
    ~title:
      (Printf.sprintf "campaign A/B: %d jobs x %d steps, 2 workers"
         (Campaign_spec.cardinality spec) steps)
    t;
  pf "warm resubmit: %d/%d cache hits, %d simulation steps (%.0fx faster)\n"
    warm.Campaign.cache_hits
    (Campaign_spec.cardinality spec)
    warm.Campaign.sim_steps
    (cold_wall /. Float.max warm_wall 1e-9);
  write_bench_json ~file:"BENCH_campaign.json" ~bench:"campaign" ~ranks:1
    ~results:
      [ ("jobs", string_of_int (Campaign_spec.cardinality spec));
        ("steps_per_job", string_of_int steps);
        ("workers", "2");
        ( "cold",
          json_obj
            [ ("wall_s", json_num cold_wall);
              ("completed", string_of_int cold.Campaign.completed);
              ("cache_hits", string_of_int cold.Campaign.cache_hits);
              ("sim_steps", string_of_int cold.Campaign.sim_steps) ] );
        ( "warm",
          json_obj
            [ ("wall_s", json_num warm_wall);
              ("completed", string_of_int warm.Campaign.completed);
              ("cache_hits", string_of_int warm.Campaign.cache_hits);
              ("sim_steps", string_of_int warm.Campaign.sim_steps) ] );
        ("cold_over_warm", json_num (cold_wall /. Float.max warm_wall 1e-9)) ]

(* ----------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --date=STAMP pins the bench-JSON meta date (reproducible artifacts) *)
  let args =
    List.filter
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--date" ->
            bench_date := String.sub a (i + 1) (String.length a - i - 1);
            false
        | _ -> true)
      args
  in
  let quick = List.mem "quick" args in
  let sections =
    match List.filter (fun a -> a <> "quick") args with
    | [] -> [ "figures" ]
    | l -> l
  in
  let run = function
    | "figures" | "all" ->
        e1_headline ();
        e2_weak_scaling ();
        e3_e4_reflectivity ~quick ();
        e5_kernels ();
        e6_conservation ();
        v1_two_stream ();
        v2_plasma_oscillation ()
    | "e1" -> e1_headline ()
    | "e2" -> e2_weak_scaling ()
    | "e3" | "e4" -> e3_e4_reflectivity ~quick ()
    | "e5" -> e5_kernels ()
    | "e6" -> e6_conservation ()
    | "v1" -> v1_two_stream ()
    | "v2" -> v2_plasma_oscillation ()
    | "kernels" ->
        push_bench ~quick ();
        bechamel_kernels ()
    | "push" -> push_bench ~quick ()
    | "step" -> step_bench ()
    | "rebalance" -> rebalance_bench ()
    | "smp" -> smp_bench ~quick ()
    | "campaign" -> campaign_bench ~quick ()
    | other ->
        pf "unknown section %s (e1..e6, v1, v2, push, step, rebalance, smp, \
            campaign, kernels, figures)\n"
          other
  in
  List.iter run sections;
  if List.mem "kernels" sections then ()
  else pf "\n(kernel microbenches: dune exec bench/main.exe -- kernels)\n"
