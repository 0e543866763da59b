open Helpers
module Srs_theory = Vpic_lpi.Srs_theory
module Reflectivity = Vpic_lpi.Reflectivity
module Deck = Vpic_lpi.Deck
module Trapping = Vpic_lpi.Trapping
module Sweep = Vpic_lpi.Sweep
module Simulation = Vpic.Simulation
module Multiblock = Vpic.Multiblock
module Comm = Vpic_parallel.Comm

let hohlraum = { Srs_theory.nr = 0.10; uth = sqrt (2.5 /. 510.99895) }

(* --- Linear theory --------------------------------------------------------- *)

let test_matching_conserves () =
  let m = Srs_theory.matching hohlraum in
  (* frequency and wavenumber matching must hold exactly *)
  check_close ~rtol:1e-10 "omega matching" m.Srs_theory.omega0
    (m.Srs_theory.omega_s +. m.Srs_theory.omega_ek);
  check_close ~rtol:1e-10 "k matching" m.Srs_theory.k0
    (m.Srs_theory.k_s +. m.Srs_theory.k_ek);
  (* both EM waves on the light-wave dispersion *)
  check_close ~rtol:1e-10 "pump dispersion"
    ((m.Srs_theory.omega0 *. m.Srs_theory.omega0) -. 1.)
    (m.Srs_theory.k0 *. m.Srs_theory.k0);
  check_close ~rtol:1e-10 "scattered dispersion"
    ((m.Srs_theory.omega_s *. m.Srs_theory.omega_s) -. 1.)
    (m.Srs_theory.k_s *. m.Srs_theory.k_s);
  (* EPW on Bohm-Gross *)
  check_close ~rtol:1e-10 "EPW dispersion"
    (Vpic_util.Specfun.bohm_gross_omega ~k_lambda_d:m.Srs_theory.k_lambda_d)
    m.Srs_theory.omega_ek

let test_matching_hohlraum_values () =
  (* known regime for n/ncr = 0.1, Te = 2.5 keV backscatter *)
  let m = Srs_theory.matching hohlraum in
  check_close ~rtol:1e-6 "pump frequency" (1. /. sqrt 0.1) m.Srs_theory.omega0;
  check_true "scattered goes backward" (m.Srs_theory.k_s < 0.);
  check_true "k lambda_D in the strongly kinetic range"
    (m.Srs_theory.k_lambda_d > 0.25 && m.Srs_theory.k_lambda_d < 0.45);
  check_true "phase velocity in the tail"
    (m.Srs_theory.v_phase > 3. *. hohlraum.Srs_theory.uth
    && m.Srs_theory.v_phase < 6. *. hohlraum.Srs_theory.uth);
  check_true "EPW Landau damped" (m.Srs_theory.nu_ek > 1e-3)

let test_growth_rate_scaling () =
  let g1 = Srs_theory.growth_rate hohlraum ~a0:0.05 in
  let g2 = Srs_theory.growth_rate hohlraum ~a0:0.10 in
  check_close ~rtol:1e-12 "gamma linear in a0" (2. *. g1) g2;
  check_true "magnitude sane" (g1 > 0.01 && g1 < 0.2)

let test_convective_gain_scaling () =
  let g = Srs_theory.convective_gain hohlraum ~a0:0.06 ~l:15. in
  let g2 = Srs_theory.convective_gain hohlraum ~a0:0.12 ~l:15. in
  let gl = Srs_theory.convective_gain hohlraum ~a0:0.06 ~l:30. in
  check_close ~rtol:1e-10 "gain quadratic in a0" (4. *. g) g2;
  check_close ~rtol:1e-10 "gain linear in L" (2. *. g) gl

let test_threshold () =
  let a_th = Srs_theory.threshold_a0 hohlraum ~l:15. in
  check_close ~rtol:1e-9 "G(a_th) = 1" 1.
    (Srs_theory.convective_gain hohlraum ~a0:a_th ~l:15.)

let test_seeded_reflectivity_shape () =
  let r_at a0 =
    Srs_theory.seeded_reflectivity hohlraum ~a0 ~l:15. ~r_seed:1e-3 ()
  in
  (* monotone rise, saturating below r_max *)
  check_true "monotone" (r_at 0.02 < r_at 0.06 && r_at 0.06 < r_at 0.15);
  check_true "saturates" (r_at 0.5 <= 0.5);
  (* small gain limit: R ~ r_seed e^G *)
  let g = Srs_theory.convective_gain hohlraum ~a0:0.02 ~l:15. in
  check_close ~rtol:0.01 "linear regime" (1e-3 *. exp g) (r_at 0.02)

(* --- Reflectivity diagnostic ------------------------------------------------ *)

let synthetic_wave_test ~forward =
  let g = small_grid ~n:8 ~l:8. () in
  let f = Em_field.create g in
  let e0 = 0.4 and omega = 2.0 in
  let refl = Reflectivity.create ~window:200 ~plane_i:4 ~e0 () in
  (* dt chosen so the 200-sample window spans exactly 5 periods *)
  let dt = Float.pi /. 40. in
  for step = 0 to 400 do
    let phase = omega *. float_of_int step *. dt in
    let ey = e0 *. cos phase in
    let bz = if forward then ey else -.ey in
    Sf.fill f.Em_field.ey ey;
    Sf.fill f.Em_field.bz bz;
    Reflectivity.sample refl f
  done;
  refl

let test_reflectivity_forward_wave () =
  let refl = synthetic_wave_test ~forward:true in
  check_close ~atol:1e-12 "no backscatter" 0. (Reflectivity.reflectivity refl);
  check_close ~rtol:1e-6 "forward intensity e0^2/2" (0.5 *. 0.4 *. 0.4)
    (Reflectivity.forward_intensity refl)

let test_reflectivity_backward_wave () =
  let refl = synthetic_wave_test ~forward:false in
  check_close ~rtol:1e-6 "full reflection" 1. (Reflectivity.reflectivity refl)

(* --- Deck -------------------------------------------------------------------- *)

let small_deck =
  { Deck.default with nx = 96; ppc = 8; vacuum = 3.; rng_seed = 5 }

let test_deck_builds () =
  let setup = Deck.build small_deck in
  let sim = setup.Deck.sim in
  let electrons = Simulation.find_species sim "electron" in
  let ions = Simulation.find_species sim "ion" in
  Alcotest.(check int) "co-located ions" (Species.count electrons)
    (Species.count ions);
  (* plasma fills the box minus the vacuum buffers *)
  let lx = float_of_int small_deck.Deck.nx *. small_deck.Deck.dx in
  let plasma_cells =
    int_of_float ((lx -. (2. *. small_deck.Deck.vacuum)) /. small_deck.Deck.dx)
  in
  let expected = plasma_cells * small_deck.Deck.ny * small_deck.Deck.nz * 8 in
  Alcotest.(check int) "electron count" expected (Species.count electrons);
  (* exact initial neutrality from co-location *)
  check_close ~atol:1e-12 "neutral" 0.
    (Species.total_charge electrons +. Species.total_charge ions);
  check_true "steps suggestion sane" (Deck.suggested_steps small_deck > 100)

let test_deck_e0 () =
  check_close ~rtol:1e-12 "e0 = a0 omega0"
    (small_deck.Deck.a0 /. sqrt small_deck.Deck.nr)
    (Deck.e0_of small_deck)

(* --- Trapping diagnostics ----------------------------------------------------- *)

let maxwellian_species ~uth ~n =
  let g = small_grid ~n:4 ~l:4. () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 77 in
  for _ = 1 to n do
    Species.append s
      { i = 1; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5;
        ux = uth *. Rng.normal rng;
        uy = uth *. Rng.normal rng;
        uz = uth *. Rng.normal rng;
        w = 1. }
  done;
  s

let test_distribution_normalised () =
  let s = maxwellian_species ~uth:0.07 ~n:20000 in
  let fv = Trapping.distribution s in
  check_close ~rtol:1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. fv.Trapping.f)

let test_flattening_of_maxwellian_is_unity () =
  let uth = 0.07 in
  let s = maxwellian_species ~uth ~n:200000 in
  let fv = Trapping.distribution s in
  let r = Trapping.flattening fv ~v_phase:(3. *. uth) ~uth ~width:0.04 in
  check_close ~rtol:0.35 "slope ratio ~ 1 for untouched maxwellian" 1. r

let test_flattening_detects_plateau () =
  let uth = 0.07 in
  let s = maxwellian_species ~uth ~n:200000 in
  (* flatten by hand: scatter u_x of particles near 3 uth uniformly *)
  let rng = Rng.of_int 5 in
  Species.iter s (fun n ->
      let p = Species.get s n in
      let ux = p.Particle.ux in
      if ux > 2.2 *. uth && ux < 3.8 *. uth then
        Species.set s n
          { p with ux = Rng.uniform_in rng (2.2 *. uth) (3.8 *. uth) });
  let fv = Trapping.distribution s in
  let r = Trapping.flattening fv ~v_phase:(3. *. uth) ~uth ~width:0.04 in
  check_true (Printf.sprintf "plateau detected (ratio %.3f)" r) (r < 0.4)

let test_hot_fraction () =
  let s = maxwellian_species ~uth:0.05 ~n:10000 in
  check_close ~atol:1e-9 "cold plasma has no 50-keV tail" 0.
    (Trapping.hot_fraction s ~threshold_kev:50.);
  (* add one relativistic electron: weighted fraction = 1/(n+1) *)
  Species.append s
    { i = 1; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.; uz = 0.; w = 1. };
  check_close ~rtol:1e-6 "one hot electron" (1. /. 10001.)
    (Trapping.hot_fraction s ~threshold_kev:50.)

(* --- End-to-end SRS amplification (scaled down; E3's mechanism) ------------- *)

let test_srs_seed_amplification () =
  (* The E3 mechanism, scaled down: with a fixed injected seed, the
     absolute backscattered intensity leaving the plasma must grow
     strongly with pump amplitude (seed amplification by SRS). *)
  let base = { small_deck with ppc = 8; r_seed = 0. } in
  let steps = Deck.suggested_steps base in
  let backscatter a0 =
    let seed_e0 = 0.05 *. Deck.e0_of { base with Deck.a0 = 0.14 } in
    (* identical absolute seed for every pump *)
    let setup = Deck.build { base with Deck.a0 } in
    Vpic.Simulation.add_laser setup.Deck.sim
      (Vpic_field.Laser.make ~omega:setup.Deck.matching.Srs_theory.omega_s
         ~e0:seed_e0
         ~plane_i:(base.Deck.nx - 13)
         ~t_rise:10. ());
    ignore (Deck.run setup ~steps);
    Reflectivity.backscatter_intensity setup.Deck.refl
  in
  let b_weak = backscatter 0.03 in
  let b_strong = backscatter 0.14 in
  check_true
    (Printf.sprintf "pump amplifies the seed (%.3e -> %.3e)" b_weak b_strong)
    (b_strong > 2. *. b_weak)

(* The world's trapping lines, right after build: the same 4 blocks on
   1 rank and on 2 ranks agree, and the 1-rank value is the one a plain
   loop over all four blocks' electrons gives. *)
let test_world_trapping_lines () =
  let config = { small_deck with Deck.ny = 8 } in
  let one = Deck.build_over ~blocks:4 config in
  let hot1, flat1 = Deck.trapping_over one in
  let two =
    Comm.run ~ranks:2 (fun c ->
        Deck.trapping_over (Deck.build_over ~comm:c ~blocks:4 config))
  in
  let lo = -0.6 and hi = 0.6 and bins = 240 in
  let scale = float_of_int bins /. (hi -. lo) in
  let thresh = 3. *. config.Deck.te_kev /. 510.99895 in
  let h = Array.make bins 0. and whot = ref 0. and wtot = ref 0. in
  List.iter
    (fun (_, sim) ->
      let s = Simulation.find_species sim "electron" in
      let st = s.Species.store in
      for n = 0 to Species.count s - 1 do
        let ux = st.Store.ux.{n} and uy = st.Store.uy.{n} in
        let uz = st.Store.uz.{n} and w = st.Store.w.{n} in
        let u2 = (ux *. ux) +. (uy *. uy) +. (uz *. uz) in
        let gamma = sqrt (1. +. u2) in
        wtot := !wtot +. w;
        if s.Species.m *. u2 /. (gamma +. 1.) > thresh then whot := !whot +. w;
        let b = int_of_float (Float.floor (((ux *. (1. /. gamma)) -. lo) *. scale)) in
        if b >= 0 && b < bins then h.(b) <- h.(b) +. w
      done)
    (Multiblock.owned_sims one.Deck.mb);
  let total = Array.fold_left ( +. ) 0. h in
  let fv =
    { Trapping.centers =
        Array.init bins (fun b ->
            lo +. ((float_of_int b +. 0.5) *. ((hi -. lo) /. float_of_int bins)));
      f = Array.map (fun x -> x /. total) h }
  in
  let flat_ref =
    Trapping.flattening fv ~v_phase:one.Deck.matching.Srs_theory.v_phase
      ~uth:one.Deck.plasma.Srs_theory.uth ~width:0.05
  in
  check_true "some electrons are hot" (!whot > 0.);
  check_close ~rtol:1e-12 ~atol:0. "1 rank: hot fraction by hand"
    (!whot /. !wtot) hot1;
  check_close ~rtol:1e-12 ~atol:0. "1 rank: flattening by hand" flat_ref flat1;
  Array.iteri
    (fun r (hot, flat) ->
      check_close ~rtol:1e-12 ~atol:0.
        (Printf.sprintf "2 ranks, rank %d: hot fraction" r) hot1 hot;
      check_close ~rtol:1e-12 ~atol:0.
        (Printf.sprintf "2 ranks, rank %d: flattening" r) flat1 flat)
    two

let suite =
  [ case "theory: matching conservation laws" test_matching_conserves;
    case "theory: hohlraum regime values" test_matching_hohlraum_values;
    case "theory: growth rate scaling" test_growth_rate_scaling;
    case "theory: convective gain scaling" test_convective_gain_scaling;
    case "theory: threshold" test_threshold;
    case "theory: seeded reflectivity shape" test_seeded_reflectivity_shape;
    case "reflectivity: forward wave" test_reflectivity_forward_wave;
    case "reflectivity: backward wave" test_reflectivity_backward_wave;
    case "deck: builds consistently" test_deck_builds;
    case "deck: e0 relation" test_deck_e0;
    case "trapping: f(v) normalised" test_distribution_normalised;
    case "trapping: maxwellian slope ratio" test_flattening_of_maxwellian_is_unity;
    case "trapping: plateau detection" test_flattening_detects_plateau;
    case "trapping: hot fraction" test_hot_fraction;
    case "trapping: world lines agree on 1 and 2 ranks" test_world_trapping_lines;
    slow_case "srs: seeded amplification grows with pump"
      test_srs_seed_amplification ]
