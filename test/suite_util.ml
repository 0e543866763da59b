open Helpers
module Rng = Vpic_util.Rng
module Stats = Vpic_util.Stats
module Specfun = Vpic_util.Specfun
module Constants = Vpic_util.Constants
module Table = Vpic_util.Table

(* --- Vec3 ---------------------------------------------------------------- *)

let v3 = Vec3.make

let test_vec3_algebra () =
  let a = v3 1. 2. 3. and b = v3 (-2.) 0.5 4. in
  check_close "dot" ((1. *. -2.) +. (2. *. 0.5) +. 12.) (Vec3.dot a b);
  check_true "cross perp a" (Approx.close ~atol:1e-15 0. (Vec3.dot a (Vec3.cross a b)));
  check_true "cross perp b" (Approx.close ~atol:1e-15 0. (Vec3.dot b (Vec3.cross a b)));
  check_close "norm" (sqrt 14.) (Vec3.norm a);
  check_true "axpy" (Vec3.equal (Vec3.axpy 2. a b) (v3 0. 4.5 10.));
  check_true "lerp midpoint"
    (Vec3.equal ~eps:1e-15 (Vec3.lerp 0.5 a b) (v3 (-0.5) 1.25 3.5))

let vec3_qcheck =
  qcheck "vec3: cross is antisymmetric"
    QCheck2.Gen.(tup2 (triple (float_range (-10.) 10.) (float_range (-10.) 10.) (float_range (-10.) 10.))
                   (triple (float_range (-10.) 10.) (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun ((ax, ay, az), (bx, by, bz)) ->
      let a = v3 ax ay az and b = v3 bx by bz in
      Vec3.equal ~eps:1e-12 (Vec3.cross a b) (Vec3.neg (Vec3.cross b a)))

(* --- Rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    check_close "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_split_independent () =
  let root = Rng.of_int 7 in
  let a = Rng.split root 1 and b = Rng.split root 2 in
  let xa = List.init 64 (fun _ -> Rng.uniform a) in
  let xb = List.init 64 (fun _ -> Rng.uniform b) in
  check_true "streams differ" (xa <> xb)

let test_rng_uniform_moments () =
  let rng = Rng.of_int 3 in
  let st = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add st (Rng.uniform rng)
  done;
  check_close ~rtol:0.01 "mean 1/2" 0.5 (Stats.mean st);
  check_close ~rtol:0.02 "var 1/12" (1. /. 12.) (Stats.variance st);
  check_true "range" (Stats.min st >= 0. && Stats.max st < 1.)

let test_rng_normal_moments () =
  let rng = Rng.of_int 5 in
  let st = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add st (Rng.normal rng)
  done;
  check_close ~atol:0.01 "mean 0" 0. (Stats.mean st);
  check_close ~rtol:0.02 "var 1" 1. (Stats.variance st)

let test_rng_int_range () =
  let rng = Rng.of_int 11 in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Rng.int rng 7 in
    check_true "in range" (v >= 0 && v < 7);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> check_true "roughly uniform" (c > 800 && c < 1200)) counts

let test_rng_shuffle_permutes () =
  let rng = Rng.of_int 13 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle rng b;
  check_true "same multiset"
    (List.sort compare (Array.to_list b) = Array.to_list a);
  check_true "actually shuffled" (b <> a)

(* A stateless draw is the stream's draw at the same position, bit for
   bit, and its moments are a uniform's. *)
let test_rng_uniform_at_is_the_stream () =
  let key = 0x1234_5678_9ABCL in
  let stream = Rng.create key in
  for i = 0 to 99 do
    let x = Rng.uniform stream in
    if Int64.bits_of_float x <> Int64.bits_of_float (Rng.uniform_at key i) then
      Alcotest.failf "draw %d: %h <> %h" i x (Rng.uniform_at key i)
  done;
  let st = Stats.create () in
  for k = 0 to 99_999 do
    Stats.add st (Rng.uniform_at (Rng.mix64 (Int64.of_int k)) 0)
  done;
  check_close ~rtol:0.01 "mean 1/2" 0.5 (Stats.mean st);
  check_close ~rtol:0.02 "var 1/12" (1. /. 12.) (Stats.variance st)

(* --- Stats ----------------------------------------------------------------- *)

let test_stats_welford_matches_direct () =
  let xs = [| 1.; 2.; 4.; 8.; 16.; -3.; 0.5 |] in
  let st = Stats.create () in
  Array.iter (Stats.add st) xs;
  let n = float_of_int (Array.length xs) in
  let mu = Array.fold_left ( +. ) 0. xs /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0. xs
    /. (n -. 1.)
  in
  check_close "mean" mu (Stats.mean st);
  check_close "variance" var (Stats.variance st)

let test_stats_merge () =
  let xs = Array.init 100 (fun i -> sin (float_of_int i)) in
  let all = Stats.create () and a = Stats.create () and b = Stats.create () in
  Array.iteri
    (fun i x ->
      Stats.add all x;
      Stats.add (if i < 37 then a else b) x)
    xs;
  let m = Stats.merge a b in
  check_close "merged mean" (Stats.mean all) (Stats.mean m);
  check_close ~rtol:1e-10 "merged var" (Stats.variance all) (Stats.variance m);
  check_close "merged min" (Stats.min all) (Stats.min m)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_close "median" 50. (Stats.percentile 50. xs);
  check_close "p0" 0. (Stats.percentile 0. xs);
  check_close "p100" 100. (Stats.percentile 100. xs);
  check_close "p25" 25. (Stats.percentile 25. xs)

let test_stats_linear_fit () =
  let xs = Array.init 50 float_of_int in
  let ys = Array.map (fun x -> 3. +. (0.7 *. x)) xs in
  let a, b, r2 = Stats.linear_fit xs ys in
  check_close "intercept" 3. a;
  check_close "slope" 0.7 b;
  check_close "r2" 1. r2

let test_stats_log_linear_fit () =
  let xs = Array.init 40 (fun i -> 0.1 *. float_of_int i) in
  let ys = Array.map (fun x -> 2. *. exp (0.5 *. x)) xs in
  let loga, b, r2 = Stats.log_linear_fit xs ys in
  check_close ~rtol:1e-9 "log intercept" (log 2.) loga;
  check_close ~rtol:1e-9 "rate" 0.5 b;
  check_close "r2" 1. r2

(* --- Specfun ----------------------------------------------------------------- *)

let test_erf_known_values () =
  (* reference values from tables *)
  check_close ~rtol:1e-7 "erf(0.5)" 0.5204998778 (Specfun.erf 0.5);
  check_close ~rtol:1e-7 "erf(1)" 0.8427007929 (Specfun.erf 1.0);
  check_close ~rtol:1e-7 "erf(2)" 0.9953222650 (Specfun.erf 2.0);
  check_close ~rtol:1e-6 "erf(3)" 0.9999779095 (Specfun.erf 3.0);
  check_close "erf(0)" 0. (Specfun.erf 0.);
  check_close ~rtol:1e-7 "erf(-1) odd" (-0.8427007929) (Specfun.erf (-1.))

let test_erfc_complement () =
  List.iter
    (fun x ->
      check_close ~rtol:1e-9 "erf + erfc = 1" 1.
        (Specfun.erf x +. Specfun.erfc x))
    [ 0.1; 0.7; 1.5; 2.5; 4. ]

let test_dawson_known_values () =
  (* F(1) = 0.5380795069; F(2) = 0.3013403889; F(0.5)=0.4244363835 *)
  check_close ~rtol:1e-6 "dawson(0.5)" 0.4244363835 (Specfun.dawson 0.5);
  check_close ~rtol:1e-6 "dawson(1)" 0.5380795069 (Specfun.dawson 1.0);
  check_close ~rtol:1e-6 "dawson(2)" 0.3013403889 (Specfun.dawson 2.0);
  check_close ~rtol:1e-6 "odd" (-0.5380795069) (Specfun.dawson (-1.))

let test_plasma_z_consistency () =
  (* Z(x) = i sqrt(pi) w(x); check against -2 Dawson and the known
     identity Z'(x) = -2(1 + x Z(x)). *)
  List.iter
    (fun x ->
      let zr, zi = Specfun.plasma_z x in
      check_close ~rtol:1e-9 "Re Z" (-2. *. Specfun.dawson x) zr;
      check_close ~rtol:1e-9 "Im Z" (sqrt Float.pi *. exp (-.(x *. x))) zi;
      let zr', zi' = Specfun.plasma_z_prime x in
      check_close ~rtol:1e-9 "Re Z'" (-2. *. (1. +. (x *. zr))) zr';
      check_close ~rtol:1e-9 "Im Z'" (-2. *. x *. zi) zi')
    [ 0.3; 1.0; 2.2 ]

let test_landau_damping_scaling () =
  (* Damping must increase steeply with k lambda_D and match the known
     value near k lambda_D = 0.3 within the expansion's accuracy. *)
  let d1 = Specfun.landau_damping_rate ~k_lambda_d:0.2 in
  let d2 = Specfun.landau_damping_rate ~k_lambda_d:0.3 in
  let d3 = Specfun.landau_damping_rate ~k_lambda_d:0.4 in
  check_true "monotone" (d1 < d2 && d2 < d3);
  (* the asymptotic formula overestimates here; just check the magnitude *)
  check_close ~rtol:0.7 "asymptotic magnitude at kld=0.3" 0.0126 d2;
  (* the kinetic root is accurate: omega ~ 1.16, gamma ~ 0.0126 *)
  let w, gamma = Specfun.landau_root ~k_lambda_d:0.3 in
  check_close ~rtol:0.01 "exact omega kld=0.3" 1.16 w;
  check_close ~rtol:0.05 "exact gamma kld=0.3" 0.0126 gamma;
  (* and at kld=0.5: gamma ~ 0.157 omega_pe (strongly damped) *)
  let _, g5 = Specfun.landau_root ~k_lambda_d:0.5 in
  check_close ~rtol:0.12 "exact gamma kld=0.5" 0.157 g5

let test_faddeeva_values () =
  let w0 = Specfun.faddeeva { Complex.re = 0.; im = 0. } in
  check_close ~rtol:1e-4 "w(0) = 1" 1. w0.Complex.re;
  check_close ~atol:1e-6 "w(0) imag" 0. w0.Complex.im;
  (* w(iy) = e^{y^2} erfc(y): w(2i) = 0.25540 *)
  let w2i = Specfun.faddeeva { Complex.re = 0.; im = 2. } in
  check_close ~rtol:1e-3 "w(2i)" 0.25540 w2i.Complex.re;
  (* real axis: w(x) = e^{-x^2} + 2i F(x)/sqrt(pi) *)
  List.iter
    (fun x ->
      let w = Specfun.faddeeva { Complex.re = x; im = 0. } in
      check_close ~rtol:2e-3 ~atol:1e-6 "Re w real axis"
        (exp (-.(x *. x)))
        w.Complex.re;
      check_close ~rtol:2e-3 "Im w real axis"
        (2. *. Specfun.dawson x /. sqrt Float.pi)
        w.Complex.im)
    [ 0.5; 1.5; 3.0; 7.0 ];
  (* lower half plane via the reflection identity *)
  let wlow = Specfun.faddeeva { Complex.re = 1.; im = -0.5 } in
  check_true "finite in lower half plane"
    (Float.is_finite wlow.Complex.re && Float.is_finite wlow.Complex.im)

let test_bohm_gross () =
  check_close "k=0" 1. (Specfun.bohm_gross_omega ~k_lambda_d:0.);
  check_close ~rtol:1e-12 "k=0.3" (sqrt (1. +. (3. *. 0.09)))
    (Specfun.bohm_gross_omega ~k_lambda_d:0.3)

(* --- Constants ----------------------------------------------------------------- *)

let test_plasma_frequency () =
  (* n = 1e19 m^-3 -> omega_pe ~ 1.784e11 rad/s *)
  check_close ~rtol:1e-3 "omega_pe(1e19)" 1.784e11
    (Constants.plasma_frequency 1e19)

let test_critical_density () =
  (* 351 nm -> n_cr ~ 9.05e27 m^-3 (9.05e21 cm^-3) *)
  check_close ~rtol:0.01 "n_cr(351nm)" 9.05e27
    (Constants.critical_density ~lambda:351e-9)

let test_a0_intensity_roundtrip () =
  let lambda = 351e-9 in
  let i0 = 2e15 in
  let a0 = Constants.a0_of_intensity ~intensity_w_cm2:i0 ~lambda in
  check_close ~rtol:1e-12 "roundtrip"
    i0
    (Constants.intensity_of_a0 ~a0 ~lambda);
  (* a0 ~ 0.0135 at 2e15 W/cm^2, 351nm *)
  check_close ~rtol:0.02 "a0 magnitude" 0.0135 a0

let test_debye_length () =
  (* T=1keV, n=1e27 m^-3: lD = v_th/omega_pe ~ 7.43e-9 m *)
  let ld = Constants.debye_length ~n_e:1e27 ~t_ev:1000. in
  check_close ~rtol:0.01 "debye" 7.43e-9 ld

let test_laser_omega_norm () =
  let norm = Constants.make_norm ~n_ref:(0.1 *. Constants.critical_density ~lambda:351e-9) in
  check_close ~rtol:1e-9 "omega0/omega_pe at 0.1 ncr" (1. /. sqrt 0.1)
    (Constants.laser_omega norm ~lambda:351e-9)

(* --- Table ----------------------------------------------------------------- *)

let test_table_render_and_csv () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; Table.cell_f 1.5 ];
  Table.add_row t [ "beta"; Table.cell_i 42 ];
  let s = Table.render t in
  check_true "has header" (String.length s > 0);
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "name,value\nalpha,1.5\nbeta,42\n" csv

let qcheck_rng_unit_interval =
  qcheck "rng: uniform stays in [0,1)" ~count:500
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let x = Rng.uniform rng in
      x >= 0. && x < 1.)

let qcheck_stats_merge =
  qcheck "stats: merge equals whole" ~count:100
    QCheck2.Gen.(tup2 (list_size (int_range 2 30) (float_range (-100.) 100.))
                   (list_size (int_range 2 30) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      List.iter (fun x -> Stats.add a x; Stats.add whole x) xs;
      List.iter (fun y -> Stats.add b y; Stats.add whole y) ys;
      let m = Stats.merge a b in
      Approx.close ~rtol:1e-9 ~atol:1e-12 (Stats.mean whole) (Stats.mean m)
      && Approx.close ~rtol:1e-7 ~atol:1e-10 (Stats.variance whole) (Stats.variance m))

let qcheck_erf_odd_monotone =
  qcheck "specfun: erf odd and monotone" ~count:200
    QCheck2.Gen.(tup2 (float_range (-4.) 4.) (float_range 0.001 1.))
    (fun (x, dx) ->
      Approx.close ~rtol:1e-7 ~atol:1e-12 (Specfun.erf (-.x)) (-.(Specfun.erf x))
      && Specfun.erf (x +. dx) > Specfun.erf x)

let qcheck_faddeeva_conj_symmetry =
  (* w(-conj z) = conj (w z) for Im z > 0 *)
  qcheck "specfun: faddeeva reflection symmetry" ~count:100
    QCheck2.Gen.(tup2 (float_range (-5.) 5.) (float_range 0.01 5.))
    (fun (re, im) ->
      let z = { Complex.re; im } in
      let w = Specfun.faddeeva z in
      let w' = Specfun.faddeeva { Complex.re = -.re; im } in
      Approx.close ~rtol:2e-3 ~atol:1e-8 w'.Complex.re w.Complex.re
      && Approx.close ~rtol:2e-3 ~atol:1e-8 w'.Complex.im (-.w.Complex.im))

let suite =
  [ case "vec3: algebra" test_vec3_algebra;
    vec3_qcheck;
    case "rng: deterministic" test_rng_deterministic;
    case "rng: split independence" test_rng_split_independent;
    case "rng: uniform moments" test_rng_uniform_moments;
    case "rng: normal moments" test_rng_normal_moments;
    case "rng: int range" test_rng_int_range;
    case "rng: shuffle permutes" test_rng_shuffle_permutes;
    case "stats: welford matches direct" test_stats_welford_matches_direct;
    case "stats: parallel merge" test_stats_merge;
    case "stats: percentile" test_stats_percentile;
    case "stats: linear fit" test_stats_linear_fit;
    case "stats: log-linear fit" test_stats_log_linear_fit;
    case "specfun: erf values" test_erf_known_values;
    case "specfun: erfc complement" test_erfc_complement;
    case "specfun: dawson values" test_dawson_known_values;
    case "specfun: plasma Z identities" test_plasma_z_consistency;
    case "specfun: landau damping scaling" test_landau_damping_scaling;
    case "specfun: bohm-gross" test_bohm_gross;
    case "specfun: faddeeva values" test_faddeeva_values;
    case "constants: plasma frequency" test_plasma_frequency;
    case "constants: critical density" test_critical_density;
    case "constants: a0/intensity roundtrip" test_a0_intensity_roundtrip;
    case "constants: debye length" test_debye_length;
    case "constants: laser omega" test_laser_omega_norm;
    case "table: render and csv" test_table_render_and_csv;
    qcheck_rng_unit_interval;
    qcheck_stats_merge;
    qcheck_erf_odd_monotone;
    qcheck_faddeeva_conj_symmetry;
    case "rng: a stateless draw is the stream's draw"
      test_rng_uniform_at_is_the_stream ]
