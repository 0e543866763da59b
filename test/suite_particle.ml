open Helpers
module Interpolator = Vpic_particle.Interpolator

(* --- Boris kernel ------------------------------------------------------ *)

let test_boris_pure_e () =
  let u = [| 0.; 0.; 0. |] in
  let qdt_2m = -0.05 (* electron, dt=0.1 *) in
  Push.boris ~u ~ex:2. ~ey:0. ~ez:0. ~bx:0. ~by:0. ~bz:0. ~qdt_2m;
  check_close "ux gains q dt E / m" (2. *. qdt_2m *. 2.) u.(0);
  check_close "uy unchanged" 0. u.(1);
  check_close "uz unchanged" 0. u.(2)

let test_boris_gyration_preserves_energy () =
  let u = [| 0.3; 0.; 0.1 |] in
  let u2_before = (0.3 *. 0.3) +. (0.1 *. 0.1) in
  let qdt_2m = 0.05 in
  for _ = 1 to 1000 do
    Push.boris ~u ~ex:0. ~ey:0. ~ez:0. ~bx:0. ~by:0. ~bz:1.5 ~qdt_2m
  done;
  let u2 = (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)) in
  check_close ~rtol:1e-12 "pure magnetic rotation conserves |u|" u2_before u2

let test_boris_gyrofrequency () =
  (* Non-relativistic gyration in Bz: angle per step = 2 atan(qB dt/2m gamma).
     For small steps this approaches omega_c dt; check the rotation of the
     (ux,uy) vector after one step. *)
  let qdt_2m = 0.01 in
  let b = 2.0 in
  let u = [| 1e-3; 0.; 0. |] in
  let gamma = sqrt (1. +. 1e-6) in
  Push.boris ~u ~ex:0. ~ey:0. ~ez:0. ~bx:0. ~by:0. ~bz:b ~qdt_2m;
  let angle = atan2 u.(1) u.(0) in
  let expected = -2. *. atan (qdt_2m *. b /. gamma) in
  check_close ~rtol:1e-9 "rotation angle" expected angle

let test_boris_relativistic_gamma () =
  (* In a pure B field gamma must stay constant even at high energy. *)
  let u = [| 5.; 0.; 0. |] in
  let gamma0 = sqrt 26. in
  let qdt_2m = -0.1 in
  for _ = 1 to 500 do
    Push.boris ~u ~ex:0. ~ey:0. ~ez:0. ~bx:0.3 ~by:0.7 ~bz:1.1 ~qdt_2m
  done;
  let gamma =
    sqrt (1. +. (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)))
  in
  check_close ~rtol:1e-11 "gamma constant in magnetic field" gamma0 gamma

let test_pushers_agree_pure_e () =
  (* with no B the update is the exact kick u += 2 qdt_2m E *)
  let u = [| 0.1; 0.2; 0.3 |] in
  Push.boris ~u ~ex:0.5 ~ey:(-0.2) ~ez:0.1 ~bx:0. ~by:0. ~bz:0. ~qdt_2m:0.2;
  check_close ~rtol:1e-14 "boris ux" 0.30 u.(0);
  check_close ~rtol:1e-14 "boris uy" 0.12 u.(1);
  check_close ~rtol:1e-14 "boris uz" 0.34 u.(2)

let test_pushers_pure_b_energy () =
  let u = [| 0.7; -0.2; 0.4 |] in
  let u2 = (0.7 *. 0.7) +. (0.2 *. 0.2) +. (0.4 *. 0.4) in
  for _ = 1 to 1000 do
    Push.boris ~u ~ex:0. ~ey:0. ~ez:0. ~bx:0.4 ~by:1.1 ~bz:(-0.3) ~qdt_2m:0.3
  done;
  let u2' = (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)) in
  check_close ~rtol:1e-12 "boris |u| in pure B" u2 u2'

let test_pusher_selection_in_advance () =
  (* the full advance is self-consistent under every inner-loop kernel
     it can select: a thermal species streaming through zero fields
     keeps its kinetic energy *)
  List.iter
    (fun kernel ->
      let g = small_grid () in
      let f = Em_field.create g in
      let ip = Interpolator.create g in
      Interpolator.load ip f;
      let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
      ignore (Loader.maxwellian (Rng.of_int 3) s ~ppc:4 ~uth:0.1 ());
      let ke0 = Species.kinetic_energy s in
      ignore (Push.advance ~interp:ip ~kernel s f Bc.periodic);
      check_close ~rtol:1e-12
        (Push.kernel_to_string kernel ^ " free streaming keeps KE")
        ke0 (Species.kinetic_energy s))
    [ Push.Scalar; Push.Block { width = Push.default_block_width } ]

(* --- Gather ------------------------------------------------------------ *)

let uniform_fields g values =
  let f = Em_field.create g in
  let set sf v = Sf.fill sf v in
  set f.Em_field.ex values.(0);
  set f.Em_field.ey values.(1);
  set f.Em_field.ez values.(2);
  set f.Em_field.bx values.(3);
  set f.Em_field.by values.(4);
  set f.Em_field.bz values.(5);
  f

let test_gather_uniform () =
  let g = small_grid () in
  let vals = [| 1.5; -2.5; 0.25; 3.; -1.; 0.5 |] in
  let f = uniform_fields g vals in
  let rng = Rng.of_int 7 in
  for _ = 1 to 50 do
    let i = 1 + Rng.int rng g.Grid.nx in
    let j = 1 + Rng.int rng g.Grid.ny in
    let k = 1 + Rng.int rng g.Grid.nz in
    let fx = Rng.uniform rng and fy = Rng.uniform rng and fz = Rng.uniform rng in
    let ex, ey, ez, bx, by, bz = Vpic_particle.Interp.gather f ~i ~j ~k ~fx ~fy ~fz in
    check_close "uniform ex" vals.(0) ex;
    check_close "uniform ey" vals.(1) ey;
    check_close "uniform ez" vals.(2) ez;
    check_close "uniform bx" vals.(3) bx;
    check_close "uniform by" vals.(4) by;
    check_close "uniform bz" vals.(5) bz
  done

let test_gather_linear_in_x () =
  (* ex = position of the ex sample -> gather must return the particle's x
     exactly (linear exactness of staggered trilinear weights). *)
  let g = small_grid () in
  let f = Em_field.create g in
  Sf.set_all f.Em_field.ex (fun i _ _ ->
      g.Grid.x0 +. ((float_of_int (i - 1) +. 0.5) *. g.Grid.dx));
  Sf.set_all f.Em_field.ey (fun i _ _ ->
      g.Grid.x0 +. (float_of_int (i - 1) *. g.Grid.dx));
  let rng = Rng.of_int 11 in
  for _ = 1 to 50 do
    (* stay away from the box edges: no ghost fill in this test *)
    let i = 3 + Rng.int rng (g.Grid.nx - 4) in
    let fx = Rng.uniform rng and fy = Rng.uniform rng and fz = Rng.uniform rng in
    let x = g.Grid.x0 +. ((float_of_int (i - 1) +. fx) *. g.Grid.dx) in
    let ex, ey, _, _, _, _ = Vpic_particle.Interp.gather f ~i ~j:4 ~k:4 ~fx ~fy ~fz in
    check_close ~rtol:1e-12 ~atol:1e-12 "staggered ex linear in x" x ex;
    check_close ~rtol:1e-12 ~atol:1e-12 "node ey linear in x" x ey
  done

(* --- Species storage --------------------------------------------------- *)

let mk_particle i j k seed : Particle.t =
  let rng = Rng.of_int seed in
  { i;
    j;
    k;
    fx = Rng.uniform rng;
    fy = Rng.uniform rng;
    fz = Rng.uniform rng;
    ux = Rng.normal rng;
    uy = Rng.normal rng;
    uz = Rng.normal rng;
    w = 1. +. Rng.uniform rng }

let test_species_append_get () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let ps = List.init 100 (fun n -> mk_particle ((n mod 8) + 1) 1 1 n) in
  List.iter (Species.append s) ps;
  Alcotest.(check int) "count" 100 (Species.count s);
  List.iteri
    (fun n p ->
      let q = Species.get s n in
      check_true "roundtrip" (round_p p = q))
    ps

let test_species_remove_swaps () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  for n = 0 to 9 do
    Species.append s (mk_particle 1 1 1 n)
  done;
  let last = Species.get s 9 in
  Species.remove s 0;
  Alcotest.(check int) "count after remove" 9 (Species.count s);
  check_true "last swapped into slot 0" (Species.get s 0 = last)

let test_species_extract_if () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  for n = 0 to 19 do
    Species.append s (mk_particle ((n mod 4) + 1) 1 1 n)
  done;
  let cell_i n = let i, _, _ = Species.cell s n in i in
  let out = Species.extract_if s (fun n -> cell_i n = 2) in
  Alcotest.(check int) "extracted" 5 (List.length out);
  Alcotest.(check int) "remaining" 15 (Species.count s);
  List.iter (fun (p : Particle.t) -> Alcotest.(check int) "i=2" 2 p.i) out;
  Species.iter s (fun n -> check_true "no i=2 left" (cell_i n <> 2))

let test_species_conserved_sums () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-2.) ~m:3. g in
  for n = 0 to 49 do
    Species.append s (mk_particle 1 1 1 n)
  done;
  let q = Species.total_charge s in
  let ke = Species.kinetic_energy s in
  check_true "charge negative" (q < 0.);
  check_true "ke positive" (ke > 0.);
  (* Compare against a direct sum over boxed particles. *)
  let ps = Species.to_list s in
  let q' = List.fold_left (fun acc (p : Particle.t) -> acc +. (s.Species.q *. p.w)) 0. ps in
  check_close "charge matches boxed sum" q' q

(* --- Sorting ------------------------------------------------------------ *)

let test_sort_orders_and_preserves () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 3 in
  for n = 0 to 999 do
    Species.append s
      (mk_particle
         (1 + Rng.int rng g.Grid.nx)
         (1 + Rng.int rng g.Grid.ny)
         (1 + Rng.int rng g.Grid.nz)
         n)
  done;
  let before = List.sort compare (Species.to_list s) in
  check_true "unsorted before" (not (Vpic_particle.Sort.is_sorted s));
  Vpic_particle.Sort.by_voxel s;
  check_true "sorted after" (Vpic_particle.Sort.is_sorted s);
  let after = List.sort compare (Species.to_list s) in
  check_true "multiset preserved" (before = after)

let test_sort_improves_locality () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 5 in
  for n = 0 to 4999 do
    Species.append s
      (mk_particle
         (1 + Rng.int rng g.Grid.nx)
         (1 + Rng.int rng g.Grid.ny)
         (1 + Rng.int rng g.Grid.nz)
         n)
  done;
  let before = Vpic_particle.Sort.locality_score s in
  Vpic_particle.Sort.by_voxel s;
  let after = Vpic_particle.Sort.locality_score s in
  check_true "locality improved" (after > before +. 0.3)

(* --- Loader ------------------------------------------------------------- *)

let test_loader_counts_and_weights () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 42 in
  let n = Loader.maxwellian rng s ~ppc:8 ~uth:0.05 () in
  Alcotest.(check int) "8 ppc everywhere" (8 * Grid.interior_count g) n;
  (* Total charge should be -1 * density * volume. *)
  check_close ~rtol:1e-12 "charge = -volume at n=1" (-.Grid.volume g)
    (Species.total_charge s)

let test_loader_thermal_spread () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 43 in
  let uth = 0.08 in
  ignore (Loader.maxwellian rng s ~ppc:64 ~uth ());
  let spread = Moments.thermal_spread s in
  check_close ~rtol:0.02 "uth x" uth spread.Vec3.x;
  check_close ~rtol:0.02 "uth y" uth spread.Vec3.y;
  check_close ~rtol:0.02 "uth z" uth spread.Vec3.z

let test_loader_drift () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 44 in
  ignore
    (Loader.maxwellian rng s ~ppc:32 ~uth:0.01 ~drift:(Vec3.make 0.2 0. 0.) ());
  let v = Moments.mean_velocity s in
  check_close ~rtol:2e-3 "drift vx ~ u0/gamma" (0.2 /. sqrt 1.04) v.Vec3.x

(* --- Mover boundary handling -------------------------------------------- *)

let one_particle_sim bc_kind (p : Particle.t) =
  let g = small_grid () in
  let f = Em_field.create g in
  let bc = Bc.uniform bc_kind in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  Species.append s p;
  let stats = Push.advance s f bc in
  (g, s, stats)

let test_mover_periodic_wrap () =
  (* Fast particle near the hi-x face: u=1 -> v ~ 0.707c, dt*v > remaining
     distance so it wraps around. *)
  let p : Particle.t =
    { i = 8; j = 4; k = 4; fx = 0.99; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.; uz = 0.; w = 1. }
  in
  let g, s, stats = one_particle_sim Bc.Periodic p in
  ignore g;
  Alcotest.(check int) "one advanced" 1 stats.Push.advanced;
  Alcotest.(check int) "two segments" 2 stats.Push.segments;
  let q = Species.get s 0 in
  Alcotest.(check int) "wrapped to cell 1" 1 q.Particle.i;
  check_true "interior" (not (Species.in_ghost s 0))

let test_mover_reflect () =
  let p : Particle.t =
    { i = 8; j = 4; k = 4; fx = 0.99; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.; uz = 0.; w = 1. }
  in
  let _, s, stats = one_particle_sim Bc.Conducting p in
  Alcotest.(check int) "reflected once" 1 stats.Push.reflected;
  let q = Species.get s 0 in
  Alcotest.(check int) "still in cell 8" 8 q.Particle.i;
  check_true "ux flipped" (q.Particle.ux < 0.)

let test_mover_reflux () =
  let p : Particle.t =
    { i = 8; j = 4; k = 4; fx = 0.99; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.2; uz = 0.; w = 1. }
  in
  let g = small_grid () in
  let f = Em_field.create g in
  let uth = 0.05 in
  let bc = Bc.with_face Bc.periodic Axis.X `Hi (Bc.Refluxing uth) in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  Species.append s p;
  let rng = Rng.of_int 99 in
  let stats = Push.advance ~rng s f bc in
  Alcotest.(check int) "refluxed once" 1 stats.Push.refluxed;
  Alcotest.(check int) "not absorbed" 0 stats.Push.absorbed;
  Alcotest.(check int) "kept" 1 (Species.count s);
  let q = Species.get s 0 in
  Alcotest.(check int) "still in wall cell" 8 q.Particle.i;
  check_true "re-emitted inward" (q.Particle.ux < 0.);
  check_true "thermal speed scale" (Float.abs q.Particle.ux < 10. *. uth);
  check_true "at the wall" (q.Particle.fx > 0.99)

let test_mover_reflux_needs_rng () =
  let p : Particle.t =
    { i = 8; j = 4; k = 4; fx = 0.99; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.; uz = 0.; w = 1. }
  in
  let g = small_grid () in
  let f = Em_field.create g in
  let bc = Bc.with_face Bc.periodic Axis.X `Hi (Bc.Refluxing 0.05) in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  Species.append s p;
  check_true "raises without rng"
    (try
       ignore (Push.advance s f bc);
       false
     with Invalid_argument _ -> true)

let test_mover_reflux_bath_statistics () =
  (* Many refluxed particles: inward-normal flux distribution has
     <|u_n|> = uth sqrt(pi/2); tangential mean 0 with spread uth. *)
  let g = small_grid () in
  let f = Em_field.create g in
  let uth = 0.05 in
  let bc = Bc.with_face Bc.periodic Axis.X `Hi (Bc.Refluxing uth) in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  for n = 0 to 4999 do
    Species.append s
      { i = 8; j = 1 + (n mod 8); k = 1 + (n / 8 mod 8); fx = 0.99;
        fy = 0.5; fz = 0.5; ux = 0.9; uy = 0.; uz = 0.; w = 1. }
  done;
  let rng = Rng.of_int 7 in
  let stats = Push.advance ~rng s f bc in
  Alcotest.(check int) "all refluxed" 5000 stats.Push.refluxed;
  let mean_un = ref 0. and mean_ut = ref 0. and var_ut = ref 0. in
  Species.iter s (fun n ->
      let q = Species.get s n in
      mean_un := !mean_un +. q.Particle.ux;
      mean_ut := !mean_ut +. q.Particle.uy;
      var_ut := !var_ut +. (q.Particle.uy *. q.Particle.uy));
  let np = float_of_int (Species.count s) in
  check_close ~rtol:0.05 "flux-weighted normal mean"
    (-.uth *. sqrt (Float.pi /. 2.))
    (!mean_un /. np);
  check_close ~atol:(3. *. uth /. sqrt np) "tangential mean 0" 0.
    (!mean_ut /. np);
  check_close ~rtol:0.06 "tangential spread" uth
    (sqrt (!var_ut /. np))

let test_mover_absorb () =
  let p : Particle.t =
    { i = 8; j = 4; k = 4; fx = 0.99; fy = 0.5; fz = 0.5;
      ux = 1.0; uy = 0.; uz = 0.; w = 1. }
  in
  let _, s, stats = one_particle_sim Bc.Absorbing p in
  Alcotest.(check int) "absorbed" 1 stats.Push.absorbed;
  Alcotest.(check int) "gone" 0 (Species.count s)

let test_mover_free_streaming () =
  (* With no fields, a particle must advance by v dt exactly. *)
  let g = small_grid () in
  let f = Em_field.create g in
  let bc = Bc.periodic in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let p : Particle.t =
    { i = 4; j = 4; k = 4; fx = 0.25; fy = 0.5; fz = 0.75;
      ux = 0.3; uy = -0.2; uz = 0.1; w = 1. }
  in
  Species.append s p;
  (* expectations from the f32-rounded particle the store actually holds;
     the final position re-rounds to f32, hence the ~1e-7 tolerance *)
  let p = Species.get s 0 in
  let x0, y0, z0 = Particle.position g p in
  ignore (Push.advance s f bc);
  let x1, y1, z1 = Particle.position g (Species.get s 0) in
  let gamma = Particle.gamma p in
  let dt = g.Grid.dt in
  check_close ~rtol:1e-6 "x advance" (x0 +. (p.Particle.ux /. gamma *. dt)) x1;
  check_close ~rtol:1e-6 "y advance" (y0 +. (p.Particle.uy /. gamma *. dt)) y1;
  check_close ~rtol:1e-6 "z advance" (z0 +. (p.Particle.uz /. gamma *. dt)) z1

let qcheck_boris_magnetic_invariance =
  qcheck "boris: |u| invariant under random B" ~count:100
    QCheck2.Gen.(tup2 (triple (float_range (-2.) 2.) (float_range (-2.) 2.) (float_range (-2.) 2.))
                   (triple (float_range (-3.) 3.) (float_range (-3.) 3.) (float_range (-3.) 3.)))
    (fun ((ux, uy, uz), (bx, by, bz)) ->
      let u = [| ux; uy; uz |] in
      let u2 = (ux *. ux) +. (uy *. uy) +. (uz *. uz) in
      Push.boris ~u ~ex:0. ~ey:0. ~ez:0. ~bx ~by ~bz ~qdt_2m:0.07;
      let u2' = (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)) in
      Approx.close ~rtol:1e-12 u2 u2')

let qcheck_single_particle_continuity =
  (* the continuity identity must hold for ANY single particle move *)
  qcheck "deposit: continuity for random single particle" ~count:60
    QCheck2.Gen.(tup2 (triple (float_range 0.01 0.99) (float_range 0.01 0.99) (float_range 0.01 0.99))
                   (triple (float_range (-3.) 3.) (float_range (-3.) 3.) (float_range (-3.) 3.)))
    (fun ((fx, fy, fz), (ux, uy, uz)) ->
      let g = small_grid () in
      let bc = Bc.periodic in
      let f = Em_field.create g in
      let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
      Species.append s { i = 4; j = 4; k = 4; fx; fy; fz; ux; uy; uz; w = 1.3 };
      let rho_old = Sf.create g in
      Moments.deposit_rho s ~rho:rho_old;
      ignore (Push.advance s f bc);
      Boundary.fold_currents bc f;
      let rho_new = Sf.create g in
      Moments.deposit_rho s ~rho:rho_new;
      Boundary.fill_scalars bc (Em_field.j_components f);
      let dt = g.Grid.dt in
      let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
      let worst = ref 0. in
      Grid.iter_interior g (fun i j k ->
          let divj =
            ((Sf.get f.Em_field.jx i j k -. Sf.get f.Em_field.jx (i - 1) j k) *. rx)
            +. ((Sf.get f.Em_field.jy i j k -. Sf.get f.Em_field.jy i (j - 1) k) *. ry)
            +. ((Sf.get f.Em_field.jz i j k -. Sf.get f.Em_field.jz i j (k - 1)) *. rz)
          in
          let ddt = (Sf.get rho_new i j k -. Sf.get rho_old i j k) /. dt in
          worst := Float.max !worst (Float.abs (ddt +. divj)));
      !worst < 1e-11)

(* --- Charge conservation (the key deposition property) ------------------ *)

let test_charge_conservation_random () =
  let g = small_grid () in
  let bc = Bc.periodic in
  let f = Em_field.create g in
  (* Random (small) fields so the push is non-trivial. *)
  let rng = Rng.of_int 77 in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.2 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em bc f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  for n = 0 to 499 do
    let p = mk_particle (1 + Rng.int rng 8) (1 + Rng.int rng 8) (1 + Rng.int rng 8) n in
    (* scale momenta up so many particles cross faces *)
    Species.append s { p with ux = 3. *. p.ux; uy = 3. *. p.uy; uz = 3. *. p.uz }
  done;
  let rho_old = Sf.create g in
  Moments.deposit_rho s ~rho:rho_old;
  Boundary.fold_rho bc { f with Em_field.rho = rho_old };
  Em_field.clear_currents f;
  ignore (Push.advance s f bc);
  Boundary.fold_currents bc f;
  let rho_new = Sf.create g in
  Moments.deposit_rho s ~rho:rho_new;
  Boundary.fold_rho bc { f with Em_field.rho = rho_new };
  (* div J needs lo ghosts of J: fill them periodically. *)
  Boundary.fill_scalars bc (Em_field.j_components f);
  let dt = g.Grid.dt in
  let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
  let worst = ref 0. in
  Grid.iter_interior g (fun i j k ->
      let divj =
        ((Sf.get f.Em_field.jx i j k -. Sf.get f.Em_field.jx (i - 1) j k) *. rx)
        +. ((Sf.get f.Em_field.jy i j k -. Sf.get f.Em_field.jy i (j - 1) k) *. ry)
        +. ((Sf.get f.Em_field.jz i j k -. Sf.get f.Em_field.jz i j (k - 1)) *. rz)
      in
      let ddt = (Sf.get rho_new i j k -. Sf.get rho_old i j k) /. dt in
      worst := Float.max !worst (Float.abs (ddt +. divj)));
  check_true
    (Printf.sprintf "continuity residual %.3e < 1e-10" !worst)
    (!worst < 1e-10)

let test_density_deposit_total () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian (Rng.of_int 5) s ~ppc:16 ~uth:0.05 ());
  let n = Sf.create g in
  Moments.deposit_density s ~out:n;
  Boundary.fold_rho Bc.periodic
    { (Em_field.create g) with Em_field.rho = n };
  (* sum over nodes x dV = total weight = volume at density 1 *)
  check_close ~rtol:1e-12 "integrated density = volume" (Grid.volume g)
    (Sf.sum_interior n *. Grid.cell_volume g)

let test_energy_spectrum () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  (* one particle of known kinetic energy: u = 0.5 -> KE = 60.4 keV *)
  Species.append s
    { i = 1; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5;
      ux = 0.5; uy = 0.; uz = 0.; w = 2. };
  let gamma = sqrt 1.25 in
  let ke_kev = (gamma -. 1.) *. 510.99895 in
  let centers, h = Moments.energy_spectrum s ~e_min_kev:1. ~e_max_kev:1000. ~bins:60 in
  let total = Array.fold_left ( +. ) 0. h in
  check_close "total weight" 2. total;
  (* the occupied bin brackets the true energy *)
  let b = ref (-1) in
  Array.iteri (fun i x -> if x > 0. then b := i) h;
  check_true "one bin" (!b >= 0);
  let ratio = centers.(!b) /. ke_kev in
  check_true "bin brackets energy" (ratio > 0.8 && ratio < 1.25)

let test_energy_spectrum_maxwellian_tail () =
  let g = small_grid () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 6 in
  let uth = 0.1 in
  for _ = 1 to 50000 do
    Species.append s
      { i = 1; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5;
        ux = uth *. Rng.normal rng;
        uy = uth *. Rng.normal rng;
        uz = uth *. Rng.normal rng;
        w = 1. }
  done;
  let centers, h = Moments.energy_spectrum s ~e_min_kev:0.1 ~e_max_kev:100. ~bins:40 in
  (* uth = 0.1 -> T ~ 5 keV: the bulk sits at a few keV and the tail
     above 50 keV is exponentially rare *)
  let total = Array.fold_left ( +. ) 0. h in
  let in_band lo hi =
    let acc = ref 0. in
    Array.iteri (fun i c -> if c >= lo && c < hi then acc := !acc +. h.(i)) centers;
    !acc
  in
  check_true "bulk at a few keV" (in_band 1. 20. > 0.7 *. total);
  check_true "tail above 50 keV rare" (in_band 50. 1000. < 0.01 *. total)

let suite =
  [ case "boris: pure E acceleration" test_boris_pure_e;
    case "boris: gyration conserves |u|" test_boris_gyration_preserves_energy;
    case "boris: gyrofrequency" test_boris_gyrofrequency;
    case "boris: relativistic gamma constant" test_boris_relativistic_gamma;
    case "pushers: agree in pure E" test_pushers_agree_pure_e;
    case "pushers: pure-B energy conservation" test_pushers_pure_b_energy;
    case "pushers: selectable in advance" test_pusher_selection_in_advance;
    case "gather: uniform fields exact" test_gather_uniform;
    case "gather: linear in x exact" test_gather_linear_in_x;
    case "species: append/get roundtrip" test_species_append_get;
    case "species: remove swaps last" test_species_remove_swaps;
    case "species: extract_if" test_species_extract_if;
    case "species: charge/ke sums" test_species_conserved_sums;
    case "sort: orders and preserves multiset" test_sort_orders_and_preserves;
    case "sort: improves locality" test_sort_improves_locality;
    case "loader: counts and weights" test_loader_counts_and_weights;
    case "loader: thermal spread" test_loader_thermal_spread;
    case "loader: drift velocity" test_loader_drift;
    case "mover: periodic wrap" test_mover_periodic_wrap;
    case "mover: conducting reflect" test_mover_reflect;
    case "mover: absorbing removes" test_mover_absorb;
    case "mover: refluxing re-emits" test_mover_reflux;
    case "mover: reflux requires rng" test_mover_reflux_needs_rng;
    case "mover: reflux bath statistics" test_mover_reflux_bath_statistics;
    case "mover: free streaming exact" test_mover_free_streaming;
    case "deposit: discrete continuity equation" test_charge_conservation_random;
    case "moments: density integrates to volume" test_density_deposit_total;
    case "moments: energy spectrum placement" test_energy_spectrum;
    case "moments: maxwellian spectrum decays" test_energy_spectrum_maxwellian_tail;
    qcheck_boris_magnetic_invariance;
    qcheck_single_particle_continuity ]
