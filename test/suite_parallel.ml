open Helpers
module Comm = Vpic_parallel.Comm
module Exchange = Vpic_parallel.Exchange
module Migrate = Vpic_parallel.Migrate
module Push = Vpic_particle.Push
module Decomp = Vpic_grid.Decomp
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler

(* --- Collectives ---------------------------------------------------------- *)

let test_allreduce () =
  let results =
    Comm.run ~ranks:4 (fun c ->
        let r = float_of_int (Comm.rank c) in
        ( Comm.allreduce_sum c r,
          Comm.allreduce_min c r,
          Comm.allreduce_max c (-.r) ))
  in
  Array.iter
    (fun (s, mn, mx) ->
      check_close "sum" 6. s;
      check_close "min" 0. mn;
      check_close "max" 0. mx)
    results

let test_allreduce_array () =
  let results =
    Comm.run ~ranks:3 (fun c ->
        let r = float_of_int (Comm.rank c) in
        Comm.allreduce_sum_array c [| r; 2. *. r |])
  in
  Array.iter
    (fun a ->
      check_close "slot 0" 3. a.(0);
      check_close "slot 1" 6. a.(1))
    results

let test_bcast_gather () =
  let results =
    Comm.run ~ranks:3 (fun c ->
        let x = Comm.bcast c ~root:1 [| float_of_int (10 * Comm.rank c) |] in
        let g = Comm.gather c ~root:0 [| float_of_int (Comm.rank c) |] in
        (x.(0), g))
  in
  Array.iter (fun (x, _) -> check_close "bcast from rank 1" 10. x) results;
  (match snd results.(0) with
  | Some rows ->
      Array.iteri (fun r row -> check_close "gathered" (float_of_int r) row.(0)) rows
  | None -> Alcotest.fail "root gather missing");
  check_true "non-root gets None" (snd results.(1) = None)

let test_sendrecv_fifo () =
  let results =
    Comm.run ~ranks:2 (fun c ->
        if Comm.rank c = 0 then begin
          for i = 1 to 5 do
            Comm.send c ~dst:1 ~tag:7 [| float_of_int i |]
          done;
          Comm.send c ~dst:1 ~tag:8 [| 99. |];
          [||]
        end
        else begin
          (* tag 8 can be received before tag 7 backlog; tag 7 is FIFO *)
          let other = Comm.recv c ~src:0 ~tag:8 in
          let firsts = Array.init 5 (fun _ -> (Comm.recv c ~src:0 ~tag:7).(0)) in
          Array.append other firsts
        end)
  in
  check_true "fifo per tag" (results.(1) = [| 99.; 1.; 2.; 3.; 4.; 5. |])

let test_barrier_generations () =
  (* Barriers must be reusable; interleave with reductions. *)
  let results =
    Comm.run ~ranks:4 (fun c ->
        let acc = ref 0. in
        for i = 1 to 5 do
          Comm.barrier c;
          acc := !acc +. Comm.allreduce_sum c (float_of_int i)
        done;
        !acc)
  in
  Array.iter (fun v -> check_close "5 rounds" (4. *. 15.) v) results

(* --- Ghost exchange ------------------------------------------------------- *)

(* A deterministic global scalar value for global cell (gi, gj, gk). *)
let global_value gi gj gk =
  float_of_int ((gi * 10000) + (gj * 100) + gk)

let test_fill_ghosts_matches_global_wrap () =
  let d = Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:8. ~ly:4. ~lz:4. in
  let dt = 0.1 in
  (* Rank bodies only observe — (label, expected, actual) triples — and
     the checks run here on the calling domain: Alcotest is not
     domain-safe. *)
  let results =
    Comm.run ~ranks:2 (fun c ->
        let rank = Comm.rank c in
        let g = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let f = Sf.create g in
        let cx, _, _ = Decomp.coords_of_rank d rank in
        let x_off = cx * 4 in
        (* fill interior with the global function *)
        Grid.iter_interior g (fun i j k ->
            Sf.set f i j k (global_value (x_off + i) j k));
        let ports = Exchange.create c bc g in
        Exchange.fill_ghosts ports [ f ];
        (* ghost at i=0 must hold the global value of the wrapped x-neighbour *)
        let seen = ref [] in
        for k = 1 to 4 do
          for j = 1 to 4 do
            let expect_lo =
              global_value (if x_off + 0 < 1 then 8 else x_off) j k
            in
            seen := ("lo ghost", expect_lo, Sf.get f 0 j k) :: !seen;
            let expect_hi =
              global_value (if x_off + 5 > 8 then 1 else x_off + 5) j k
            in
            seen := ("hi ghost", expect_hi, Sf.get f 5 j k) :: !seen
          done
        done;
        (* y is local periodic (py = 1): wraps within the rank *)
        ("y ghost local wrap", global_value (x_off + 2) 4 2, Sf.get f 2 0 2)
        :: !seen)
  in
  Array.iter
    (List.iter (fun (label, expected, actual) -> check_close label expected actual))
    results

let test_fold_ghosts_accumulates_across () =
  let d = Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:8. ~ly:4. ~lz:4. in
  let dt = 0.1 in
  let results =
    Comm.run ~ranks:2 (fun c ->
        let rank = Comm.rank c in
        let g = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let f = Sf.create g in
        (* place a deposit in this rank's hi-x ghost plane *)
        Sf.set f 5 2 2 (1. +. float_of_int rank);
        let ports = Exchange.create c bc g in
        Exchange.fold_ghosts ports [ f ];
        (* after folding, my interior slot (1,2,2) holds the other rank's
           ghost deposit *)
        (Sf.get f 1 2 2, Sf.get f 5 2 2))
  in
  let v0, z0 = results.(0) and v1, z1 = results.(1) in
  check_close "rank0 got rank1's deposit" 2. v0;
  check_close "rank1 got rank0's deposit" 1. v1;
  check_close "shipped plane zeroed (0)" 0. z0;
  check_close "shipped plane zeroed (1)" 0. z1

(* --- Deterministic global particle loading for equivalence tests --------- *)

let deterministic_load sim ~(x_off : int) ~(y_off : int) ~gnx ~ppc =
  ignore gnx;
  let g = sim.Simulation.grid in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
  Grid.iter_interior g (fun i j k ->
      let rng =
        Rng.of_int ((((x_off + i) * 997) + ((y_off + j) * 89) + k) * 13)
      in
      for _ = 1 to ppc do
        let fx = Rng.uniform rng and fy = Rng.uniform rng and fz = Rng.uniform rng in
        let ux = 0.1 *. Rng.normal rng
        and uy = 0.1 *. Rng.normal rng
        and uz = 0.1 *. Rng.normal rng in
        let w = Grid.cell_volume g /. float_of_int ppc in
        Species.append e { i; j; k; fx; fy; fz; ux; uy; uz; w };
        Species.append ions
          { i; j; k; fx; fy; fz;
            ux = 0.01 *. Rng.normal rng;
            uy = 0.01 *. Rng.normal rng;
            uz = 0.01 *. Rng.normal rng;
            w }
      done);
  e

let serial_reference ~steps =
  let gnx = 8 in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let grid = Grid.make ~nx:gnx ~ny:4 ~nz:4 ~lx:4. ~ly:2. ~lz:2. ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:5 ~sort_interval:4 ()
  in
  ignore (deterministic_load sim ~x_off:0 ~y_off:0 ~gnx ~ppc:8);
  let energies = ref [] in
  for _ = 1 to steps do
    Simulation.step sim;
    let en = Simulation.energies sim in
    energies := en.Simulation.total :: !energies
  done;
  (List.rev !energies, Simulation.total_particles sim)

let parallel_run ~steps ~ranks =
  let gnx = 8 in
  let d =
    Decomp.make ~px:ranks ~py:1 ~pz:1 ~gnx ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let results =
    Comm.run ~ranks (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let sim =
          Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid)
            ~clean_div_interval:5 ~sort_interval:4 ()
        in
        let cx, _, _ = Decomp.coords_of_rank d rank in
        let nx_local = gnx / ranks in
        ignore (deterministic_load sim ~x_off:(cx * nx_local) ~y_off:0 ~gnx ~ppc:8);
        let energies = ref [] in
        for _ = 1 to steps do
          Simulation.step sim;
          let en = Simulation.energies sim in
          energies := en.Simulation.total :: !energies
        done;
        (List.rev !energies, Simulation.total_particles sim))
  in
  fst results.(0)
  |> fun energies -> (energies, snd results.(0))

let test_parallel_matches_serial () =
  let steps = 30 in
  let serial_e, serial_np = serial_reference ~steps in
  let par_e, par_np = parallel_run ~steps ~ranks:2 in
  Alcotest.(check int) "particle count" serial_np par_np;
  (* Ghost planes and mover payloads cross the wire in Float32, so the
     parallel trajectory accumulates single-precision roundoff against
     the all-f64 serial one: ~1e-7 relative per step, observed below
     1e-6 after 30 steps on this deck.  (Deposition-order roundoff, the
     pre-port bound, sits far beneath that at 1e-15.) *)
  List.iter2
    (fun a b -> check_close ~rtol:1e-5 "energy trajectory" a b)
    serial_e par_e

let test_migration_conserves () =
  let d = Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2. in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let results =
    Comm.run ~ranks:2 (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let f = Em_field.create grid in
        let s = Species.create ~name:"e" ~q:(-1.) ~m:1. grid in
        (* fast particles near both x faces, headed out (one obliquely) *)
        for j = 1 to 4 do
          Species.append s
            { i = 4; j; k = 2; fx = 0.95; fy = 0.5; fz = 0.5;
              ux = 2.0; uy = 0.3; uz = 0.; w = 1. };
          Species.append s
            { i = 1; j; k = 2; fx = 0.05; fy = 0.5; fz = 0.5;
              ux = -2.0; uy = 0.; uz = 0.3; w = 1. }
        done;
        let ports = Exchange.create c bc grid in
        let movers = Push.Movers.create () in
        let st = Push.advance ~movers s f bc in
        let movers_after_push = Push.Movers.count movers in
        let mig = Migrate.exchange ports s f movers in
        let all_interior = ref true in
        Species.iter s (fun n ->
            if Species.in_ghost s n then all_interior := false);
        let mom = Species.momentum s in
        let charge = ref 0. in
        Species.iter s (fun n -> charge := !charge +. (Species.get s n).Particle.w);
        ( (st.Push.outbound, movers_after_push, Push.Movers.count movers,
           !all_interior),
          float_of_int (Species.count s),
          mom,
          s.Species.q *. !charge,
          mig.Migrate.sent,
          mig.Migrate.received,
          mig.Migrate.settled ))
  in
  (* Checked here, on the calling domain (Alcotest is not domain-safe). *)
  Array.iter
    (fun ((outbound, movers_after_push, movers_left, all_interior), _, _, _, _, _, _) ->
      check_true "some went outbound" (outbound > 0);
      Alcotest.(check int) "movers match outbound count" outbound
        movers_after_push;
      (* the caller's mover buffer must drain to zero *)
      Alcotest.(check int) "movers drained" 0 movers_left;
      (* every mover must have settled somewhere *)
      check_true "interior" all_interior)
    results;
  let _, n0, m0, q0, s0, r0, f0 = results.(0)
  and _, n1, m1, q1, s1, r1, f1 = results.(1) in
  check_close "total count conserved" 16. (n0 +. n1);
  Alcotest.(check int) "sent = received globally" (s0 + s1) (r0 + r1);
  Alcotest.(check int) "all arrivals settled" (r0 + r1) (f0 + f1);
  check_true "messages actually flowed" (s0 + s1 > 0);
  (* total charge q * sum(w) must survive the trip exactly: unit weights
     are exact in f32, so no tolerance is needed beyond the f64 sum *)
  check_close ~rtol:1e-12 "total charge conserved" (-16.) (q0 +. q1);
  (* total momentum is untouched by migration (no fields); the store
     holds f32-rounded momenta, so expectations round first *)
  let px = m0.Vec3.x +. m1.Vec3.x in
  check_close ~rtol:1e-12 "total ux" (8. *. 2.0 +. 8. *. -2.0) px;
  let py = m0.Vec3.y +. m1.Vec3.y in
  check_close ~rtol:1e-12 "total uy" (8. *. Store.round32 0.3) py

let parallel_run_2d ~steps =
  (* 2x2 decomposition: exercises y-axis domain faces, corner traffic and
     multi-hop (diagonal) movers. *)
  let d =
    Decomp.make ~px:2 ~py:2 ~pz:1 ~gnx:8 ~gny:8 ~gnz:2 ~lx:4. ~ly:4. ~lz:1.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let results =
    Comm.run ~ranks:4 (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let sim =
          Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid)
            ~clean_div_interval:5 ~sort_interval:4 ()
        in
        let cx, cy, _ = Decomp.coords_of_rank d rank in
        ignore
          (deterministic_load sim ~x_off:(cx * 4) ~y_off:(cy * 4) ~gnx:8 ~ppc:6);
        let energies = ref [] in
        for _ = 1 to steps do
          Simulation.step sim;
          energies := (Simulation.energies sim).Simulation.total :: !energies
        done;
        (List.rev !energies, Simulation.total_particles sim))
  in
  results.(0)

let test_parallel_2d_decomposition () =
  (* The 2x2 run must agree with itself when re-run (determinism) and
     conserve particles; the serial cross-check of the x-split test
     already pins the physics, here we pin the 2D communication paths. *)
  let steps = 25 in
  let (e1, np1) = parallel_run_2d ~steps in
  let (e2, np2) = parallel_run_2d ~steps in
  Alcotest.(check int) "particle count stable" np1 np2;
  Alcotest.(check int) "no loss" (8 * 8 * 2 * 6 * 2) np1;
  List.iter2 (fun a b -> check_close ~rtol:0. ~atol:0. "deterministic" a b) e1 e2;
  check_true "energies finite"
    (List.for_all (fun x -> Float.is_finite x) e1)

let test_parallel_2d_matches_serial () =
  (* Full physics equivalence for the 2x2 decomposition: the global
     microstate matches the serial reference because particle seeds
     depend only on global cell coordinates. *)
  let steps = 20 in
  let d =
    Decomp.make ~px:2 ~py:2 ~pz:1 ~gnx:8 ~gny:8 ~gnz:2 ~lx:4. ~ly:4. ~lz:1.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  (* serial reference with global-cell-seeded loading; note the y offset
     must flow into the seed, so reuse deterministic_load with a grid
     covering the full box *)
  let grid = Grid.make ~nx:8 ~ny:8 ~nz:2 ~lx:4. ~ly:4. ~lz:1. ~dt () in
  let sim =
    Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:5 ~sort_interval:4 ()
  in
  ignore (deterministic_load sim ~x_off:0 ~y_off:0 ~gnx:8 ~ppc:6);
  let serial = ref [] in
  for _ = 1 to steps do
    Simulation.step sim;
    serial := (Simulation.energies sim).Simulation.total :: !serial
  done;
  let serial = List.rev !serial in
  let results =
    Comm.run ~ranks:4 (fun c ->
        let rank = Comm.rank c in
        let lgrid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let psim =
          Simulation.make ~grid:lgrid ~coupler:(Coupler.parallel c bc ~grid:lgrid)
            ~clean_div_interval:5 ~sort_interval:4 ()
        in
        let cx, cy, _ = Decomp.coords_of_rank d rank in
        ignore
          (deterministic_load psim ~x_off:(cx * 4) ~y_off:(cy * 4) ~gnx:8
             ~ppc:6);
        let es = ref [] in
        for _ = 1 to steps do
          Simulation.step psim;
          es := (Simulation.energies psim).Simulation.total :: !es
        done;
        List.rev !es)
  in
  (* f32 wire (see test_parallel_matches_serial): roundoff-level, not
     bitwise, agreement with the f64 serial reference *)
  List.iter2
    (fun a b -> check_close ~rtol:1e-5 "2d energy trajectory" a b)
    serial results.(0)

(* --- Decomposition equivalence (field energy + species moments) ---------- *)

(* Run the same global deck for [steps] on a px x py x 1 decomposition and
   return (field energy, per-species kinetic energies, per-species
   momentum components), all globally reduced. *)
let run_small_deck ~steps ~px ~py =
  let gnx = 8 and gny = 8 in
  let d =
    Decomp.make ~px ~py ~pz:1 ~gnx ~gny ~gnz:2 ~lx:4. ~ly:4. ~lz:1.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let results =
    Comm.run ~ranks:(px * py) (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let sim =
          Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid)
            ~clean_div_interval:5 ~sort_interval:4 ()
        in
        let cx, cy, _ = Decomp.coords_of_rank d rank in
        ignore
          (deterministic_load sim ~x_off:(cx * (gnx / px))
             ~y_off:(cy * (gny / py)) ~gnx ~ppc:6);
        for _ = 1 to steps do
          Simulation.step sim
        done;
        let en = Simulation.energies sim in
        let mom =
          Array.of_list
            (List.concat_map
               (fun s ->
                 let m = Species.momentum s in
                 [ m.Vec3.x; m.Vec3.y; m.Vec3.z ])
               (Simulation.species sim))
        in
        ( en.Simulation.field_e +. en.Simulation.field_b,
          List.map snd en.Simulation.particles,
          Comm.allreduce_sum_array c mom ))
  in
  results.(0)

let test_decomposition_equivalence () =
  (* The same microstate split along x (2x1x1) and along y (1x2x1) must
     reproduce the 1-rank run's field energy and per-species moments to
     f32 wire round-off after 20 steps. *)
  let steps = 20 in
  let f1, ke1, m1 = run_small_deck ~steps ~px:1 ~py:1 in
  let check tag (f, ke, m) =
    check_close ~rtol:2e-5 (tag ^ ": field energy") f1 f;
    List.iter2
      (fun a b -> check_close ~rtol:2e-5 (tag ^ ": species KE") a b)
      ke1 ke;
    (* momentum components are near-cancelling sums of thermal momenta,
       so compare absolutely at the f32-accumulation scale *)
    Array.iteri
      (fun i a -> check_close ~rtol:1e-4 ~atol:1e-4 (tag ^ ": momentum") a m.(i))
      m1
  in
  check "2x1x1" (run_small_deck ~steps ~px:2 ~py:1);
  check "1x2x1" (run_small_deck ~steps ~px:1 ~py:2)

let test_four_rank_smoke () =
  (* 4 ranks on 2 cores: oversubscription must still be correct. *)
  let gnx = 8 in
  let d = Decomp.make ~px:4 ~py:1 ~pz:1 ~gnx ~gny:2 ~gnz:2 ~lx:4. ~ly:1. ~lz:1. in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let results =
    Comm.run ~ranks:4 (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let sim =
          Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid)
            ~clean_div_interval:0 ()
        in
        let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
        ignore
          (Loader.maxwellian (Rng.of_int (100 + rank)) e ~ppc:4 ~uth:0.3 ());
        Simulation.run sim ~steps:20 ();
        Simulation.total_particles sim)
  in
  (* particle total is a collective result: all ranks agree *)
  Array.iter (fun np -> Alcotest.(check int) "agreed total" results.(0) np) results;
  Alcotest.(check int) "no particles lost" (8 * 2 * 2 * 4) results.(0)

let suite =
  [ case "comm: allreduce" test_allreduce;
    case "comm: allreduce array" test_allreduce_array;
    case "comm: bcast/gather" test_bcast_gather;
    case "comm: send/recv fifo per tag" test_sendrecv_fifo;
    case "comm: barrier generations" test_barrier_generations;
    case "exchange: fill matches global wrap" test_fill_ghosts_matches_global_wrap;
    case "exchange: fold accumulates across ranks" test_fold_ghosts_accumulates_across;
    slow_case "parallel: 2-rank run matches serial" test_parallel_matches_serial;
    case "migrate: conserves particles and momentum" test_migration_conserves;
    slow_case "parallel: x-split and y-split match 1 rank"
      test_decomposition_equivalence;
    slow_case "parallel: 4-rank smoke" test_four_rank_smoke;
    slow_case "parallel: 2x2 deterministic" test_parallel_2d_decomposition;
    slow_case "parallel: 2x2 matches serial" test_parallel_2d_matches_serial ]
