open Helpers
module Comm = Vpic_parallel.Comm
module Exchange = Vpic_parallel.Exchange
module Migrate = Vpic_parallel.Migrate
module Push = Vpic_particle.Push
module Decomp = Vpic_grid.Decomp
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler

(* --- Collectives ---------------------------------------------------------- *)

(* Contributions whose sum rounds differently in different orders, so
   an equality with the ascending-rank fold pins the order down. *)
let contribution r = (0.1 *. float_of_int (r + 1)) +. (1. /. 3.)

let ascending_fold merge xs =
  List.fold_left merge (List.hd xs) (List.tl xs)

let test_allreduce () =
  let results =
    Comm.run ~ranks:4 (fun c ->
        let x = contribution (Comm.rank c) in
        (Comm.allreduce_sum c x, Comm.allreduce_max c (-.x)))
  in
  let xs = List.init 4 contribution in
  let sum = ascending_fold ( +. ) xs in
  let max = ascending_fold Float.max (List.map Float.neg xs) in
  Array.iter
    (fun (s, mx) ->
      check_close ~rtol:0. ~atol:0. "sum is the ascending-rank fold" sum s;
      check_close ~rtol:0. ~atol:0. "max" max mx)
    results;
  check_true "every rank gets bitwise the same sum"
    (Array.for_all
       (fun (s, _) -> Int64.bits_of_float s = Int64.bits_of_float sum)
       results)

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

let test_allgather () =
  let results =
    Comm.run ~ranks:3 (fun c ->
        let r = Comm.rank c in
        (* rows of different lengths: rank r contributes r + 1 floats *)
        Comm.allgather c (Array.init (r + 1) (fun i -> float_of_int ((10 * r) + i))))
  in
  Array.iter
    (fun rows ->
      Alcotest.(check int) "one row per rank" 3 (Array.length rows);
      Array.iteri
        (fun r row ->
          check_true
            (Printf.sprintf "row %d is rank %d's contribution" r r)
            (row = Array.init (r + 1) (fun i -> float_of_int ((10 * r) + i))))
        rows)
    results

(* Rank 0 dies and ranks 1 and 2 recover: every collective then runs on
   the survivors alone, with rank 1 the lowest live rank, and both
   survivors must get the fold of their two contributions, bitwise
   alike.  Rank 1 first leaves a contribution in a round that can never
   close (rank 2 goes straight to recovery): [recover] must discard it. *)
let test_shrunken_world_collectives () =
  let results =
    Comm.run_recoverable ~ranks:3 (fun c ->
        let r = Comm.rank c in
        if r = 0 then failwith "boom";
        (if r = 1 then
           match Comm.allgather c [| 99. |] with
           | _ -> failwith "a round closed without rank 2"
           | exception Comm.Rank_failed _ -> ());
        while Comm.alive c ~rank:0 do
          Unix.sleepf 1e-4
        done;
        let dead = Comm.recover c in
        let x = contribution r in
        ( dead,
          [| Comm.allreduce_sum c x;
             Comm.allreduce_max c (-.x) |],
          Comm.allreduce_sum_array c [| x; 2. *. x |],
          Comm.allreduce_max_array c [| x; -.x |],
          Comm.allgather c [| x |] ))
  in
  let x1 = contribution 1 and x2 = contribution 2 in
  let expected_scalars = [| x1 +. x2; Float.max (-.x1) (-.x2) |] in
  let expected_sum = [| x1 +. x2; (2. *. x1) +. (2. *. x2) |] in
  let expected_max = [| Float.max x1 x2; Float.max (-.x1) (-.x2) |] in
  let bits a = Array.map Int64.bits_of_float a in
  check_true "rank 0 died" (Result.is_error results.(0));
  List.iter
    (fun r ->
      match results.(r) with
      | Ok (dead, scalars, sum, max, rows) ->
          Alcotest.(check (list int)) "casualties" [ 0 ] dead;
          check_true "scalar reductions" (bits scalars = bits expected_scalars);
          check_true "sum array" (bits sum = bits expected_sum);
          check_true "max array" (bits max = bits expected_max);
          check_true "allgather: dead rank 0 is [||]"
            (rows = [| [||]; [| x1 |]; [| x2 |] |])
      | Error e -> Alcotest.failf "rank %d died: %s" r (Printexc.to_string e))
    [ 1; 2 ]

(* Rank 2 dies and both survivors enter a sum only once its death is
   recorded.  Whichever arrives last makes the survivors' quorum and
   closes the round, but the death is not recovered yet, so the round
   closes failed: both survivors must raise [Rank_failed] for rank 2,
   and neither may return the partial sum of ranks 0 and 1.  After they
   recover, the same sum succeeds on both. *)
let test_unrecovered_death_fails_round_everywhere () =
  let results =
    Comm.run_recoverable ~ranks:3 (fun c ->
        let r = Comm.rank c in
        if r = 2 then failwith "boom";
        while Comm.alive c ~rank:2 do
          Unix.sleepf 1e-4
        done;
        let x = contribution r in
        let first =
          match Comm.allreduce_sum c x with
          | v -> Ok v
          | exception Comm.Rank_failed { rank; _ } -> Error rank
        in
        ignore (Comm.recover c);
        (first, Comm.allreduce_sum c x))
  in
  let x0 = contribution 0 and x1 = contribution 1 in
  List.iter
    (fun r ->
      match results.(r) with
      | Ok (Error rank, after) ->
          Alcotest.(check int) "the failed round names rank 2" 2 rank;
          check_close ~rtol:0. ~atol:0. "the recovered sum" (x0 +. x1) after
      | Ok (Ok v, _) ->
          Alcotest.failf "rank %d returned the partial sum %g" r v
      | Error e -> Alcotest.failf "rank %d died: %s" r (Printexc.to_string e))
    [ 0; 1 ]

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

(* A classic rank's wire: block [rank] of [nranks], one view. *)
let rank_ports c bc g =
  let n = Comm.size c in
  ( Exchange.create ~comm:c ~nblocks:n ~owner:(Array.init n Fun.id)
      ~plane:(fun _ axis -> Sf.plane_size g ~axis)
      (),
    [ { Exchange.id = Comm.rank c; bc; g } ] )

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
        let ports, views = rank_ports c bc g in
        Exchange.fill_ghosts ports ~views ~scalars:(fun _ -> [ f ]);
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
        let ports, views = rank_ports c bc g in
        Exchange.fold_ghosts ports ~views ~scalars:(fun _ -> [ f ]);
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
        let ports, _ = rank_ports c bc grid in
        let movers = Push.Movers.create () in
        let st = push ~movers s f bc in
        let movers_after_push = Push.Movers.count movers in
        let targets = Array.make 2 None in
        targets.(rank) <-
          Some
            { Migrate.id = rank; bc; species = s; fields = f;
              accum = Accumulator.create grid; movers };
        let mig = Migrate.exchange ports ~targets in
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

(* An x split whose halves differ in size (7 cells: 4 + 3).  A mover
   leaving one rank must land in the receiving rank's own last or first
   cell, whatever the sender's extent: a hot plasma crosses both faces
   many times in 20 steps, every particle must survive, and charge must
   stay conserved (no Marder clean, so the Gauss residual sees every
   deposit). *)
let test_uneven_split_migrates () =
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:7 ~gny:4 ~gnz:4 ~lx:3.5 ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let ppc = 8 in
  let results =
    Comm.run ~ranks:2 (fun c ->
        let rank = Comm.rank c in
        let grid = Decomp.local_grid d ~dt ~rank in
        let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
        let sim =
          Simulation.make ~grid ~coupler:(Coupler.parallel c bc ~grid)
            ~clean_div_interval:0 ~sort_interval:4 ()
        in
        (* electrons on top of immobile-ish ions: rho and E start at 0 *)
        let rng = Rng.of_int (29 + rank) in
        let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
        ignore (Loader.maxwellian (Rng.split rng 1) e ~ppc ~uth:0.3 ());
        let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
        let irng = Rng.split rng 2 in
        Species.iter e (fun n ->
            let p = Species.get e n in
            Species.append ions
              { p with
                ux = 0.01 *. Rng.normal irng;
                uy = 0.01 *. Rng.normal irng;
                uz = 0.01 *. Rng.normal irng });
        let n0 = Simulation.total_particles sim in
        let r0 = Simulation.gauss_residual sim in
        Simulation.run sim ~steps:20 ();
        (grid.Grid.nx, n0, Simulation.total_particles sim, r0,
         Simulation.gauss_residual sim))
  in
  Alcotest.(check (list int)) "halves" [ 4; 3 ]
    (Array.to_list (Array.map (fun (nx, _, _, _, _) -> nx) results));
  let _, n0, n1, r0, r1 = results.(0) in
  Alcotest.(check int) "loaded" (2 * 7 * 4 * 4 * ppc) n0;
  Alcotest.(check int) "particle count conserved" n0 n1;
  (* rho and E start at zero; ghost currents and rho cross the f32 wire,
     which bounds the residual near single-precision round-off *)
  check_true
    (Printf.sprintf "gauss residual stays at round-off (%.3g -> %.3g)" r0 r1)
    (r0 < 1e-12 && r1 < 1e-6)

let suite =
  [ case "comm: allreduce" test_allreduce;
    case "comm: allreduce array" test_allreduce_array;
    case "comm: allgather" test_allgather;
    case "comm: collectives over a shrunken world"
      test_shrunken_world_collectives;
    case "comm: barrier generations" test_barrier_generations;
    case "exchange: fill matches global wrap" test_fill_ghosts_matches_global_wrap;
    case "exchange: fold accumulates across ranks" test_fold_ghosts_accumulates_across;
    slow_case "parallel: 2-rank run matches serial" test_parallel_matches_serial;
    case "migrate: conserves particles and momentum" test_migration_conserves;
    slow_case "parallel: x-split and y-split match 1 rank"
      test_decomposition_equivalence;
    slow_case "parallel: 4-rank smoke" test_four_rank_smoke;
    slow_case "parallel: 2x2 deterministic" test_parallel_2d_decomposition;
    slow_case "parallel: 2x2 matches serial" test_parallel_2d_matches_serial;
    case "parallel: an uneven split migrates" test_uneven_split_migrates;
    case "comm: a round closing on an unrecovered death fails on every rank"
      test_unrecovered_death_fails_round_everywhere ]
