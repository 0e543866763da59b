(* Block-vectorized push kernel suite.

   The block kernel is the one particle loop: fixed-width lanes over one
   run-cached 72-byte interpolator block, with cell-crossers falling out
   to the face-crossing walk.  Deposits run in lane (= particle index)
   order, so every result — store contents, accumulator slots, stepped
   energies — must be BITWISE invariant in the block width and in the
   worker count, with or without current filtering.  One independent
   oracle pins the lane arithmetic itself: a non-crossing particle must
   land exactly where the public gather/Boris/move functions put it. *)

module Sort = Vpic_particle.Sort
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Team = Vpic_parallel.Team
module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation
open Helpers

let bits = Int64.bits_of_float

let check_bitwise label a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17e <> %.17e (not bitwise equal)" label a b

let check_energies_bitwise label (a : Simulation.energies)
    (b : Simulation.energies) =
  check_bitwise (label ^ ": field E") a.Simulation.field_e
    b.Simulation.field_e;
  check_bitwise (label ^ ": field B") a.Simulation.field_b
    b.Simulation.field_b;
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (label ^ ": species name") na nb;
      check_bitwise (label ^ ": species " ^ na) va vb)
    a.Simulation.particles b.Simulation.particles;
  check_bitwise (label ^ ": total") a.Simulation.total b.Simulation.total

(* --- direct Push.advance: bitwise invariant in the block width ----- *)

(* A sorted population whose runs (ppc = 11) split into one full 8-wide
   block plus a 3-lane remainder tail, with cell crossings forced at
   block-boundary lanes: every structural edge of the block driver —
   full block, short tail, masked lane, run-cache handoff to the scalar
   cleanup — is on the executed path. *)
let forced_species g ~seed =
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian (Rng.of_int seed) s ~ppc:11 ~uth:0.2 ());
  Sort.by_voxel s;
  let st = s.Species.store in
  let open Bigarray.Array1 in
  for m = 0 to Species.count s - 1 do
    if m mod 8 = 0 || m mod 8 = 7 then begin
      (* near the hi x-face with a hard kick: the walk must cross *)
      unsafe_set st.Store.fx m (Store.clamp_offset 0.9);
      unsafe_set st.Store.ux m 4.0
    end
  done;
  s

let randomized_field g ~seed =
  let f = Em_field.create g in
  let rng = Rng.of_int seed in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.05 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em Bc.periodic f;
  f

let check_accum_bitwise label a b =
  let da = Accumulator.data a and db = Accumulator.data b in
  let n = Bigarray.Array1.dim da in
  for i = 0 to n - 1 do
    let va = Bigarray.Array1.get da i and vb = Bigarray.Array1.get db i in
    if bits va <> bits vb then
      Alcotest.failf "%s: accumulator slot %d: %.17e <> %.17e" label i va vb
  done

let test_advance_width_invariance () =
  let g = small_grid ~n:8 ~l:8. () in
  let f = randomized_field g ~seed:5 in
  let interp = loaded_interp f in
  let run width =
    let s = forced_species g ~seed:11 in
    let ac = Accumulator.create g in
    let st = Push.advance ~interp ~accum:ac ~width s f Bc.periodic in
    (s, ac, st)
  in
  let s1, ac1, st1 = run 1 in
  List.iter
    (fun width ->
      let s, ac, st = run width in
      let label = Printf.sprintf "block1 vs block%d" width in
      Alcotest.(check int)
        (label ^ ": same particle count") (Species.count s1) (Species.count s);
      Alcotest.(check int)
        (label ^ ": same advanced") st1.Push.advanced st.Push.advanced;
      Alcotest.(check int)
        (label ^ ": same segments") st1.Push.segments st.Push.segments;
      check_true (label ^ ": block lanes were pushed")
        (st.Push.block_lanes > 0);
      check_true
        (label ^ ": forced crossings reached the cleanup pass")
        (st.Push.block_cleanup > 0);
      check_true
        (label ^ ": cleanup is the minority path")
        (st.Push.block_cleanup < st.Push.block_lanes);
      check_stores_bitwise label s1.Species.store s.Species.store
        ~count:(Species.count s1);
      check_accum_bitwise (label ^ " currents") ac1 ac)
    [ 4; 8; 16 ]

(* --- independent oracle: one lane == the public function chain ---- *)

(* Particles parked mid-cell with small momenta cross no face, so the
   kernel settles each in one fused lane.  The stored result must equal,
   bit for bit, the chain of public functions the lane inlines:
   [Interpolator.gather_into] -> [Push.boris] -> inverse gamma ->
   [Store.clamp_offset (x + r)], narrowed to the f32 store. *)
let test_lane_matches_public_chain () =
  let g = small_grid ~n:8 ~l:8. () in
  let f = randomized_field g ~seed:9 in
  let interp = loaded_interp f in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 21 in
  for n = 0 to 39 do
    Species.append s
      { i = 2 + (n mod 5); j = 3 + (n / 5 mod 4); k = 4; fx = 0.5;
        fy = 0.25 +. (0.5 *. Rng.uniform rng); fz = 0.5;
        ux = 0.05 *. Rng.normal rng; uy = 0.05 *. Rng.normal rng;
        uz = 0.05 *. Rng.normal rng; w = 1. }
  done;
  Sort.by_voxel s;
  let before = Array.init (Species.count s) (Species.get s) in
  let st = Push.advance ~interp ~accum:(Accumulator.create g) s f Bc.periodic in
  Alcotest.(check int) "no lane crossed" 0 st.Push.block_cleanup;
  let dt = g.Grid.dt in
  let qdt_2m = 0.5 *. -1. *. dt /. 1. in
  let out = Array.make 6 0. in
  Array.iteri
    (fun n (p : Particle.t) ->
      Interpolator.gather_into interp
        ~voxel:(Grid.voxel g p.Particle.i p.Particle.j p.Particle.k)
        ~fx:p.Particle.fx ~fy:p.Particle.fy ~fz:p.Particle.fz ~out;
      let u = [| p.Particle.ux; p.Particle.uy; p.Particle.uz |] in
      Push.boris ~u ~ex:out.(0) ~ey:out.(1) ~ez:out.(2) ~bx:out.(3)
        ~by:out.(4) ~bz:out.(5) ~qdt_2m;
      let inv_gamma =
        1.
        /. sqrt
             (1. +. (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)))
      in
      let moved x a inv_d =
        Store.clamp_offset (x +. (u.(a) *. inv_gamma *. dt *. inv_d))
      in
      let q = Species.get s n in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "particle %d cell" n)
        (p.Particle.i, p.Particle.j, p.Particle.k)
        (q.Particle.i, q.Particle.j, q.Particle.k);
      List.iter
        (fun (name, expected, actual) ->
          check_bitwise
            (Printf.sprintf "particle %d %s" n name)
            expected actual)
        [ ("fx", moved p.Particle.fx 0 (1. /. g.Grid.dx), q.Particle.fx);
          ("fy", moved p.Particle.fy 1 (1. /. g.Grid.dy), q.Particle.fy);
          ("fz", moved p.Particle.fz 2 (1. /. g.Grid.dz), q.Particle.fz);
          ("ux", Store.round32 u.(0), q.Particle.ux);
          ("uy", Store.round32 u.(1), q.Particle.uy);
          ("uz", Store.round32 u.(2), q.Particle.uz) ])
    before

(* --- 20-step srs energies: block1 == block8 ------------------------ *)

(* ny = nz = 6 gives the deck a real interior region, so the overlapped
   interior pass blocks over actual runs as well as the deferred shell. *)
let srs_config = { Deck.default with Deck.ppc = 2; Deck.ny = 6; Deck.nz = 6 }

let srs_energies ~push_backend ~steps () =
  let setup = Deck.build ~push_backend srs_config in
  let sim = setup.Deck.sim in
  for _ = 1 to steps do
    Simulation.step sim
  done;
  check_true "block lanes were pushed"
    (sim.Simulation.push_stats.Push.block_lanes > 0);
  Simulation.energies sim

let test_srs_width_invariance () =
  let e1 =
    srs_energies ~push_backend:(Simulation.Host_block { width = 1 }) ~steps:20
      ()
  in
  let e8 =
    srs_energies ~push_backend:(Simulation.Host_block { width = 8 }) ~steps:20
      ()
  in
  check_energies_bitwise "srs 20 steps, block1 vs block8" e1 e8

(* --- worker-count invariance under the block kernel ---------------- *)

let srs_team_energies ~workers ~steps =
  Team.with_team ~workers (fun tm ->
      let setup =
        Deck.build ~push_backend:(Simulation.Host_block { width = 8 })
          srs_config
      in
      let sim = setup.Deck.sim in
      Simulation.set_pool sim (Team.pool tm);
      for _ = 1 to steps do
        Simulation.step sim
      done;
      Simulation.energies sim)

let test_srs_block_worker_invariance () =
  let e1 = srs_team_energies ~workers:1 ~steps:20 in
  let e4 = srs_team_energies ~workers:4 ~steps:20 in
  check_energies_bitwise "block8, 1 vs 4 workers" e1 e4

(* --- filtered runs take the same split push ---------------------- *)

(* With current filtering the interpolator loads from a smoothed copy
   after the whole fill, and the push is still the interior/shell pair:
   the interior pass fans out over the team, so the trajectory must be
   bitwise invariant in both the worker count and the block width. *)
let filtered_energies ~workers ~width ~steps =
  Team.with_team ~workers (fun tm ->
      let setup =
        Deck.build ~push_backend:(Simulation.Host_block { width })
          { srs_config with Deck.filter_passes = 1 }
      in
      let sim = setup.Deck.sim in
      Simulation.set_pool sim (Team.pool tm);
      let samples = ref [] in
      for n = 1 to steps do
        Simulation.step sim;
        if n mod 5 = 0 then samples := Simulation.energies sim :: !samples
      done;
      List.rev !samples)

let test_filtered_invariance () =
  let reference = filtered_energies ~workers:1 ~width:8 ~steps:20 in
  List.iter
    (fun (label, run) ->
      List.iteri
        (fun n (a, b) ->
          check_energies_bitwise
            (Printf.sprintf "filtered, %s, step %d" label (5 * (n + 1)))
            a b)
        (List.combine reference run))
    [ ("1 vs 4 workers", filtered_energies ~workers:4 ~width:8 ~steps:20);
      ("width 8 vs 1", filtered_energies ~workers:1 ~width:1 ~steps:20) ]

(* --- the deferred boundary shell runs the block kernel too --------- *)

(* On a 4x4 cross-section three quarters of the cells are shell, and a
   refluxing/absorbing deck pushes them in the deferred pass: every
   pushed particle must still have entered the block kernel's lanes. *)
let test_shell_runs_block_kernel () =
  let setup = Deck.build { Deck.default with Deck.ny = 4; Deck.nz = 4 } in
  let sim = setup.Deck.sim in
  for _ = 1 to 5 do
    Simulation.step sim
  done;
  let ps = sim.Simulation.push_stats in
  check_true "particles were pushed" (ps.Push.advanced > 0);
  Alcotest.(check int) "every pushed particle ran in a block lane"
    ps.Push.advanced ps.Push.block_lanes

let suite =
  [ case "block push: advance bitwise invariant in width (1, 4, 8, 16)"
      test_advance_width_invariance;
    case "block push: srs energies bitwise equal at widths 1 and 8"
      test_srs_width_invariance;
    case "block push: energies bitwise invariant in worker count"
      test_srs_block_worker_invariance;
    case "block push: a lane equals the public gather/boris/move chain"
      test_lane_matches_public_chain;
    case "block push: the boundary shell runs the block kernel"
      test_shell_runs_block_kernel;
    case "block push: filtered energies bitwise invariant in workers and width"
      test_filtered_invariance ]
