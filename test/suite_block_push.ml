(* Block-vectorized push kernel suite.

   The block kernel is an execution reordering of the scalar fast path,
   not a numerical change: fixed-width lanes over one run-cached 72-byte
   interpolator block, with cell-crossers falling out to the scalar
   cleanup pass.  Deposits run in lane (= particle index) order, so every
   result — store contents, accumulator slots, stepped energies — must be
   BITWISE identical to the scalar kernel, for any block width, any
   worker count, and through the SPE-stream backend. *)

module Sort = Vpic_particle.Sort
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Spe_pipeline = Vpic_cell.Spe_pipeline
module Roadrunner = Vpic_cell.Roadrunner
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

(* --- direct Push.advance: block == scalar, bit for bit ------------- *)

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

let check_stores_bitwise label (a : Store.t) (b : Store.t) ~count =
  let open Bigarray.Array1 in
  for m = 0 to count - 1 do
    if unsafe_get a.Store.voxel m <> unsafe_get b.Store.voxel m then
      Alcotest.failf "%s: particle %d voxel differs" label m;
    List.iter
      (fun (name, (fa : Store.f32), fb) ->
        if bits (unsafe_get fa m) <> bits (unsafe_get fb m) then
          Alcotest.failf "%s: particle %d field %s: %.17e <> %.17e" label m
            name (unsafe_get fa m) (unsafe_get fb m))
      [ ("fx", a.Store.fx, b.Store.fx);
        ("fy", a.Store.fy, b.Store.fy);
        ("fz", a.Store.fz, b.Store.fz);
        ("ux", a.Store.ux, b.Store.ux);
        ("uy", a.Store.uy, b.Store.uy);
        ("uz", a.Store.uz, b.Store.uz);
        ("w", a.Store.w, b.Store.w) ]
  done

let check_accum_bitwise label a b =
  let da = Accumulator.data a and db = Accumulator.data b in
  let n = Bigarray.Array1.dim da in
  for i = 0 to n - 1 do
    let va = Bigarray.Array1.get da i and vb = Bigarray.Array1.get db i in
    if bits va <> bits vb then
      Alcotest.failf "%s: accumulator slot %d: %.17e <> %.17e" label i va vb
  done

let advance_parity ~width () =
  let g = small_grid ~n:8 ~l:8. () in
  let f = randomized_field g ~seed:5 in
  let ip = Interpolator.create g in
  Interpolator.load ip f;
  let run kernel =
    let s = forced_species g ~seed:11 in
    let ac = Accumulator.create g in
    let st = Push.advance ~interp:ip ~accum:ac ?kernel s f Bc.periodic in
    (s, ac, st)
  in
  let s_sc, ac_sc, st_sc = run None in
  let s_bl, ac_bl, st_bl = run (Some (Push.Block { width })) in
  Alcotest.(check int)
    "same particle count" (Species.count s_sc) (Species.count s_bl);
  Alcotest.(check int) "same advanced" st_sc.Push.advanced st_bl.Push.advanced;
  Alcotest.(check int) "same segments" st_sc.Push.segments st_bl.Push.segments;
  check_true "block lanes were pushed" (st_bl.Push.block_lanes > 0);
  check_true "forced crossings reached the cleanup pass"
    (st_bl.Push.block_cleanup > 0);
  check_true "cleanup is the minority path"
    (st_bl.Push.block_cleanup < st_bl.Push.block_lanes);
  check_stores_bitwise
    (Printf.sprintf "scalar vs block%d" width)
    s_sc.Species.store s_bl.Species.store ~count:(Species.count s_sc);
  check_accum_bitwise
    (Printf.sprintf "scalar vs block%d currents" width)
    ac_sc ac_bl

let test_advance_parity_w8 () = advance_parity ~width:8 ()
let test_advance_parity_w4 () = advance_parity ~width:4 ()

(* --- 20-step srs energies: block == scalar ------------------------- *)

(* ny = nz = 6 gives the deck a real interior region, so the overlapped
   interior pass blocks over actual runs instead of deferring the whole
   (quasi-1D) shell to the scalar boundary pass. *)
let srs_config = { Deck.default with Deck.ppc = 2; Deck.ny = 6; Deck.nz = 6 }

let srs_energies ~push_backend ~steps () =
  let setup = Deck.build ~push_backend srs_config in
  let sim = setup.Deck.sim in
  for _ = 1 to steps do
    Simulation.step sim
  done;
  check_true "interior block lanes were pushed"
    (match push_backend with
    | Simulation.Host_block _ ->
        sim.Simulation.push_stats.Push.block_lanes > 0
    | _ -> true);
  Simulation.energies sim

let test_srs_block_parity () =
  let e_sc =
    srs_energies ~push_backend:Simulation.Host_scalar ~steps:20 ()
  in
  let e_bl =
    srs_energies ~push_backend:(Simulation.Host_block { width = 8 }) ~steps:20
      ()
  in
  check_energies_bitwise "srs 20 steps, scalar vs block8" e_sc e_bl

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

(* --- SPE-stream backend: serial streaming == scalar ---------------- *)

(* Without a worker team the SPE stream chunks the same block kernel
   through the pipeline's DMA ledger in index order — deposits land in
   exactly the scalar order, so even this backend is bitwise. *)
let test_srs_spe_parity () =
  let e_sc =
    srs_energies ~push_backend:Simulation.Host_scalar ~steps:10 ()
  in
  let e_spe =
    srs_energies
      ~push_backend:(Simulation.Spe_stream { width = 8; dma_block = 512 })
      ~steps:10 ()
  in
  check_energies_bitwise "srs 10 steps, scalar vs spe stream" e_sc e_spe

let suite =
  [ case "block push: advance bitwise equals scalar (width 8)"
      test_advance_parity_w8;
    case "block push: advance bitwise equals scalar (width 4)"
      test_advance_parity_w4;
    case "block push: srs energies bitwise equal scalar"
      test_srs_block_parity;
    case "block push: energies bitwise invariant in worker count"
      test_srs_block_worker_invariance;
    case "block push: spe-stream backend bitwise equals scalar"
      test_srs_spe_parity ]
