(* Over-decomposition: relocatable blocks, the greedy rebalancer, and
   the checkpoint wire image blocks travel over when they relocate. *)

module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Decomp = Vpic_grid.Decomp
module Block = Vpic_grid.Block
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species
module Loader = Vpic_particle.Loader
module Rng = Vpic_util.Rng
module Perf = Vpic_util.Perf
module Comm = Vpic_parallel.Comm
module Rebalance = Vpic_parallel.Rebalance
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Multiblock = Vpic.Multiblock
open Helpers

(* ------------------------------------------------------ rebalance plan ---- *)

let test_plan_balanced () =
  let plan =
    Rebalance.plan ~costs:[| 1.; 1.; 1.; 1. |] ~owner:[| 0; 0; 1; 1 |]
      ~nranks:2 ~threshold:1.1 ()
  in
  Alcotest.(check int) "no moves" 0 (List.length plan.Rebalance.moves);
  check_close ~rtol:1e-12 "imbalance" 1. plan.Rebalance.imbalance_before

let test_plan_skewed () =
  let owner = [| 0; 0; 1; 1 |] in
  let plan =
    Rebalance.plan ~costs:[| 4.; 1.; 1.; 1. |] ~owner ~nranks:2
      ~threshold:1.1 ()
  in
  check_true "at least one move" (List.length plan.Rebalance.moves >= 1);
  check_true "imbalance improves"
    (plan.Rebalance.imbalance_after < plan.Rebalance.imbalance_before);
  (* every destination differs from the block's original owner *)
  List.iter
    (fun (b, dst) -> check_true "move changes owner" (owner.(b) <> dst))
    plan.Rebalance.moves;
  (* the input ownership table is not mutated by planning *)
  Alcotest.(check (array int)) "owner untouched" [| 0; 0; 1; 1 |] owner

let test_plan_keeps_last_block () =
  let plan =
    Rebalance.plan ~costs:[| 10.; 0.1 |] ~owner:[| 0; 1 |] ~nranks:2
      ~threshold:1.0 ()
  in
  (* rank 0 is overloaded but owns a single block: nothing to split *)
  Alcotest.(check int) "no moves" 0 (List.length plan.Rebalance.moves)

let test_plan_refuses_swapping_imbalance () =
  (* moving the only movable block would just overload the receiver *)
  let plan =
    Rebalance.plan ~costs:[| 5.; 5.; 0.1 |] ~owner:[| 0; 0; 1 |] ~nranks:2
      ~threshold:1.05 ()
  in
  List.iter
    (fun (_, _) -> ())
    plan.Rebalance.moves;
  check_true "never worse"
    (plan.Rebalance.imbalance_after <= plan.Rebalance.imbalance_before)

let test_wire_roundtrip () =
  List.iter
    (fun n ->
      let b = Bytes.init n (fun i -> Char.chr (((i * 73) + n) land 0xff)) in
      let rt = Rebalance.bytes_of_floats (Rebalance.floats_of_bytes b) in
      check_true (Printf.sprintf "round trip len %d" n) (Bytes.equal b rt))
    [ 0; 1; 2; 7; 256; 1023 ]

(* ----------------------------------------------------------- wire image ---- *)

let build_plasma_sim () =
  let g = small_grid ~n:6 ~l:3. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:7 ~sort_interval:5 ()
  in
  let rng = Rng.of_int 11 in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.split rng 1) e ~ppc:12 ~uth:0.05 ());
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:50. in
  let irng = Rng.split rng 2 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      Species.append ions
        { p with
          ux = 0.02 *. Rng.normal irng;
          uy = 0.02 *. Rng.normal irng;
          uz = 0.02 *. Rng.normal irng });
  sim

let test_wire_image_roundtrip () =
  let sim = build_plasma_sim () in
  Simulation.run sim ~steps:15 ();
  let image = Checkpoint.encode sim in
  let restored = Checkpoint.decode ~coupler:(Coupler.local Bc.periodic) image in
  (* bitwise-stable serialization: decode then re-encode is a fixpoint *)
  check_true "re-encode is bitwise identical"
    (Bytes.equal image (Checkpoint.encode restored));
  (* deterministic continuation: both trajectories stay bitwise equal *)
  Simulation.run sim ~steps:15 ();
  Simulation.run restored ~steps:15 ();
  check_close ~atol:0. ~rtol:0. "fields identical" 0.
    (Em_field.max_component_diff sim.Simulation.fields
       restored.Simulation.fields);
  Alcotest.(check int) "particle count"
    (Simulation.total_particles sim)
    (Simulation.total_particles restored);
  let ea = Simulation.energies sim and eb = Simulation.energies restored in
  check_close ~rtol:1e-12 "energies" ea.Simulation.total eb.Simulation.total

let test_wire_image_block_guard () =
  let sim = build_plasma_sim () in
  let image = Checkpoint.encode ~block_id:3 ~nblocks:8 sim in
  check_true "decode rejects wrong slot"
    (try
       ignore
         (Checkpoint.decode ~expect_block:5
            ~coupler:(Coupler.local Bc.periodic) image);
       false
     with Checkpoint.Corrupt _ -> true);
  let back =
    Checkpoint.decode ~expect_block:3 ~coupler:(Coupler.local Bc.periodic)
      image
  in
  Alcotest.(check int) "particle count"
    (Simulation.total_particles sim)
    (Simulation.total_particles back)

(* A block image carries its identity through a decode: re-encoding
   under the same block id and count reproduces it byte for byte. *)
let test_wire_image_block_roundtrip () =
  let sim = build_plasma_sim () in
  Simulation.run sim ~steps:7 ();
  let image = Checkpoint.encode ~block_id:6 ~nblocks:7 sim in
  let back =
    Checkpoint.decode ~expect_block:6 ~coupler:(Coupler.local Bc.periodic)
      image
  in
  check_true "block image re-encodes bitwise"
    (Bytes.equal image (Checkpoint.encode ~block_id:6 ~nblocks:7 back))

(* ------------------------------------------------------ multiblock world ---- *)

let world_dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 ()

let mk_layout ~blocks =
  Block.over
    (Decomp.make ~px:1 ~py:blocks ~pz:1 ~gnx:6 ~gny:8 ~gnz:4 ~lx:3. ~ly:4.
       ~lz:2.)

(* One block of a neutral-plasma world; [ppc_of id] skews the load.
   Seeds are salted by block id, so trajectories are independent of the
   rank count and of block ownership. *)
let block_build ?(filter = 0) ~ppc_of layout ~id ~coupler ~perf =
  let grid = Block.grid layout ~dt:world_dt ~id in
  let sim =
    Simulation.make ~grid ~coupler ~perf ~clean_div_interval:7
      ~sort_interval:5 ~current_filter_passes:filter ()
  in
  let rng = Rng.of_int (101 + (17 * id)) in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.split rng 1) e ~ppc:(ppc_of id) ~uth:0.05 ());
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:50. in
  let irng = Rng.split rng 2 in
  Species.iter e (fun n ->
      let p = Species.get e n in
      Species.append ions
        { p with
          ux = 0.02 *. Rng.normal irng;
          uy = 0.02 *. Rng.normal irng;
          uz = 0.02 *. Rng.normal irng });
  sim

let mk_world ?comm ?(blocks = 4) ?(ppc_of = fun _ -> 8) ?filter
    ?(rebalance_interval = 10) ?(rebalance_threshold = 0.) ?cost_model () =
  let layout = mk_layout ~blocks in
  Multiblock.create ?comm ~rebalance_interval ~rebalance_threshold ?cost_model
    ~layout ~global_bc:Bc.periodic
    ~build:(fun ~id ~coupler ~perf ->
      block_build ?filter ~ppc_of layout ~id ~coupler ~perf)
    ()

let test_one_block_is_classic_serial () =
  let layout = mk_layout ~blocks:1 in
  let mb = mk_world ~blocks:1 () in
  let classic =
    block_build ~ppc_of:(fun _ -> 8) layout ~id:0
      ~coupler:(Coupler.local Bc.periodic) ~perf:(Perf.create ())
  in
  Multiblock.run mb ~steps:25 ();
  Simulation.run classic ~steps:25 ();
  let sim =
    match Multiblock.owned_sims mb with [ (0, s) ] -> s | _ -> assert false
  in
  check_close ~atol:0. ~rtol:0. "fields identical" 0.
    (Em_field.max_component_diff classic.Simulation.fields
       sim.Simulation.fields);
  Alcotest.(check int) "particle count"
    (Simulation.total_particles classic)
    (Multiblock.total_particles mb);
  let ea = Simulation.energies classic and eb = Multiblock.energies mb in
  check_close ~rtol:1e-12 "energies" ea.Simulation.total eb.Simulation.total

(* Step a world, recording the total energy every [every] steps. *)
let stepped_energies ?comm ?filter ?rebalance_threshold ?cost_model ~blocks
    ~ppc_of ~steps ~every () =
  let mb =
    mk_world ?comm ~blocks ~ppc_of ?filter ~rebalance_interval:5
      ?rebalance_threshold ?cost_model ()
  in
  let out = ref [] in
  for s = 1 to steps do
    Multiblock.step mb;
    if s mod every = 0 then
      out := (Multiblock.energies mb).Simulation.total :: !out
  done;
  let migrations =
    match comm with
    | Some c -> Comm.allreduce_sum c (float_of_int (Multiblock.migrations mb))
    | None -> float_of_int (Multiblock.migrations mb)
  in
  (List.rev !out, Multiblock.total_particles mb, migrations)

(* The same 4-block world on 1 rank and on 2, unfiltered and with one
   binomial filter pass: a block's step does not depend on its owner,
   so the physics is rank-count independent — sibling faces quantize through the same f32
   scratch the cross-rank wire uses, and the filter passes fill through
   the same world, so only f64 reduction order distinguishes the two
   placements. *)
let test_rank_count_parity () =
  let steps = 30 and ppc_of id = 4 + (4 * id) in
  List.iter
    (fun filter ->
      let serial_e, serial_np, _ =
        stepped_energies ~filter ~blocks:4 ~ppc_of ~steps ~every:5 ()
      in
      let results =
        Comm.run ~ranks:2 (fun c ->
            stepped_energies ~comm:c ~filter ~blocks:4 ~ppc_of ~steps ~every:5
              ())
      in
      let par_e, par_np, _ = results.(0) in
      let label what = Printf.sprintf "%s (filter %d)" what filter in
      Alcotest.(check int) (label "particle count") serial_np par_np;
      List.iter2
        (fun a b -> check_close ~rtol:2e-5 (label "energy trajectory") a b)
        serial_e par_e)
    [ 0; 1 ]

(* Skew the per-block load hard enough that the deterministic
   particle-count cost model must relocate blocks, then demand the
   dynamic trajectory matches the static-ownership one. *)
let test_forced_rebalance_parity () =
  let steps = 30 and ppc_of id = 4 + (6 * id) in
  let run threshold =
    (Comm.run ~ranks:2 (fun c ->
         stepped_energies ~comm:c ~rebalance_threshold:threshold
           ~cost_model:`Particles ~blocks:4 ~ppc_of ~steps ~every:10 ())).(0)
  in
  let static_e, static_np, static_moves = run 0. in
  let dyn_e, dyn_np, dyn_moves = run 1.01 in
  check_close ~rtol:1e-12 "static run never migrates" 0. static_moves;
  check_true "dynamic run migrates at least once" (dyn_moves >= 1.);
  Alcotest.(check int) "particle count" static_np dyn_np;
  List.iter2
    (fun a b -> check_close ~rtol:2e-5 "energy parity" a b)
    static_e dyn_e

(* Both routings of one decomposition: 2 blocks on one rank through the
   fused block ports, and the same 2 slabs as 2 classic ranks through
   [Coupler.parallel].  Sibling faces cross the same f32 wire and the
   loading salts agree, but a sibling's movers finish straight into
   its neighbour in ship order, while wire arrivals finish lo face
   first: particle order, and so summation order, differs at the last
   bit.  The energies agree to round-off, not bitwise. *)
let test_two_blocks_match_two_ranks () =
  let steps = 30 and every = 5 and ppc_of _ = 8 in
  let block_e, block_np, _ =
    stepped_energies ~blocks:2 ~ppc_of ~steps ~every ()
  in
  let layout = mk_layout ~blocks:2 in
  let results =
    Comm.run ~ranks:2 (fun c ->
        let id = Comm.rank c in
        let coupler =
          Coupler.parallel c
            (Block.bc layout ~global:Bc.periodic ~id)
            ~grid:(Block.grid layout ~dt:world_dt ~id)
        in
        let sim =
          block_build ~ppc_of layout ~id ~coupler ~perf:(Perf.create ())
        in
        let out = ref [] in
        for s = 1 to steps do
          Simulation.step sim;
          if s mod every = 0 then
            out := (Simulation.energies sim).Simulation.total :: !out
        done;
        (List.rev !out, Simulation.total_particles sim))
  in
  let rank_e, rank_np = results.(0) in
  Alcotest.(check int) "particle count" block_np rank_np;
  Alcotest.(check int) "samples" (steps / every) (List.length rank_e);
  List.iter2
    (fun a b -> check_close ~atol:0. ~rtol:1e-12 "energy trajectory" a b)
    block_e rank_e

(* One wire for both worlds: 2 blocks on 2 ranks and the same 2 slabs as
   2 classic ranks ([Coupler.parallel]) route every fill, fold and mover
   through the same block-keyed ports, with no co-resident faces on
   either side, so they step bit for bit alike — unfiltered, and with
   one binomial filter pass whose fills the block world routes through
   its own ports. *)
let test_blocks_on_ranks_match_classic_ranks () =
  let steps = 30 and every = 5 and ppc_of _ = 8 in
  let layout = mk_layout ~blocks:2 in
  let rank0_fields sim = Em_field.copy sim.Simulation.fields in
  List.iter
    (fun filter ->
      let block_runs =
        Comm.run ~ranks:2 (fun c ->
            let mb = mk_world ~comm:c ~blocks:2 ~ppc_of ~filter () in
            let out = ref [] in
            for s = 1 to steps do
              Multiblock.step mb;
              if s mod every = 0 then
                out := (Multiblock.energies mb).Simulation.total :: !out
            done;
            let sim =
              match Multiblock.owned_sims mb with
              | [ (_, s) ] -> s
              | _ -> assert false
            in
            (List.rev !out, Multiblock.total_particles mb, rank0_fields sim))
      in
      let rank_runs =
        Comm.run ~ranks:2 (fun c ->
            let id = Comm.rank c in
            let coupler =
              Coupler.parallel c
                (Block.bc layout ~global:Bc.periodic ~id)
                ~grid:(Block.grid layout ~dt:world_dt ~id)
            in
            let sim =
              block_build ~filter ~ppc_of layout ~id ~coupler
                ~perf:(Perf.create ())
            in
            let out = ref [] in
            for s = 1 to steps do
              Simulation.step sim;
              if s mod every = 0 then
                out := (Simulation.energies sim).Simulation.total :: !out
            done;
            (List.rev !out, Simulation.total_particles sim, rank0_fields sim))
      in
      let block_e, block_np, block_f = block_runs.(0) in
      let rank_e, rank_np, rank_f = rank_runs.(0) in
      let label what = Printf.sprintf "%s (filter %d)" what filter in
      Alcotest.(check int) (label "particle count") block_np rank_np;
      Alcotest.(check int) (label "samples") (steps / every)
        (List.length rank_e);
      List.iter2
        (fun a b -> check_close ~atol:0. ~rtol:0. (label "energy trajectory") a b)
        block_e rank_e;
      check_close ~atol:0. ~rtol:0. (label "rank-0 fields identical") 0.
        (Em_field.max_component_diff block_f rank_f))
    [ 0; 1 ]

(* A skewed 2-rank x 4-block world (ppc rises with block id, so rank
   1's slabs start ~2.7x heavier than rank 0's), stepped under static
   ownership and under the greedy rebalancer on the deterministic
   [`Particles] cost model: blocks must move, the push imbalance must
   drop, and the final energy must not notice. *)
let test_skewed_world_rebalances () =
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
    (Comm.run ~ranks (fun c ->
         let layout = mk_layout () in
         let mb =
           Multiblock.create ~comm:c ~rebalance_interval:interval
             ~rebalance_threshold:threshold ~cost_model:`Particles ~layout
             ~global_bc:Bc.periodic ~build:(build layout) ()
         in
         Multiblock.run mb ~steps ();
         ( Multiblock.last_imbalance mb,
           Comm.allreduce_sum c (float_of_int (Multiblock.migrations mb)),
           (Multiblock.energies mb).Simulation.total ))).(0)
  in
  let imb_static, _, en_static = variant ~threshold:0. in
  let imb_dyn, moves, en_dyn = variant ~threshold:1.01 in
  check_true "at least one block migrates" (moves >= 1.);
  check_true
    (Printf.sprintf "imbalance drops (static %.3f, rebalanced %.3f)"
       imb_static imb_dyn)
    (imb_dyn < imb_static);
  let rel = Float.abs (en_dyn -. en_static) /. Float.abs en_static in
  check_true (Printf.sprintf "energy rel diff %.1e < 1e-6" rel) (rel < 1e-6)

let suite =
  [ case "rebalance: balanced plan is empty" test_plan_balanced;
    case "rebalance: skewed plan reduces imbalance" test_plan_skewed;
    case "rebalance: a rank keeps its last block" test_plan_keeps_last_block;
    case "rebalance: refuses counterproductive moves"
      test_plan_refuses_swapping_imbalance;
    case "rebalance: block wire round-trips bytes" test_wire_roundtrip;
    case "checkpoint: wire image round-trips bitwise"
      test_wire_image_roundtrip;
    case "checkpoint: wire image guards its block slot"
      test_wire_image_block_guard;
    slow_case "multiblock: 1 block equals the classic serial loop"
      test_one_block_is_classic_serial;
    slow_case "multiblock: energies independent of rank count"
      test_rank_count_parity;
    slow_case "multiblock: forced rebalance preserves the physics"
      test_forced_rebalance_parity;
    case "checkpoint: block image re-encodes bitwise"
      test_wire_image_block_roundtrip;
    slow_case "multiblock: 2 blocks on 1 rank step like 2 classic ranks"
      test_two_blocks_match_two_ranks;
    slow_case
      "multiblock: skewed world rebalances, imbalance drops, energy holds"
      test_skewed_world_rebalances;
    slow_case "multiblock: N blocks on N ranks step bitwise like N classic ranks"
      test_blocks_on_ranks_match_classic_ranks ]
