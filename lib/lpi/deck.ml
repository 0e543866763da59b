module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Decomp = Vpic_grid.Decomp
module Block = Vpic_grid.Block
module Comm = Vpic_parallel.Comm
module Laser = Vpic_field.Laser
module Species = Vpic_particle.Species
module Loader = Vpic_particle.Loader
module Rng = Vpic_util.Rng
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Multiblock = Vpic.Multiblock

type config = {
  nr : float;
  te_kev : float;
  ti_over_te : float;
  a0 : float;
  r_seed : float;
  nx : int;
  ny : int;
  nz : int;
  dx : float;
  l_transverse : float;
  vacuum : float;
  ppc : int;
  ion_mass : float;
  filter_passes : int;
  t_rise : float;
  y_skew : float;
  rng_seed : int;
}

let default =
  { nr = 0.10;
    te_kev = 2.5;
    ti_over_te = 0.3;
    a0 = 0.06;
    r_seed = 1e-3;
    nx = 256;
    ny = 2;
    nz = 2;
    dx = 0.10;
    l_transverse = 2.0;
    vacuum = 5.0;
    ppc = 64;
    ion_mass = 1836.;
    filter_passes = 0;
    t_rise = 15.;
    y_skew = 0.;
    rng_seed = 2008 }

let electron_rest_kev = 510.99895

let e0_of c = c.a0 /. sqrt c.nr

(* Canonical float rendering for the content-hash contract: one fixed
   format for every float field (17 significant digits round-trips any
   finite double), negative zero folded into zero.  Changing this —
   or the field order below — changes every deck hash and silently
   invalidates every campaign results cache; suite_campaign pins the
   hash of [default] against exactly that. *)
let canonical_float v =
  if v = 0. then "0" else Printf.sprintf "%.17g" v

let to_canonical_string c =
  String.concat "\n"
    [ "vpic-deck/1";
      "nr=" ^ canonical_float c.nr;
      "te_kev=" ^ canonical_float c.te_kev;
      "ti_over_te=" ^ canonical_float c.ti_over_te;
      "a0=" ^ canonical_float c.a0;
      "r_seed=" ^ canonical_float c.r_seed;
      "nx=" ^ string_of_int c.nx;
      "ny=" ^ string_of_int c.ny;
      "nz=" ^ string_of_int c.nz;
      "dx=" ^ canonical_float c.dx;
      "l_transverse=" ^ canonical_float c.l_transverse;
      "vacuum=" ^ canonical_float c.vacuum;
      "ppc=" ^ string_of_int c.ppc;
      "ion_mass=" ^ canonical_float c.ion_mass;
      "filter_passes=" ^ string_of_int c.filter_passes;
      "t_rise=" ^ canonical_float c.t_rise;
      "y_skew=" ^ canonical_float c.y_skew;
      "rng_seed=" ^ string_of_int c.rng_seed ]
  ^ "\n"

type setup = {
  sim : Simulation.t;
  refl : Reflectivity.t;
  plasma : Srs_theory.plasma;
  matching : Srs_theory.matching;
  plasma_x_lo : float;
  plasma_x_hi : float;
  e0 : float;
  config : config;
}

(* Load ions at the electrons' positions (co-located quiet start: the
   plasma starts exactly neutral node by node, so the only initial E is
   zero and Gauss's law holds from step 0). *)
let load_colocated_ions rng (electrons : Species.t) (ions : Species.t) ~uth_i =
  Species.reserve ions (Species.count electrons);
  Species.iter electrons (fun n ->
      let p = Species.get electrons n in
      Species.append ions
        { p with
          ux = uth_i *. Rng.normal rng;
          uy = uth_i *. Rng.normal rng;
          uz = uth_i *. Rng.normal rng })

(* Layout of the vacuum buffer (in cells): the sponge absorber takes the
   outer third, the antenna sits just inside it, the reflectivity probe
   halfway between antenna and plasma.  x keeps its global extent under
   every decomposition used here (y-only slicing), so these are valid
   local indices on every rank and every block. *)
let plane_indices c =
  let vac_cells = int_of_float (c.vacuum /. c.dx) in
  let absorber_thickness = max 4 (vac_cells / 3) in
  let antenna_i = absorber_thickness + 3 in
  let seed_i = c.nx - antenna_i in
  let probe_i = antenna_i + max 2 ((vac_cells - antenna_i) / 2) in
  assert (probe_i < vac_cells && seed_i > antenna_i);
  (vac_cells, absorber_thickness, antenna_i, seed_i, probe_i)

(* Trapezoidal x-profile (with ~1 c/omega_pe entrance/exit ramps that
   suppress the Fresnel reflection a sharp slab edge would add to the
   backscatter), optionally tilted linearly along y: [y_skew] = s scales
   the density by 1 + s*(y/L - 1/2), clamped at 0 — a deliberately
   unbalanced load for exercising the block rebalancer. *)
let density_profile c ~plasma_x_lo ~plasma_x_hi =
  let ramp = Float.min 1. ((plasma_x_hi -. plasma_x_lo) /. 6.) in
  let shape x =
    if x < plasma_x_lo || x > plasma_x_hi then 0.
    else if x < plasma_x_lo +. ramp then (x -. plasma_x_lo) /. ramp
    else if x > plasma_x_hi -. ramp then (plasma_x_hi -. x) /. ramp
    else 1.0
  in
  if c.y_skew = 0. then fun ~x ~y:_ ~z:_ -> shape x
  else fun ~x ~y ~z:_ ->
    shape x
    *. Float.max 0. (1. +. (c.y_skew *. ((y /. c.l_transverse) -. 0.5)))

(* Pump and (optional) seed antennas.  Lasers are closures, so this also
   serves as the re-attachment hook for simulations freshly decoded from
   a checkpoint image or a block-relocation payload. *)
let attach_lasers c ~(matching : Srs_theory.matching) sim =
  let _, _, antenna_i, seed_i, _ = plane_indices c in
  let e0 = e0_of c in
  Simulation.add_laser sim
    (Laser.make ~omega:matching.Srs_theory.omega0 ~e0 ~plane_i:antenna_i
       ~t_rise:c.t_rise ());
  if c.r_seed > 0. then
    Simulation.add_laser sim
      (Laser.make ~omega:matching.Srs_theory.omega_s
         ~e0:(sqrt c.r_seed *. e0)
         ~plane_i:seed_i ~t_rise:c.t_rise ())

let bc_global =
  { Bc.xlo = Bc.Absorbing;
    xhi = Bc.Absorbing;
    ylo = Bc.Periodic;
    yhi = Bc.Periodic;
    zlo = Bc.Periodic;
    zhi = Bc.Periodic }

(* The box length along x and the Courant time step. *)
let box c =
  let dy = c.l_transverse /. float_of_int c.ny in
  let dz = c.l_transverse /. float_of_int c.nz in
  (float_of_int c.nx *. c.dx, Grid.courant_dt ~dx:c.dx ~dy ~dz ())

let plasma_of c =
  { Srs_theory.nr = c.nr; uth = sqrt (c.te_kev /. electron_rest_kev) }

(* One domain of the deck — the whole box, a rank's slab or a block —
   on [grid] with [coupler], loaded with [ppc] electrons per cell (and
   co-located ions) from a stream salted by [salt]. *)
let build_domain c ~matching ?perf ?push_backend ~grid ~coupler ~salt ~ppc
    () =
  assert (c.vacuum >= 2. && float_of_int c.nx *. c.dx > 2. *. c.vacuum +. 2.);
  let lx, _ = box c in
  let clean_div_interval =
    if c.ion_mass > 0. || c.filter_passes > 0 then 50 else 0
  in
  let _, absorber_thickness, _, _, _ = plane_indices c in
  let sim =
    Simulation.make ~grid ~coupler ?perf ?push_backend ~clean_div_interval
      ~absorber_thickness ~absorber_strength:0.6
      ~current_filter_passes:c.filter_passes ()
  in
  let plasma = plasma_of c in
  let density =
    density_profile c ~plasma_x_lo:c.vacuum ~plasma_x_hi:(lx -. c.vacuum)
  in
  let rng = Rng.of_int (c.rng_seed + (7919 * salt)) in
  let electrons = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore
    (Loader.maxwellian (Rng.split rng 1) electrons ~ppc ~uth:plasma.uth
       ~density ());
  if c.ion_mass > 0. then begin
    let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:c.ion_mass in
    let uth_i =
      sqrt (c.te_kev *. c.ti_over_te /. electron_rest_kev /. c.ion_mass)
    in
    load_colocated_ions (Rng.split rng 2) electrons ions ~uth_i
  end;
  attach_lasers c ~matching sim;
  sim

let build ?comm ?push_backend c =
  let lx, dt = box c in
  (* Parallel runs slice along y only (px = pz = 1): x keeps its global
     extent on every rank, so the antenna/probe plane indices, the
     absorber and the slab profile (a function of x alone) are untouched;
     the serial path below is byte-for-byte the original build. *)
  let grid, coupler, rank =
    match comm with
    | None ->
        let grid =
          Grid.make ~nx:c.nx ~ny:c.ny ~nz:c.nz ~lx ~ly:c.l_transverse
            ~lz:c.l_transverse ~dt ()
        in
        (grid, Coupler.local bc_global, 0)
    | Some cm ->
        let nranks = Comm.size cm in
        if c.ny mod nranks <> 0 then
          invalid_arg
            (Printf.sprintf "Deck.build: ny = %d not divisible by %d ranks"
               c.ny nranks);
        let dec =
          Decomp.make ~px:1 ~py:nranks ~pz:1 ~gnx:c.nx ~gny:c.ny ~gnz:c.nz
            ~lx ~ly:c.l_transverse ~lz:c.l_transverse
        in
        let rank = Comm.rank cm in
        let grid = Decomp.local_grid dec ~dt ~rank in
        let bc = Decomp.local_bc dec ~global:bc_global ~rank in
        (grid, Coupler.parallel cm bc ~grid, rank)
  in
  let plasma = plasma_of c in
  let matching = Srs_theory.matching plasma in
  let sim =
    build_domain c ~matching ?push_backend ~grid ~coupler ~salt:rank
      ~ppc:c.ppc ()
  in
  let _, _, _, _, probe_i = plane_indices c in
  { sim;
    refl = Reflectivity.create ~plane_i:probe_i ~e0:(e0_of c) ();
    plasma;
    matching;
    plasma_x_lo = c.vacuum;
    plasma_x_hi = lx -. c.vacuum;
    e0 = e0_of c;
    config = c }

let run setup ~steps =
  for _ = 1 to steps do
    Simulation.step setup.sim;
    Reflectivity.sample setup.refl setup.sim.Simulation.fields
  done;
  Reflectivity.reflectivity setup.refl

(* ------------------------------------------------------ over-decomposed ---- *)

type block_setup = {
  mb : Multiblock.t;
  refl : Reflectivity.t;
  plasma : Srs_theory.plasma;
  matching : Srs_theory.matching;
  plasma_x_lo : float;
  plasma_x_hi : float;
  e0 : float;
  config : config;
}

let build_over ?comm ?pool ?push_backend ?(rebalance_interval = 10)
    ?(rebalance_threshold = 0.) ?cost_model ~blocks c =
  if blocks < 1 then invalid_arg "Deck.build_over: blocks must be >= 1";
  let lx, dt = box c in
  (* Blocks slice along y only, like the classic parallel deck — but
     through the remainder-safe [Decomp], so [ny] need not divide by the
     block count: block grids just differ by one y-plane. *)
  let dec =
    Decomp.make ~px:1 ~py:blocks ~pz:1 ~gnx:c.nx ~gny:c.ny ~gnz:c.nz ~lx
      ~ly:c.l_transverse ~lz:c.l_transverse
  in
  let layout = Block.over dec in
  let plasma = plasma_of c in
  let matching = Srs_theory.matching plasma in
  let _, _, _, _, probe_i = plane_indices c in
  let build ~id ~coupler ~perf =
    let grid = Block.grid layout ~dt ~id in
    (* The loader places a fixed count per cell and varies weights, so a
       tilted density alone leaves the push load flat.  Scale this
       block's ppc by the tilt at its y-centre instead: weights stay
       near-constant (charge density still follows the profile exactly)
       and the macro-particle *count* — the actual push cost — carries
       the skew, as constant-weight loading would. *)
    let ppc =
      if c.y_skew = 0. then c.ppc
      else begin
        let yc =
          grid.Grid.y0 +. (0.5 *. float_of_int grid.Grid.ny *. grid.Grid.dy)
        in
        let tilt =
          Float.max 0. (1. +. (c.y_skew *. ((yc /. c.l_transverse) -. 0.5)))
        in
        max 1 (int_of_float (Float.round (float_of_int c.ppc *. tilt)))
      end
    in
    (* Salted by block id, not rank: loading must be independent of
       which rank builds or later owns the block, or relocation would
       perturb the physics. *)
    build_domain c ~matching ~perf ?push_backend ~grid ~coupler ~salt:id ~ppc
      ()
  in
  let mb =
    Multiblock.create ?comm ?pool ~rebalance_interval ~rebalance_threshold
      ?cost_model
      ~reattach:(fun _ sim ->
        attach_lasers c ~matching sim;
        (* Decoded / adopted / relocated blocks come back through here:
           re-apply the run's push backend (an execution choice, not
           physics — it is deliberately absent from block payloads). *)
        match push_backend with
        | Some b -> Simulation.set_push_backend sim b
        | None -> ())
      ~layout ~global_bc:bc_global ~build ()
  in
  { mb;
    refl = Reflectivity.create ~plane_i:probe_i ~e0:(e0_of c) ();
    plasma;
    matching;
    plasma_x_lo = c.vacuum;
    plasma_x_hi = lx -. c.vacuum;
    e0 = e0_of c;
    config = c }

(* One probe sample over the owned blocks (area-weighted plane average —
   matches the classic single-domain probe over their union).  Caveat:
   probe *state* stays with the rank, so a mid-run block relocation
   mixes windows; the final reduced estimate is still the cross-rank
   mean. *)
let sample_over bs =
  Reflectivity.sample_many bs.refl
    (List.map
       (fun (_, sim) -> sim.Simulation.fields)
       (Multiblock.owned_sims bs.mb))

let trapping_over bs =
  Trapping.world_lines
    ?reduce_sum_array:
      (Option.map Comm.allreduce_sum_array (Multiblock.comm bs.mb))
    (List.map
       (fun (_, sim) -> Simulation.find_species sim "electron")
       (Multiblock.owned_sims bs.mb))
    ~threshold_kev:(3. *. bs.config.te_kev)
    ~v_phase:bs.matching.Srs_theory.v_phase ~uth:bs.plasma.Srs_theory.uth

let suggested_steps c =
  let lx, dt = box c in
  (* turn-on + three light transits + the damped-EPW response time
     (~2.5/nu_ek ~ 60/omega_pe in the default hohlraum regime): the
     reflectivity estimate converges on this timescale (see DESIGN.md). *)
  int_of_float (((3. *. lx) +. 60.) /. dt)
