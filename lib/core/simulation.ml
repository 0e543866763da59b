module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Em_field = Vpic_field.Em_field
module Maxwell = Vpic_field.Maxwell
module Boundary = Vpic_field.Boundary
module Marder = Vpic_field.Marder
module Laser = Vpic_field.Laser
module Diagnostics = Vpic_field.Diagnostics
module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Sort = Vpic_particle.Sort
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Moments = Vpic_particle.Moments
module Perf = Vpic_util.Perf
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics

(* Span ids of the step's phases, interned once.  These names are the
   contract with [Vpic_telemetry.Scoreboard], the benches and the CI
   trace smoke: a renamed phase must be renamed there too. *)
let sid_step = Trace.intern "step"
let sid_fill_begin = Trace.intern "exchange.fill_begin"
let sid_fill_finish = Trace.intern "exchange.fill_finish"
let sid_fill = Trace.intern "exchange.fill"
let sid_fold = Trace.intern "exchange.fold"
let sid_push_interior = Trace.intern "push.interior"
let sid_push_boundary = Trace.intern "push.boundary"
let sid_load_interp = Trace.intern "interp.load"
let sid_unload_accum = Trace.intern "accum.unload"
let sid_laser = Trace.intern "laser"
let sid_migrate = Trace.intern "migrate"
let sid_field = Trace.intern "field"
let sid_clean = Trace.intern "clean"
let sid_sort = Trace.intern "sort"

(* Per-species push workspace, reused across steps so the steady-state
   step allocates nothing on the push/comm path: the mover buffer whose
   backing store is the migrate wire format, the deferred-index list of
   the interior/boundary split and the boundary pass's kernel
   workspace. *)
type push_scratch = {
  movers : Push.Movers.t;
  defer : Push.Defer.t;
  team : Push.Team_scratch.t;  (* per-tile workspaces of the team push *)
  work : Push.Work.t;  (* the boundary pass's *)
}

(* How the push runs: the block kernel at [width] particles per block,
   its interior pass fanned out over the worker team ([Push.advance_team])
   and its boundary-shell pass serial.  Stepped results are bitwise
   invariant in the width.  A backend is an execution strategy, not
   physics: it is not part of the deck hash or the checkpoint image. *)
type push_backend = Host_block of { width : int }

let push_backend_to_string (Host_block { width }) =
  "block" ^ string_of_int width

let width_of (Host_block { width }) = width

type t = {
  grid : Grid.t;
  fields : Em_field.t;
  coupler : Coupler.t;
  (* Registration order, reversed: O(1) prepend on add; read through
     [species]/[lasers] which restore registration order. *)
  mutable species_rev : Species.t list;
  mutable lasers_rev : Laser.t list;
  absorber : Boundary.Absorber.t;
  (* The absorber's construction parameters, kept so checkpoints can
     rebuild an identical sponge on restore. *)
  absorber_thickness : int;
  absorber_strength : float;
  sort_interval : int;
  clean_div_interval : int;
  marder_passes : int;
  current_filter_passes : int;
  mutable push_backend : push_backend;
      (* push engine; mutable so restores and relocated blocks can
         re-apply the run's selection (never serialised) *)
  interp_accum : (Interpolator.t * Accumulator.t) option;
      (* VPIC inner-loop memory system: per-voxel field-coefficient and
         current-accumulator blocks; always [Some] (read via [interp] and
         [accum]) *)
  smoothed : Em_field.t option;  (* gather copy when filtering *)
  mutable nstep : int;
  mutable push_stats : Push.stats;
  mutable push_s : float;
      (* wall seconds the last step spent in this simulation's push *)
  mutable scratch_rev : (Species.t * push_scratch) list;
  perf : Perf.counters;
  clean_err : Sf.t;  (* the Marder clean's error mesh, reused by each clean *)
  rho_slabs : Moments.slabs;  (* the tiled rho deposit's slabs, reused *)
  mutable pool : Vpic_util.Pool.t;
      (* the rank's worker team ([Pool.serial] = the classic one-domain
         rank); mutable so [Multiblock] and checkpoint restore can
         install the team on simulations they construct.  Holds
         closures: never serialised (checkpoints rebuild it). *)
}

let zero_stats : Push.stats = Push.zero_stats
let add_stats = Push.sum_stats

let make ?(sort_interval = 25) ?(clean_div_interval = 50) ?(marder_passes = 2)
    ?(absorber_thickness = 8) ?(absorber_strength = 0.15)
    ?(current_filter_passes = 0)
    ?(push_backend = Host_block { width = Push.default_block_width }) ?perf
    ?(pool = Vpic_util.Pool.serial) ~grid ~coupler () =
  assert (current_filter_passes = 0 || clean_div_interval > 0);
  let perf = match perf with Some p -> p | None -> Perf.create () in
  { grid;
    fields = Em_field.create grid;
    coupler;
    species_rev = [];
    lasers_rev = [];
    absorber =
      Boundary.Absorber.create grid coupler.Coupler.bc
        ~thickness:absorber_thickness ~strength:absorber_strength;
    absorber_thickness;
    absorber_strength;
    sort_interval;
    clean_div_interval;
    marder_passes;
    current_filter_passes;
    push_backend;
    interp_accum = Some (Interpolator.create grid, Accumulator.create grid);
    smoothed =
      (if current_filter_passes > 0 then Some (Em_field.create grid) else None);
    nstep = 0;
    push_stats = zero_stats;
    push_s = 0.;
    scratch_rev = [];
    perf;
    clean_err = Sf.create grid;
    rho_slabs = Moments.slabs ();
    pool }

let interp t = fst (Option.get t.interp_accum)
let accum t = snd (Option.get t.interp_accum)
let species t = List.rev t.species_rev
let lasers t = List.rev t.lasers_rev

let add_species t ~name ~q ~m =
  assert (not (List.exists (fun s -> s.Species.name = name) t.species_rev));
  let s = Species.create ~name ~q ~m t.grid in
  t.species_rev <- s :: t.species_rev;
  s

let find_species t name =
  match List.find_opt (fun s -> s.Species.name = name) t.species_rev with
  | Some s -> s
  | None -> invalid_arg ("Simulation.find_species: no species " ^ name)

let add_laser t l = t.lasers_rev <- l :: t.lasers_rev
let set_pool t pool = t.pool <- pool

let set_push_backend t b = t.push_backend <- b
let pool t = t.pool
let time t = float_of_int t.nstep *. t.grid.Grid.dt

let interval_due t interval = interval > 0 && (t.nstep + 1) mod interval = 0

let scratch_for t s =
  match List.assq_opt s t.scratch_rev with
  | Some sc -> sc
  | None ->
      let sc =
        { movers = Push.Movers.create ();
          defer = Push.Defer.create ();
          team = Push.Team_scratch.create ();
          work = Push.Work.create () }
      in
      t.scratch_rev <- (s, sc) :: t.scratch_rev;
      sc

(* --- Step phases -------------------------------------------------------
   The step decomposed into the helpers [step_world] calls in order.
   Spans live inside the helpers, so an outside timer replaying them
   around [step]'s routing sees the same phase names. *)

let phase_clear_and_load t =
  Em_field.clear_currents t.fields;
  (* Interior voxels' interpolator blocks read no ghosts: build them
     while the x-plane fill is still in flight, like the interior push
     they feed.  A filtered run instead loads from its smoothed copy,
     after the fill ([phase_load_smoothed]). *)
  if Option.is_none t.smoothed then begin
    Trace.begin_span sid_load_interp;
    Interpolator.load_interior ~perf:t.perf ~pool:t.pool (interp t) t.fields;
    Trace.end_span ()
  end;
  let species_scratch = List.map (fun s -> (s, scratch_for t s)) (species t) in
  List.iter
    (fun (_, sc) ->
      Push.Movers.clear sc.movers;
      Push.Defer.clear sc.defer)
    species_scratch;
  species_scratch

(* Gauges/counters of the block kernel's lane economics, published once
   per push pass so the Scoreboard can window a cleanup fraction.  Every
   rank publishes the same metric names — the collective reduce's
   contract. *)
let block_metrics t (ph : Push.stats) =
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    Metrics.gauge_set m "push.block.width"
      (float_of_int (width_of t.push_backend));
    Metrics.counter_add m "push.block.lanes" (float_of_int ph.Push.block_lanes);
    Metrics.counter_add m "push.block.cleanup"
      (float_of_int ph.Push.block_cleanup)
  end

(* Interior pass: every particle whose cell does not touch the ghost
   layer, fanned out over the team and independent of any in-flight
   fill. *)
let phase_push_interior t species_scratch =
  let interp = interp t and accum = accum t in
  let width = width_of t.push_backend in
  Trace.begin_span sid_push_interior;
  let phase = ref zero_stats in
  List.iter
    (fun (s, sc) ->
      let st =
        Push.advance_team ~perf:t.perf ~pool:t.pool ~scratch:sc.team
          ~defer:sc.defer ~interp ~accum ~width s t.fields
          t.coupler.Coupler.bc
      in
      phase := add_stats !phase st)
    species_scratch;
  t.push_stats <- add_stats t.push_stats !phase;
  block_metrics t !phase;
  Trace.end_span ()

(* The hi-face slabs read freshly filled ghosts; load them before the
   deferred shell particles evaluate their blocks.  A filtered run has
   loaded them from its smoothed copy already. *)
let phase_load_boundary t =
  if Option.is_none t.smoothed then begin
    Trace.begin_span sid_load_interp;
    Interpolator.load_boundary ~perf:t.perf (interp t) t.fields;
    Trace.end_span ()
  end

(* Boundary pass: the deferred shell particles, now that their gather
   stencils see fresh ghosts.  Only these can become movers.  Serial:
   the shell scatters into the base accumulator, not the team's tile
   slabs. *)
let phase_push_boundary t species_scratch =
  let interp = interp t and accum = accum t in
  let width = width_of t.push_backend in
  Trace.begin_span sid_push_boundary;
  let phase = ref zero_stats in
  List.iter
    (fun (s, sc) ->
      let st =
        Push.advance ~perf:t.perf ~region:(`Deferred sc.defer)
          ~movers:sc.movers ~interp ~accum ~width
          ~work:sc.work s t.fields t.coupler.Coupler.bc
      in
      phase := add_stats !phase st)
    species_scratch;
  t.push_stats <- add_stats t.push_stats !phase;
  block_metrics t !phase;
  Trace.end_span ()

let phase_lasers t =
  Trace.begin_span sid_laser;
  List.iter (fun l -> Laser.drive l t.fields ~time:(time t)) (lasers t);
  Trace.end_span ()

(* Fold the accumulator into the J meshes after migration (finished
   movers deposit into it) and before the ghost-current fold. *)
let phase_unload_accum t =
  let ac = accum t in
  Trace.begin_span sid_unload_accum;
  (* fold the team push's private slabs (fixed tile order) before the
     per-voxel blocks unload into the J meshes *)
  Accumulator.reduce ~pool:t.pool ~perf:t.perf ac;
  Accumulator.unload ~perf:t.perf ac t.fields;
  Trace.end_span ()

let phase_advance_b t ~frac =
  Trace.begin_span sid_field;
  Maxwell.advance_b ~perf:t.perf t.fields ~frac;
  Trace.end_span ()

let phase_advance_e t =
  Trace.begin_span sid_field;
  Maxwell.advance_e ~perf:t.perf t.fields;
  Boundary.enforce_pec t.coupler.Coupler.bc t.fields;
  Trace.end_span ()

let phase_absorb t =
  Trace.begin_span sid_field;
  Boundary.Absorber.apply t.absorber t.fields;
  Trace.end_span ()

let phase_sort t =
  Trace.begin_span sid_sort;
  let metrics = Metrics.enabled () in
  List.iter
    (fun s ->
      (* Pre-sort locality: how far the population drifted since the
         last sort (post-sort it is 1.0 by construction). *)
      let locality = if metrics then Sort.locality_score s else 0. in
      Sort.by_voxel ~perf:t.perf ~pool:t.pool s;
      if metrics then begin
        let m = Metrics.default () in
        let occ_max, occ_mean = Sort.occupancy s in
        let n = s.Species.name in
        Metrics.gauge_set m ("sort.locality." ^ n) locality;
        Metrics.gauge_set m ("sort.occ_max." ^ n) (float_of_int occ_max);
        Metrics.gauge_set m ("sort.occ_mean." ^ n) occ_mean
      end)
    (species t);
  Trace.end_span ()


(* --- Worlds --------------------------------------------------------------
   A world routes a list of simulations through one step: every fill,
   fold, migration and reduction of the sequence below runs once for the
   whole list.  [world t] routes one simulation through its own coupler;
   [Multiblock] routes its owned blocks through fused block ports. *)

type world = {
  fill_em_begin : unit -> unit;
  fill_em_finish : unit -> unit;
  fill_em : unit -> unit;
  fill_e : unit -> unit;
  fill_list : (t -> Sf.t list) -> unit;
  fold_currents : unit -> unit;
  fold_rho : unit -> unit;
  migrate : (t * (Species.t * push_scratch) list) list -> unit;
  reduce_sum : float -> float;
  reduce_max : float -> float;
  rank : int;
}

let world t =
  let c = t.coupler and f = t.fields in
  { fill_em_begin = (fun () -> c.Coupler.fill_em_begin f);
    fill_em_finish = (fun () -> c.Coupler.fill_em_finish f);
    fill_em = (fun () -> c.Coupler.fill_em f);
    fill_e = (fun () -> c.Coupler.fill_e f);
    fill_list = (fun meshes -> c.Coupler.fill_list (meshes t));
    fold_currents = (fun () -> c.Coupler.fold_currents f);
    fold_rho = (fun () -> c.Coupler.fold_rho f);
    migrate =
      List.iter (fun (t, species_scratch) ->
          let accum = accum t in
          List.iter
            (fun (s, sc) ->
              t.coupler.Coupler.migrate ~accum s t.fields sc.movers)
            species_scratch);
    reduce_sum = c.Coupler.reduce_sum;
    reduce_max = c.Coupler.reduce_max;
    rank = c.Coupler.rank }

(* [passes] binomial passes over [meshes t] of every simulation, in
   lockstep: each axis fills every simulation's meshes through the world,
   then smooths them all.  One simulation sees exactly
   [Filter.binomial_pass] on its own meshes. *)
let filter_world w sims ~passes meshes =
  if passes > 0 then begin
    let all = List.concat_map meshes sims in
    for _ = 1 to passes do
      Vpic_field.Filter.binomial_pass ~fill:(fun _ -> w.fill_list meshes) all
    done
  end

(* Filtered gather: particles gather from a binomially smoothed copy of
   E and B, loaded into the interpolator: the same symmetric kernel
   later applied to J makes the force/current coupling adjoint, avoiding
   secular self-heating.  Building the copy needs complete ghosts, so
   this runs after the whole fill; it loads every voxel, boundary slabs
   included. *)
let load_smoothed_world w sims =
  let smoothed t = Em_field.em_components (Option.get t.smoothed) in
  List.iter
    (fun t ->
      List.iter2
        (fun src dst -> Sf.blit ~src ~dst)
        (Em_field.em_components t.fields)
        (smoothed t))
    sims;
  filter_world w sims ~passes:(List.hd sims).current_filter_passes smoothed;
  List.iter
    (fun t ->
      Trace.begin_span sid_load_interp;
      Interpolator.load ~perf:t.perf ~pool:t.pool (interp t)
        (Option.get t.smoothed);
      Trace.end_span ())
    sims

let deposit_rho_world w sims =
  List.iter
    (fun t ->
      Em_field.clear_rho t.fields;
      List.iter
        (fun s ->
          Moments.deposit_rho ~perf:t.perf ~pool:t.pool ~slabs:t.rho_slabs s
            ~rho:t.fields.Em_field.rho)
        (species t))
    sims;
  w.fold_rho ();
  (* With current filtering on, filter rho identically: the smoothed
     system satisfies continuity exactly, so the Marder clean is not
     fighting the filter. *)
  filter_world w sims ~passes:(List.hd sims).current_filter_passes (fun t ->
      [ t.fields.Em_field.rho ])

(* Each simulation's error mesh starts from zero, as a fresh mesh
   would: its ghosts are only read after [fill_err] writes them, but a
   zeroed mesh keeps that a property of the fill, not of earlier
   cleans. *)
let marder_clean w sims ~passes =
  List.iter (fun t -> Sf.fill t.clean_err 0.) sims;
  let first = List.hd sims in
  ignore
    (Marder.clean_many ~perf:first.perf ~pool:first.pool ~passes
       ~fill_e:w.fill_e
       ~fill_err:(fun () -> w.fill_list (fun t -> [ t.clean_err ]))
       (List.map (fun t -> (t.fields, t.clean_err)) sims))

let mover_metrics pushes =
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    let movers =
      List.fold_left
        (fun acc (_, species_scratch) ->
          List.fold_left
            (fun acc (_, sc) -> acc + Push.Movers.count sc.movers)
            acc species_scratch)
        0 pushes
    in
    Metrics.counter_add m "migrate.movers" (float_of_int movers);
    Metrics.counter_add m "migrate.bytes"
      (float_of_int (movers * Push.Movers.stride * 4))
  end

(* Runs [f] and charges its wall seconds to [t]'s push counter. *)
let timed_push t f =
  let t0 = Perf.now () in
  f ();
  t.push_s <- t.push_s +. (Perf.now () -. t0)

(* The step sequence, once for every simulation of the list (which
   share one step count and one set of step parameters). *)
let step_world w sims =
  Trace.with_span sid_step @@ fun () ->
  let first = List.hd sims in
  let step = first.nstep + 1 in
  (* Fault-injection probe: overwrite one field cell with NaN, for
     sentinel detection tests.  One atomic load when nothing is armed. *)
  if Vpic_util.Fault.poison_due ~rank:w.rank ~step then
    Sf.set first.fields.Em_field.ex 1 1 1 Float.nan;
  (* Ghost consistency for the gather and the first B half-advance.
     [fill_em_begin] may post only the x-axis planes: the interior
     particle push below overlaps the in-flight messages (the paper's
     compute/DMA pipeline), and [fill_em_finish] completes x, y, z
     before the boundary-shell push that actually reads ghosts. *)
  Trace.with_span sid_fill_begin w.fill_em_begin;
  let pushes =
    List.map
      (fun t ->
        t.push_s <- 0.;
        (t, phase_clear_and_load t))
      sims
  in
  (* Particle advance: inner loop of the paper.  A filtered run gathers
     from a smoothed copy that needs complete ghosts, so it completes the
     fill before its interior pass instead of overlapping it. *)
  let filtered = Option.is_some first.smoothed in
  if filtered then begin
    Trace.with_span sid_fill_finish w.fill_em_finish;
    load_smoothed_world w sims
  end;
  List.iter
    (fun (t, ss) -> timed_push t (fun () -> phase_push_interior t ss))
    pushes;
  if not filtered then Trace.with_span sid_fill_finish w.fill_em_finish;
  List.iter
    (fun (t, ss) ->
      timed_push t (fun () ->
          phase_load_boundary t;
          phase_push_boundary t ss))
    pushes;
  (* Fault-injection probe: die mid-step, after the push posted its ghost
     traffic but before migration/fold completes — peers must unblock via
     the comm layer's failed-rank poisoning, not drain cleanly. *)
  Vpic_util.Fault.kill_point ~rank:w.rank ~step;
  List.iter phase_lasers sims;
  (* Migration must precede the current fold: finished movers deposit
     their remaining segments (including into ghost slots). *)
  mover_metrics pushes;
  Trace.with_span sid_migrate (fun () -> w.migrate pushes);
  List.iter phase_unload_accum sims;
  Trace.with_span sid_fold (fun () ->
      w.fold_currents ();
      filter_world w sims ~passes:first.current_filter_passes (fun t ->
          Em_field.j_components t.fields));
  (* Field advance. *)
  List.iter (fun t -> phase_advance_b t ~frac:0.5) sims;
  Trace.with_span sid_fill w.fill_em;
  List.iter phase_advance_e sims;
  if interval_due first first.clean_div_interval then
    Trace.with_span sid_clean (fun () ->
        deposit_rho_world w sims;
        marder_clean w sims ~passes:first.marder_passes);
  Trace.with_span sid_fill w.fill_em;
  List.iter
    (fun t ->
      phase_advance_b t ~frac:0.5;
      phase_absorb t)
    sims;
  if interval_due first first.sort_interval then List.iter phase_sort sims;
  List.iter (fun t -> t.nstep <- t.nstep + 1) sims

let step t = step_world (world t) [ t ]

let run t ~steps ?(every = 0) ?diag () =
  for _ = 1 to steps do
    step t;
    match diag with
    | Some f when every > 0 && t.nstep mod every = 0 -> f t
    | _ -> ()
  done

type energies = {
  field_e : float;
  field_b : float;
  particles : (string * float) list;
  total : float;
}

(* Local sums run over the list in order, then one reduction each. *)
let energies_world w sims =
  let fe, fb =
    List.fold_left
      (fun (fe, fb) t ->
        let e, b = Diagnostics.field_energy t.fields in
        (fe +. e, fb +. b))
      (0., 0.) sims
  in
  let fe = w.reduce_sum fe and fb = w.reduce_sum fb in
  let parts =
    List.map
      (fun s ->
        let n = s.Species.name in
        let local =
          List.fold_left
            (fun acc t -> acc +. Species.kinetic_energy (find_species t n))
            0. sims
        in
        (n, w.reduce_sum local))
      (species (List.hd sims))
  in
  { field_e = fe;
    field_b = fb;
    particles = parts;
    total = fe +. fb +. List.fold_left (fun acc (_, e) -> acc +. e) 0. parts }

let total_particles_world w sims =
  let local =
    List.fold_left
      (fun acc t ->
        List.fold_left (fun acc s -> acc + Species.count s) acc t.species_rev)
      0 sims
  in
  int_of_float (w.reduce_sum (float_of_int local))

let max_over w sims f =
  w.reduce_max
    (List.fold_left (fun acc t -> Float.max acc (f t.fields)) 0. sims)

let gauss_residual_world w sims =
  deposit_rho_world w sims;
  w.fill_e ();
  max_over w sims Diagnostics.gauss_residual

let div_b_max_world w sims =
  w.fill_em ();
  max_over w sims Diagnostics.div_b_max

let settle_fields_world w sims ~passes =
  deposit_rho_world w sims;
  marder_clean w sims ~passes;
  w.fill_em ()

let energies t = energies_world (world t) [ t ]
let total_particles t = total_particles_world (world t) [ t ]
let gauss_residual t = gauss_residual_world (world t) [ t ]
let div_b_max t = div_b_max_world (world t) [ t ]
let settle_fields t ~passes = settle_fields_world (world t) [ t ] ~passes
let deposit_rho t = deposit_rho_world (world t) [ t ]
