module Perf = Vpic_util.Perf
module Table = Vpic_util.Table

(* Canonical span names of the instrumented step (see Simulation.step);
   sums of interned ids, grouped into the paper's phase categories. *)
let push_ids = List.map Trace.intern [ "push"; "push.interior"; "push.boundary" ]
let field_ids = [ Trace.intern "field" ]

let exchange_ids =
  List.map Trace.intern
    [ "exchange.fill_begin"; "exchange.fill_finish"; "exchange.fill";
      "exchange.fold" ]

let interp_ids = List.map Trace.intern [ "interp.load"; "accum.unload" ]
let migrate_ids = [ Trace.intern "migrate" ]
let sort_ids = [ Trace.intern "sort" ]
let clean_ids = [ Trace.intern "clean" ]
let step_ids = [ Trace.intern "step" ]

let phase_s ids =
  List.fold_left (fun acc id -> acc +. Trace.phase_seconds id) 0. ids

(* Cumulative local readings; samples and totals are deltas of these. *)
type cum = {
  wall : float;
  flops : float;
  psteps : float;
  vox : float;
  push : float;
  intp : float;
  field : float;
  exch : float;
  migr : float;
  srt : float;
  cln : float;
  stp : float;
  park : float;
  movers : float;
  mbytes : float;
  blanes : float;
  bclean : float;
}

type t = {
  metrics : Metrics.t;
  perf : Perf.counters;
  nranks : int;
  reduce_sum : float -> float;
  reduce_max : float -> float;
  worker_busy : (unit -> float array) option;
      (* cumulative per-lane busy seconds of the rank's worker team
         (Vpic_parallel.Team.busy_seconds); lane 0 = the rank's domain *)
  base : cum;
  mutable prev : cum;
  mutable prev_step : int;
  mutable prev_busy : float array;
}

let read (metrics : Metrics.t) (perf : Perf.counters) =
  { wall = Perf.now ();
    flops = perf.Perf.flops;
    psteps = perf.Perf.particle_steps;
    vox = perf.Perf.voxel_updates;
    push = phase_s push_ids;
    intp = phase_s interp_ids;
    field = phase_s field_ids;
    exch = phase_s exchange_ids;
    migr = phase_s migrate_ids;
    srt = phase_s sort_ids;
    cln = phase_s clean_ids;
    stp = phase_s step_ids;
    park = Metrics.value metrics "comm.park_s";
    movers = Metrics.value metrics "migrate.movers";
    mbytes = Metrics.value metrics "migrate.bytes";
    blanes = Metrics.value metrics "push.block.lanes";
    bclean = Metrics.value metrics "push.block.cleanup" }

let worker_gauge lane = Printf.sprintf "team.worker.busy_s.w%d" lane

let create ?worker_busy ~metrics ~perf ~nranks ~reduce_sum ~reduce_max () =
  let base = read metrics perf in
  let prev_busy =
    match worker_busy with Some f -> f () | None -> [||]
  in
  (* Pre-register the team gauges so the collective metric reduce sees
     an identical (sorted) name set on every rank from the first window
     — the worker count is a global run parameter, so all ranks register
     the same names (or none). *)
  if worker_busy <> None then begin
    Array.iteri (fun lane _ -> Metrics.gauge_set metrics (worker_gauge lane) 0.)
      prev_busy;
    Metrics.gauge_set metrics "team.push_imbalance" 1.
  end;
  { metrics; perf; nranks; reduce_sum; reduce_max; worker_busy; base;
    prev = base; prev_step = 0; prev_busy }

type sample = {
  step : int;
  window_steps : int;
  wall_s : float;
  particle_rate : float;
  voxel_rate : float;
  sustained_flops : float;
  inner_flops : float;
  comm_wait_frac : float;
  movers : float;
  mover_bytes : float;
  imbalance : float;
  worker_imbalance : float;
}

let safe_div a b = if b > 0. then a /. b else 0.

(* Window rates between [from] and now.  Collective: the reduce calls
   run in a fixed order on every rank. *)
let rates t ~(from : cum) =
  let c = read t.metrics t.perf in
  let d_wall = t.reduce_max (c.wall -. from.wall) in
  let d_wall = Float.max 1e-9 d_wall in
  let d_flops = t.reduce_sum (c.flops -. from.flops) in
  let d_ps = t.reduce_sum (c.psteps -. from.psteps) in
  let d_vox = t.reduce_sum (c.vox -. from.vox) in
  let d_push_sum = t.reduce_sum (c.push -. from.push) in
  let d_push_max = t.reduce_max (c.push -. from.push) in
  let d_park = t.reduce_sum (c.park -. from.park) in
  let d_movers = t.reduce_sum (c.movers -. from.movers) in
  let d_mbytes = t.reduce_sum (c.mbytes -. from.mbytes) in
  let push_mean = d_push_sum /. float_of_int t.nranks in
  (c, d_wall, d_flops, d_ps, d_vox, d_push_sum, d_push_max, d_park, d_movers,
   d_mbytes, push_mean)

(* Publish the team gauges and return this rank's max/mean busy-seconds
   ratio over the window (1.0 without a team or with an idle window).
   Local, not reduced: imbalance *within* the rank's own team. *)
let worker_window t =
  match t.worker_busy with
  | None -> 1.
  | Some f ->
      let now = f () in
      let lanes = Array.length now in
      let wmax = ref 0. and wsum = ref 0. in
      for lane = 0 to lanes - 1 do
        let prev =
          if lane < Array.length t.prev_busy then t.prev_busy.(lane) else 0.
        in
        let d = Float.max 0. (now.(lane) -. prev) in
        Metrics.gauge_set t.metrics (worker_gauge lane) now.(lane);
        if d > !wmax then wmax := d;
        wsum := !wsum +. d
      done;
      t.prev_busy <- now;
      let mean = safe_div !wsum (float_of_int (max 1 lanes)) in
      let imb = if mean > 0. then !wmax /. mean else 1. in
      Metrics.gauge_set t.metrics "team.push_imbalance" imb;
      imb

(* Window fraction of block-kernel lanes that fell out to the scalar
   cleanup pass (cell crossings and mask false-positives).  Local, not
   reduced; published only when the run pushes with a block kernel —
   the backend is a global run parameter, so the gauge name set stays
   identical across ranks (the width gauge is set on every rank by the
   push phase regardless of local particle count). *)
let block_window t (c : cum) =
  if Metrics.value t.metrics "push.block.width" > 0. then begin
    let d_lanes = c.blanes -. t.prev.blanes in
    let d_clean = c.bclean -. t.prev.bclean in
    Metrics.gauge_set t.metrics "push.block.cleanup_frac"
      (safe_div d_clean d_lanes)
  end

let sample t ~step =
  let worker_imbalance = worker_window t in
  let ( c, d_wall, d_flops, d_ps, d_vox, _d_push_sum, d_push_max, d_park,
        d_movers, d_mbytes, push_mean ) =
    rates t ~from:t.prev
  in
  block_window t c;
  let s =
    { step;
      window_steps = step - t.prev_step;
      wall_s = d_wall;
      particle_rate = d_ps /. d_wall;
      voxel_rate = d_vox /. d_wall;
      sustained_flops = d_flops /. d_wall;
      inner_flops = safe_div d_flops push_mean;
      comm_wait_frac = d_park /. (float_of_int t.nranks *. d_wall);
      movers = d_movers;
      mover_bytes = d_mbytes;
      imbalance = (if push_mean > 0. then d_push_max /. push_mean else 1.);
      worker_imbalance }
  in
  t.prev <- c;
  t.prev_step <- step;
  s

let print s =
  Printf.printf
    "[scoreboard] step %6d | %10.4g pstep/s | sustained %10.4g flop/s | \
     inner %10.4g flop/s | comm-wait %5.1f%% | imbalance %.2f | movers %g\n%!"
    s.step s.particle_rate s.sustained_flops s.inner_flops
    (100. *. s.comm_wait_frac)
    s.imbalance s.movers

let sample_to_json s =
  let open Vpic_util.Json in
  to_string
    (Obj
       [ ("type", Str "scoreboard");
         ("step", Num (float_of_int s.step));
         ("window_steps", Num (float_of_int s.window_steps));
         ("wall_s", Num s.wall_s);
         ("particle_rate", Num s.particle_rate);
         ("voxel_rate", Num s.voxel_rate);
         ("sustained_flops", Num s.sustained_flops);
         ("inner_flops", Num s.inner_flops);
         ("comm_wait_frac", Num s.comm_wait_frac);
         ("movers", Num s.movers);
         ("mover_bytes", Num s.mover_bytes);
         ("imbalance", Num s.imbalance);
         ("worker_imbalance", Num s.worker_imbalance) ])

type totals = {
  steps : int;
  nranks : int;
  run_wall_s : float;
  flops : float;
  particle_steps : float;
  voxel_updates : float;
  t_push : float;
  t_interp : float;
  t_field : float;
  t_exchange : float;
  t_migrate : float;
  t_sort : float;
  t_clean : float;
  t_step : float;
  comm_wait_s : float;
  movers : float;
  run_particle_rate : float;
  run_sustained_flops : float;
  run_inner_flops : float;
}

let totals t ~steps =
  let ( _c, d_wall, d_flops, d_ps, d_vox, d_push_sum, _d_push_max, d_park,
        d_movers, _d_mbytes, push_mean ) =
    rates t ~from:t.base
  in
  let c = read t.metrics t.perf in
  let world d = t.reduce_sum d in
  { steps;
    nranks = t.nranks;
    run_wall_s = d_wall;
    flops = d_flops;
    particle_steps = d_ps;
    voxel_updates = d_vox;
    t_push = d_push_sum;
    t_interp = world (c.intp -. t.base.intp);
    t_field = world (c.field -. t.base.field);
    t_exchange = world (c.exch -. t.base.exch);
    t_migrate = world (c.migr -. t.base.migr);
    t_sort = world (c.srt -. t.base.srt);
    t_clean = world (c.cln -. t.base.cln);
    t_step = world (c.stp -. t.base.stp);
    comm_wait_s = d_park;
    movers = d_movers;
    run_particle_rate = d_ps /. d_wall;
    run_sustained_flops = d_flops /. d_wall;
    run_inner_flops = safe_div d_flops push_mean }

(* Per-block rollup of an over-decomposed run: one row per block from
   the driver's last allreduced push-cost window and current ownership,
   plus the cumulative relocation traffic (world values supplied by the
   caller; this is a pure printer). *)
let print_block_rollup ~owners ~costs ~migrations ~shipped_bytes =
  let total = Array.fold_left ( +. ) 0. costs in
  (* the cost column is whatever gauge the driver uses: wall seconds or
     pushed macro-particles *)
  let tb = Table.create [ "block"; "owner"; "push cost/window"; "% of window" ] in
  Array.iteri
    (fun b r ->
      Table.add_row tb
        [ string_of_int b;
          string_of_int r;
          Printf.sprintf "%.4f" costs.(b);
          Printf.sprintf "%.1f" (100. *. safe_div costs.(b) total) ])
    owners;
  Table.print ~title:"block rollup" tb;
  Printf.printf "rebalance: %g block migrations | %g payload bytes shipped\n"
    migrations shipped_bytes

let print_recovery ~step ~rollback_gen ~casualties ~adopted ~lost_steps =
  Printf.printf
    "recover: lost rank%s %s | rolled back to gen %d (now at step %d, %d \
     steps replayed) | %d orphaned blocks adopted\n%!"
    (if List.length casualties = 1 then "" else "s")
    (String.concat "," (List.map string_of_int casualties))
    rollback_gen step lost_steps adopted

let print_totals (tt : totals) =
  let steps = float_of_int (max 1 tt.steps) in
  let nr = float_of_int tt.nranks in
  let accounted =
    tt.t_push +. tt.t_interp +. tt.t_field +. tt.t_exchange +. tt.t_migrate
    +. tt.t_sort +. tt.t_clean
  in
  let tb = Table.create [ "phase"; "s/rank"; "ms/step"; "% of accounted" ] in
  let row name v =
    Table.add_row tb
      [ name;
        Printf.sprintf "%.3f" (v /. nr);
        Printf.sprintf "%.2f" (1e3 *. v /. nr /. steps);
        Printf.sprintf "%.1f" (100. *. safe_div v accounted) ]
  in
  row "particle push" tt.t_push;
  row "interp/accum" tt.t_interp;
  row "field solve" tt.t_field;
  row "ghost exchange" tt.t_exchange;
  row "migration" tt.t_migrate;
  row "sort" tt.t_sort;
  row "divergence clean" tt.t_clean;
  Table.print ~title:"scoreboard rollup" tb;
  Printf.printf
    "run: %.3g particle-steps/s | sustained %.3g flop/s | inner %.3g flop/s \
     | comm-wait %.1f%% | movers %g\n"
    tt.run_particle_rate tt.run_sustained_flops tt.run_inner_flops
    (100.
    *. safe_div tt.comm_wait_s
         (nr *. Float.max 1e-9 tt.run_wall_s))
    tt.movers
