(* Over-decomposed driver: each rank steps a *list* of relocatable
   blocks instead of one rank-sized domain.  Block geometry comes from
   [Vpic_grid.Block], ghost/mover routing from the block-keyed ports of
   [Vpic_parallel.Exchange], and each block is an ordinary
   [Simulation.t] whose coupler does no communication at all — the
   owned blocks step through [Simulation.step_world] under a world
   whose fills, folds, migration and reductions are fused across them
   here.  A block loads its particles from streams salted by its *block
   id* (its coupler "rank") and its push draws from no stream at all
   (reflux draws are a function of the crossing particle's bits), so
   trajectories are independent of which rank happens to step it, which
   is what lets the rebalancer ship blocks mid-run without perturbing
   the physics. *)

module Bc = Vpic_grid.Bc
module Sf = Vpic_grid.Scalar_field
module Block = Vpic_grid.Block
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species
module Comm = Vpic_parallel.Comm
module Exchange = Vpic_parallel.Exchange
module Migrate = Vpic_parallel.Migrate
module Rebalance = Vpic_parallel.Rebalance
module Perf = Vpic_util.Perf
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics

let sid_rebalance = Trace.intern "rebalance"

(* One owned block: its simulation plus memoised component lists (the
   routing closures are called every step). *)
type block = {
  id : int;
  sim : Simulation.t;
  ems : Sf.t list;
  js : Sf.t list;
}

type t = {
  comm : Comm.t option;
  rank : int;
  nranks : int;
  layout : Block.t;
  global_bc : Bc.t;
  ownership : Block.Ownership.t;
  blocks : block option array;  (* indexed by block id; Some iff owned *)
  ports : Exchange.t;
  perf : Perf.counters;  (* shared by every local block simulation *)
  pool : Vpic_util.Pool.t;
      (* the rank's worker team; every owned block (including blocks
         received from a rebalance) steps through it *)
  reattach : int -> Simulation.t -> unit;
      (* re-install closures (laser antennas) on a freshly decoded sim *)
  mutable views : Exchange.view list;
  mutable nstep : int;
  mutable monitor : (t -> unit) option;
      (* health hook, run after every completed step (see Sentinel) *)
  (* dynamic load balancing *)
  rebalance_interval : int;
  rebalance_threshold : float;  (* max/mean push cost; 0 = disabled *)
  cost_model : [ `Wall | `Particles ];
  push_cost : float array;  (* seconds this window, owned entries only *)
  last_costs : float array;  (* last allreduced window, all blocks *)
  mutable last_imbalance : float;
  mutable migrations : int;  (* blocks this rank shipped out, cumulative *)
  mutable ship_bytes : float;
}

(* ------------------------------------------------------------ geometry ---- *)

(* A block's coupler performs no communication: ghost traffic, mover
   routing and reductions all run in the driver, fused across blocks.
   Its [rank] is the *block id*, which the world routes by and which
   does not change with ownership. *)
let block_coupler layout ~global_bc ~id =
  let no_route what _ =
    failwith ("Multiblock: block coupler does not route " ^ what)
  in
  { Coupler.bc = Block.bc layout ~global:global_bc ~id;
    fill_em = no_route "fill_em";
    fill_em_begin = no_route "fill_em_begin";
    fill_em_finish = no_route "fill_em_finish";
    fill_e = no_route "fill_e";
    fill_list = no_route "fill_list";
    migrate =
      (fun ?accum:_ _ _ movers ->
        assert (Vpic_particle.Push.Movers.count movers = 0));
    fold_currents = no_route "fold_currents";
    fold_rho = no_route "fold_rho";
    reduce_sum = Fun.id;
    reduce_max = Fun.id;
    barrier = (fun () -> ());
    comm_bytes = (fun () -> 0.);
    rank = id;
    nranks = Block.count layout }

let coupler t ~id = block_coupler t.layout ~global_bc:t.global_bc ~id

let get t id =
  match t.blocks.(id) with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Multiblock: block %d not owned here" id)

(* Owned blocks in ascending id order — the collective iteration order
   every rank's routing relies on. *)
let owned t =
  Array.to_list t.blocks |> List.filter_map Fun.id

let mk_block id sim =
  { id;
    sim;
    ems = Em_field.em_components sim.Simulation.fields;
    js = Em_field.j_components sim.Simulation.fields }

let refresh_views t =
  t.views <-
    List.map
      (fun b ->
        { Exchange.id = b.id;
          bc = b.sim.Simulation.coupler.Coupler.bc;
          g = b.sim.Simulation.grid })
      (owned t)

(* ------------------------------------------------------------- routing ---- *)

let reduce_sum t x =
  match t.comm with Some c -> Comm.allreduce_sum c x | None -> x

let reduce_max t x =
  match t.comm with Some c -> Comm.allreduce_max c x | None -> x

let barrier t = match t.comm with Some c -> Comm.barrier c | None -> ()

(* Movers route by block ownership: local hops finish directly into the
   sibling block, remote hops ride the block-keyed ports. *)
let migrate_blocks t pushes =
  let nspecies = match pushes with (_, ss) :: _ -> List.length ss | [] -> 0 in
  for si = 0 to nspecies - 1 do
    let targets = Array.make (Block.count t.layout) None in
    List.iter
      (fun ((sim : Simulation.t), ss) ->
        let s, sc = List.nth ss si in
        let id = sim.Simulation.coupler.Coupler.rank in
        targets.(id) <-
          Some
            { Migrate.id;
              bc = sim.Simulation.coupler.Coupler.bc;
              species = s;
              fields = sim.Simulation.fields;
              accum = snd (Option.get sim.Simulation.interp_accum);
              movers = sc.Simulation.movers })
      pushes;
    ignore (Migrate.exchange t.ports ~targets)
  done

(* The owned blocks' world, routed through the fused block ports.  A
   lone block's faces are not [Domain] faces, so its fills and folds run
   the local boundary handling in f64, like its own local coupler. *)
let world t =
  let fill scalars = Exchange.fill_ghosts t.ports ~views:t.views ~scalars in
  let ems id = (get t id).ems in
  let fold scalars = Exchange.fold_ghosts t.ports ~views:t.views ~scalars in
  let fields id = (get t id).sim.Simulation.fields in
  { Simulation.fill_em_begin =
      (fun () -> Exchange.fill_begin t.ports ~views:t.views ~scalars:ems);
    fill_em_finish =
      (fun () -> Exchange.fill_finish t.ports ~views:t.views ~scalars:ems);
    fill_em = (fun () -> fill ems);
    fill_e = (fun () -> fill (fun id -> Em_field.e_components (fields id)));
    fill_list = (fun meshes -> fill (fun id -> meshes (get t id).sim));
    fold_currents = (fun () -> fold (fun id -> (get t id).js));
    fold_rho = (fun () -> fold (fun id -> [ (fields id).Em_field.rho ]));
    migrate = migrate_blocks t;
    reduce_sum = reduce_sum t;
    reduce_max = reduce_max t;
    rank = t.rank }

(* -------------------------------------------------------------- create ---- *)

let create ?comm ?(pool = Vpic_util.Pool.serial)
    ?(rebalance_interval = 10) ?(rebalance_threshold = 0.)
    ?(cost_model = `Wall) ?(reattach = fun _ _ -> ()) ~layout ~global_bc
    ~build () =
  let nblocks = Block.count layout in
  let rank, nranks =
    match comm with Some c -> (Comm.rank c, Comm.size c) | None -> (0, 1)
  in
  let ownership = Block.Ownership.initial ~nblocks ~nranks in
  let perf = Perf.create () in
  let blocks = Array.make nblocks None in
  List.iter
    (fun id ->
      let coupler = block_coupler layout ~global_bc ~id in
      let sim = build ~id ~coupler ~perf in
      if sim.Simulation.coupler != coupler then
        invalid_arg "Multiblock.create: build must use the supplied coupler";
      Simulation.set_pool sim pool;
      blocks.(id) <- Some (mk_block id sim))
    (Block.Ownership.owned ownership ~rank);
  let ports =
    Exchange.create ?comm ~nblocks
      ~owner:(Block.Ownership.snapshot ownership)
      ~plane:(fun id axis -> Block.plane_floats layout ~id ~axis)
      ()
  in
  let t =
    { comm;
      rank;
      nranks;
      layout;
      global_bc;
      ownership;
      blocks;
      ports;
      perf;
      pool;
      reattach;
      views = [];
      nstep = 0;
      monitor = None;
      rebalance_interval = max 1 rebalance_interval;
      rebalance_threshold;
      cost_model;
      push_cost = Array.make nblocks 0.;
      last_costs = Array.make nblocks 0.;
      last_imbalance = 1.;
      migrations = 0;
      ship_bytes = 0. }
  in
  refresh_views t;
  (* Pre-register the reduction-visible metric names on every rank so
     the collective metric reduce sees an identical name set even
     before the first rebalance window closes. *)
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    Metrics.counter_add m "rebalance.migrations" 0.;
    Metrics.counter_add m "rebalance.bytes" 0.;
    for b = 0 to nblocks - 1 do
      Metrics.gauge_set m (Printf.sprintf "push.cost.b%d" b) 0.
    done
  end;
  t

let nblocks t = Block.count t.layout
let nstep t = t.nstep
let comm t = t.comm
let owners t = Block.Ownership.snapshot t.ownership
let owned_sims t = List.map (fun b -> (b.id, b.sim)) (owned t)
let set_monitor t f = t.monitor <- f
let perf t = t.perf
let migrations t = t.migrations
let ship_bytes t = t.ship_bytes
let last_imbalance t = t.last_imbalance
let block_costs t = Array.copy t.last_costs

(* ----------------------------------------------------------- rebalance ---- *)

(* Collect this window's per-block push seconds, allreduce them so every
   rank sees the same cost vector, plan greedily, and execute the moves
   by shipping whole blocks over the checkpoint wire image.  Every move
   is one [Comm.allgather] round on every rank (the plan is the same
   everywhere): the source contributes the image, the others nothing,
   and the destination decodes the source's row.  Runs at a step
   boundary, with no exchange traffic in flight. *)
let rebalance_now t =
  let nblocks = nblocks t in
  let costs =
    match t.comm with
    | Some c -> Comm.allreduce_sum_array c t.push_cost
    | None -> Array.copy t.push_cost
  in
  Array.blit costs 0 t.last_costs 0 nblocks;
  if Metrics.enabled () then begin
    let m = Metrics.default () in
    for b = 0 to nblocks - 1 do
      Metrics.gauge_set m (Printf.sprintf "push.cost.b%d" b) costs.(b)
    done
  end;
  (* Plan over the *live* rank set: after a recovery, dead ranks must
     never be donors or targets and their zero load is not imbalance. *)
  let alive =
    match t.comm with
    | Some c -> Array.init t.nranks (fun r -> Comm.alive c ~rank:r)
    | None -> Array.make t.nranks true
  in
  t.last_imbalance <-
    Rebalance.imbalance_live ~alive
      (Rebalance.rank_loads ~costs ~owner:(owners t) ~nranks:t.nranks);
  let moved = ref 0 in
  if t.rebalance_threshold > 0. && t.nranks > 1 then begin
    let plan =
      Rebalance.plan ~alive ~costs ~owner:(owners t) ~nranks:t.nranks
        ~threshold:t.rebalance_threshold ()
    in
    List.iter
      (fun (b, dst) ->
        let src = Block.Ownership.owner t.ownership b in
        let comm = match t.comm with Some c -> c | None -> assert false in
        if src <> dst then begin
          let image =
            if src = t.rank then
              Some (Checkpoint.encode ~block_id:b ~nblocks (get t b).sim)
            else None
          in
          let rows =
            Comm.allgather comm
              (match image with
              | Some image -> Rebalance.floats_of_bytes image
              | None -> [||])
          in
          (match image with
          | Some image ->
              t.blocks.(b) <- None;
              t.migrations <- t.migrations + 1;
              t.ship_bytes <- t.ship_bytes +. float_of_int (Bytes.length image);
              if Metrics.enabled () then begin
                let m = Metrics.default () in
                Metrics.counter_add m "rebalance.migrations" 1.;
                Metrics.counter_add m "rebalance.bytes"
                  (float_of_int (Bytes.length image))
              end
          | None -> ());
          if dst = t.rank then begin
            (* An empty row: the source died before it shipped, and the
               survivors closed the round without it. *)
            if Array.length rows.(src) = 0 then
              raise
                (Comm.Rank_failed
                   { rank = src;
                     error = Printf.sprintf "died before shipping block %d" b });
            let image = Rebalance.bytes_of_floats rows.(src) in
            let sim =
              Checkpoint.decode ~expect_block:b ~perf:t.perf
                ~coupler:(coupler t ~id:b) image
            in
            Simulation.set_pool sim t.pool;
            t.reattach b sim;
            t.blocks.(b) <- Some (mk_block b sim)
          end;
          incr moved;
          (* Die-during-rebalance window: some ranks have applied this
             move, others haven't — runtime ownership is divergent, which
             is exactly why recovery replans from the checkpoint's OWNERS
             table instead of anyone's live table. *)
          Vpic_util.Fault.rebalance_kill_point ~rank:t.rank ~step:t.nstep
        end;
        Block.Ownership.apply t.ownership [ (b, dst) ])
      plan.Rebalance.moves;
    if !moved > 0 then begin
      Exchange.set_owners t.ports (owners t);
      refresh_views t;
      t.last_imbalance <- plan.Rebalance.imbalance_after
    end
  end;
  Array.fill t.push_cost 0 nblocks 0.;
  !moved

let maybe_rebalance t =
  if (t.nstep + 1) mod t.rebalance_interval = 0 then begin
    Trace.begin_span sid_rebalance;
    let n = rebalance_now t in
    Trace.end_span ();
    n
  end
  else 0

(* ---------------------------------------------------------------- step ---- *)

let particles sim =
  List.fold_left (fun a s -> a + Species.count s) 0 (Simulation.species sim)

(* The shared step sequence over the owned blocks, then the per-block
   cost gauge the rebalancer feeds on: wall seconds of each block's push
   by default, or the deterministic count of particles it pushed
   (classic VPIC choice; immune to timer noise and CPU oversubscription,
   e.g. many ranks timesharing few cores). *)
let step t =
  let bs = owned t in
  let pushed = List.map (fun b -> float_of_int (particles b.sim)) bs in
  Simulation.step_world (world t) (List.map (fun b -> b.sim) bs);
  List.iter2
    (fun b n ->
      let cost =
        match t.cost_model with
        | `Wall -> b.sim.Simulation.push_s
        | `Particles -> n
      in
      t.push_cost.(b.id) <- t.push_cost.(b.id) +. cost)
    bs pushed;
  ignore (maybe_rebalance t);
  t.nstep <- t.nstep + 1;
  (* Health monitor (sentinel) last: it sees the completed step and may
     raise; its checks are collective, and every rank reaches them at
     the same step. *)
  Option.iter (fun f -> f t) t.monitor

let run t ~steps ?(every = 0) ?diag () =
  for _ = 1 to steps do
    step t;
    match diag with
    | Some f when every > 0 && t.nstep mod every = 0 -> f t
    | _ -> ()
  done

(* --------------------------------------------------------- diagnostics ---- *)

let sims t = List.map (fun b -> b.sim) (owned t)
let energies t = Simulation.energies_world (world t) (sims t)
let total_particles t = Simulation.total_particles_world (world t) (sims t)
let gauss_residual t = Simulation.gauss_residual_world (world t) (sims t)

let settle_fields t ~passes =
  Simulation.settle_fields_world (world t) (sims t) ~passes

(* -------------------------------------------------------- checkpointing ---- *)

let save_generation t ~dir ~gen ~keep =
  let root = match t.comm with Some c -> Comm.root c | None -> 0 in
  Checkpoint.save_generation_blocks ~root ~owners:(owners t) ~dir ~gen ~keep
    ~rank:t.rank ~nblocks:(nblocks t)
    ~barrier:(fun () -> barrier t)
    ~owned:(List.map (fun b -> (b.id, b.sim)) (owned t))
    ()

(* ------------------------------------------------------------ recovery ---- *)

(* Collective (over the surviving ranks).  Discard every in-memory block,
   force the ownership table to [owner] (the adoption plan), and reload
   this rank's share of generation [gen] from disk.  Because a block's
   step does not depend on its owner, the reloaded world's trajectory is
   the checkpointed trajectory regardless of which survivor adopted
   which block. *)
let rollback_to t ~dir ~gen ~owner =
  let nb = nblocks t in
  Array.fill t.blocks 0 nb None;
  let moves = ref [] in
  for b = nb - 1 downto 0 do
    if Block.Ownership.owner t.ownership b <> owner.(b) then
      moves := (b, owner.(b)) :: !moves
  done;
  Block.Ownership.apply t.ownership !moves;
  let mine = List.filter (fun b -> owner.(b) = t.rank) (List.init nb Fun.id) in
  List.iter
    (fun b ->
      let path = Checkpoint.block_path ~dir ~gen ~block:b in
      let sim =
        Checkpoint.load_block ~expect_block:b ~perf:t.perf
          ~coupler:(coupler t ~id:b) path
      in
      Simulation.set_pool sim t.pool;
      t.reattach b sim;
      t.blocks.(b) <- Some (mk_block b sim))
    mine;
  Exchange.set_owners t.ports (owners t);
  refresh_views t;
  (match owned t with
  | b :: _ -> t.nstep <- b.sim.Simulation.nstep
  | [] -> t.nstep <- gen);
  (* Pre-failure cost windows describe a world that no longer exists. *)
  Array.fill t.push_cost 0 nb 0.;
  Array.fill t.last_costs 0 nb 0.;
  t.last_imbalance <- 1.

(* Collective.  Each rank verifies the files of the blocks it owns, the
   world agrees on the newest generation whose every file passed, and
   every rank reloads its own blocks from it. *)
let resume t ~dir =
  match
    Checkpoint.pick_latest_valid_gen ~dir ~nblocks:(nblocks t)
      ~mine:(List.map (fun b -> b.id) (owned t))
      ~reduce_sum:(reduce_sum t)
  with
  | None -> None
  | Some gen ->
      rollback_to t ~dir ~gen ~owner:(owners t);
      (* Every rank is reloaded before any of them steps. *)
      barrier t;
      Some gen
