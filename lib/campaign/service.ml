module Deck = Vpic_lpi.Deck
module Sweep = Vpic_lpi.Sweep
module Reflectivity = Vpic_lpi.Reflectivity
module Checkpoint = Vpic.Checkpoint
module Multiblock = Vpic.Multiblock
module Sentinel = Vpic.Sentinel
module Team = Vpic_parallel.Team
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics
module Fault = Vpic_util.Fault
module Crc32 = Vpic_util.Crc32

type params = {
  workers : int;
  lease_s : float;
  retry_budget : int;
  checkpoint_every : int;
  keep : int;
  sentinel_every : int;
  poll_s : float;
}

let default_params =
  { workers = 2;
    lease_s = 30.;
    retry_budget = 3;
    checkpoint_every = 25;
    keep = 2;
    sentinel_every = 50;
    poll_s = 0.05 }

type stats = {
  completed : int;
  failed : int;
  exhausted : int;
  retried : int;
  cache_hits : int;
  sim_steps : int;
}

type submit_report = {
  jobs : int;
  submitted : int;
  reopened : int;
  in_flight : int;
  precached : int;
}

let span_job = Trace.intern "campaign.job"
let span_cache = Trace.intern "campaign.cache_hit"

(* Another lane hit an injected kill: abandon the current job without
   touching its lease (simulated whole-process death — the dangling
   lease is exactly what the reclaim path exists for). *)
exception Abandon

(* Our lease was reclaimed out from under us (fencing-generation
   mismatch at renew time): discard the work silently. *)
exception Lease_lost

(* ------------------------------------------------------------- sidecar ----

   The reflectivity probe is a running window average that the core
   checkpoint does not know about (it lives in the deck layer), so each
   generation gets a sidecar file in its directory: magic, CRC-32 of
   the payload, then the probe's explicit encoding
   ([Reflectivity.encode]).  The sidecar is
   written after the generation commits and pruned with the generation
   by the checkpoint's own retention; a missing or corrupt sidecar
   degrades to restarting the probe average (stated, not hidden — the
   resumed-run parity guarantee needs the sidecar). *)

let sidecar_magic = "VPRF1\n"

let sidecar_path ~dir ~gen =
  Filename.concat
    (Filename.dirname (Checkpoint.generation_path ~dir ~gen ~rank:0))
    "refl.bin"

let write_refl_sidecar ~path (refl : Reflectivity.t) =
  let payload = Reflectivity.encode refl in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc sidecar_magic;
         output_string oc (Printf.sprintf "%08lx\n" (Crc32.string payload));
         output_string oc payload)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_refl_sidecar ~path : Reflectivity.t option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            let magic = really_input_string ic (String.length sidecar_magic) in
            if magic <> sidecar_magic then None
            else
              let crc_line = input_line ic in
              let len = in_channel_length ic - pos_in ic in
              let payload = really_input_string ic len in
              if Printf.sprintf "%08lx" (Crc32.string payload) <> crc_line then
                None
              else Reflectivity.decode payload
          with End_of_file | Sys_error _ -> None)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* -------------------------------------------------------------- submit ---- *)

let enqueue q store (job : Job.t) (r : submit_report) =
  let r =
    if Store.mem store ~hash:job.Job.id then
      { r with precached = r.precached + 1 }
    else r
  in
  match Queue.submit q job with
  | `Submitted -> { r with submitted = r.submitted + 1 }
  | `Already (Queue.Done | Queue.Failed) ->
      if Queue.reopen q ~id:job.Job.id then
        { r with reopened = r.reopened + 1 }
      else { r with in_flight = r.in_flight + 1 }
  | `Already (Queue.Pending | Queue.Leased) ->
      { r with in_flight = r.in_flight + 1 }

let submit q store spec =
  let jobs = Spec.expand spec in
  List.fold_left
    (fun r job -> enqueue q store job r)
    { jobs = List.length jobs;
      submitted = 0;
      reopened = 0;
      in_flight = 0;
      precached = 0 }
    jobs

(* ---------------------------------------------------------------- work ---- *)

type ctx = {
  q : Queue.t;
  store_root : string;
  p : params;
  abort : bool Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  exhausted : int Atomic.t;
  retried : int Atomic.t;
  cache_hits : int Atomic.t;
  sim_steps : int Atomic.t;
}

(* Run one leased job's simulation to completion, checkpointing and
   renewing the lease along the way.  Returns the finished result row;
   raises [Abandon] / [Lease_lost] / whatever the simulation raises. *)
let simulate ctx (job : Job.t) ~worker =
  let t0 = Unix.gettimeofday () in
  let config = job.Job.config in
  let bs = Deck.build_over ~blocks:1 config in
  let mb = bs.Deck.mb in
  let ckpt_dir = Queue.ckpt_dir ctx.q ~id:job.Job.id in
  let bs, resumed_gen =
    match Multiblock.resume mb ~dir:ckpt_dir with
    | None -> (bs, 0)
    | Some gen -> (
        match read_refl_sidecar ~path:(sidecar_path ~dir:ckpt_dir ~gen) with
        | Some refl -> ({ bs with Deck.refl }, gen)
        | None -> (bs, gen))
  in
  if ctx.p.sentinel_every > 0 then
    Sentinel.attach (Sentinel.make ~interval:ctx.p.sentinel_every ()) mb;
  let renew_interval = ctx.p.lease_s /. 3. in
  let renew_at = ref (t0 +. renew_interval) in
  while Multiblock.nstep mb < job.Job.steps do
    if Atomic.get ctx.abort then raise Abandon;
    Multiblock.step mb;
    Atomic.incr ctx.sim_steps;
    Deck.sample_over bs;
    let n = Multiblock.nstep mb in
    if
      ctx.p.checkpoint_every > 0
      && n mod ctx.p.checkpoint_every = 0
      && n < job.Job.steps
    then begin
      Multiblock.save_generation mb ~dir:ckpt_dir ~gen:n ~keep:ctx.p.keep;
      write_refl_sidecar ~path:(sidecar_path ~dir:ckpt_dir ~gen:n) bs.Deck.refl
    end;
    let now = Unix.gettimeofday () in
    if now >= !renew_at then begin
      if not (Queue.renew ctx.q job ~now ~duration:ctx.p.lease_s) then
        raise Lease_lost;
      renew_at := now +. renew_interval
    end
  done;
  let hot_fraction, flattening = Deck.trapping_over bs in
  { Store.hash = job.Job.id;
    a0 = config.Deck.a0;
    nr = config.Deck.nr;
    seed = config.Deck.rng_seed;
    steps = job.Job.steps;
    r_measured = Reflectivity.reflectivity bs.Deck.refl;
    r_peak = Reflectivity.peak_reflectivity bs.Deck.refl;
    hot_fraction;
    flattening;
    elapsed_s = Unix.gettimeofday () -. t0;
    resumed_gen;
    worker }

let run_one ctx store ~worker (job : Job.t) =
  if job.Job.attempts > 1 then Atomic.incr ctx.retried;
  match Store.find store ~hash:job.Job.id with
  | Some _ ->
      Trace.with_span span_cache (fun () -> ());
      Atomic.incr ctx.cache_hits;
      ignore (Queue.complete ctx.q job : bool)
  | None -> (
      match Trace.with_span span_job (fun () -> simulate ctx job ~worker) with
      | row ->
          (* Results land before the queue flips to done: a crash in
             between re-runs the job, but the re-run cache-hits. *)
          Store.append store row;
          if Queue.complete ctx.q job then begin
            Atomic.incr ctx.completed;
            rm_rf (Queue.ckpt_dir ctx.q ~id:job.Job.id)
          end
      | exception Lease_lost -> ()
      | exception (Fault.Injected_kill _ as e) ->
          Atomic.set ctx.abort true;
          raise e
      | exception Abandon -> raise Abandon
      | exception e ->
          Atomic.incr ctx.failed;
          Printf.eprintf "campaign: worker %d job %s attempt %d failed: %s\n%!"
            worker job.Job.id job.Job.attempts (Printexc.to_string e);
          (match Queue.fail ctx.q job ~retry_budget:ctx.p.retry_budget with
          | `Failed -> Atomic.incr ctx.exhausted
          | `Requeued | `Stale -> ()))

(* One lane's life: reclaim, lease, run, repeat; exit when the queue is
   drained or another lane simulated a process death.  Abandoned jobs
   return cleanly so only the killed lane carries an exception to the
   team join (deterministic failure attribution). *)
let lane_loop ctx ~worker =
  let store = Store.open_ ~root:ctx.store_root in
  let rec go () =
    if Atomic.get ctx.abort then ()
    else begin
      let now = Unix.gettimeofday () in
      let _requeued, exhausted =
        Queue.reclaim_expired ctx.q ~now ~retry_budget:ctx.p.retry_budget
      in
      if exhausted > 0 then
        ignore (Atomic.fetch_and_add ctx.exhausted exhausted : int);
      match Queue.lease ctx.q ~worker ~now ~duration:ctx.p.lease_s with
      | Some job ->
          (try run_one ctx store ~worker job with Abandon -> ());
          if not (Atomic.get ctx.abort) then go ()
      | None ->
          let pending, leased, _, _ = Queue.counts ctx.q in
          if pending = 0 && leased = 0 then ()
          else begin
            Unix.sleepf ctx.p.poll_s;
            go ()
          end
    end
  in
  go ()

let work ?(params = default_params) q store =
  let params = { params with workers = max 1 params.workers } in
  let ctx =
    { q;
      store_root = Filename.dirname (Store.path store);
      p = params;
      abort = Atomic.make false;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      exhausted = Atomic.make 0;
      retried = Atomic.make 0;
      cache_hits = Atomic.make 0;
      sim_steps = Atomic.make 0 }
  in
  Team.with_team ~workers:params.workers ~tiles:params.workers
    ~on_start:(fun ~lane ->
      if Trace.enabled () then Trace.enable_worker ~rank:0 ~worker:lane ())
    (fun team ->
      let pool = Team.pool team in
      pool.Vpic_util.Pool.run ~label:"campaign.work" ~tiles:params.workers
        (fun ~lane ~tile:_ -> lane_loop ctx ~worker:lane));
  Store.refresh store;
  let stats =
    { completed = Atomic.get ctx.completed;
      failed = Atomic.get ctx.failed;
      exhausted = Atomic.get ctx.exhausted;
      retried = Atomic.get ctx.retried;
      cache_hits = Atomic.get ctx.cache_hits;
      sim_steps = Atomic.get ctx.sim_steps }
  in
  let m = Metrics.default () in
  Metrics.counter_add m "campaign.jobs.completed" (float_of_int stats.completed);
  Metrics.counter_add m "campaign.jobs.failed" (float_of_int stats.failed);
  Metrics.counter_add m "campaign.jobs.retried" (float_of_int stats.retried);
  Metrics.counter_add m "campaign.jobs.cache_hits"
    (float_of_int stats.cache_hits);
  Metrics.counter_add m "campaign.sim_steps" (float_of_int stats.sim_steps);
  stats

let status q store = (Queue.counts q, Store.cached store)

(* --------------------------------------------------------------- sweep ---- *)

let add_stats (a : stats) (b : stats) =
  { completed = a.completed + b.completed;
    failed = a.failed + b.failed;
    exhausted = a.exhausted + b.exhausted;
    retried = a.retried + b.retried;
    cache_hits = a.cache_hits + b.cache_hits;
    sim_steps = a.sim_steps + b.sim_steps }

let sweep ?(params = default_params) ?(base = Deck.default) ?steps
    ?(with_noise_run = false) ?noise_floor ~a0s q store =
  let steps =
    match steps with Some s -> s | None -> Deck.suggested_steps base
  in
  let noise_floor =
    match noise_floor with
    | Some f -> f
    | None -> Sweep.default_noise_floor base
  in
  let empty =
    { jobs = 0; submitted = 0; reopened = 0; in_flight = 0; precached = 0 }
  in
  ignore
    (submit q store (Spec.make ~base ~a0s ~steps:[ steps ] ())
      : submit_report);
  let stats = ref (work ~params q store) in
  (if with_noise_run then
     (* Second pass: a seed-off run for every point whose seeded
        reflectivity reached the noise floor — the same predicate the
        assembly below applies, so the cache holds exactly the rows the
        runner will ask for. *)
     let noise_jobs =
       List.filter_map
         (fun a0 ->
           let config = { base with Deck.a0 } in
           match Store.find store ~hash:(Job.hash ~config ~steps) with
           | Some row when row.Store.r_measured >= noise_floor ->
               Some (Job.make ~config:{ config with Deck.r_seed = 0. } ~steps)
           | _ -> None)
         a0s
     in
     if noise_jobs <> [] then begin
       ignore
         (List.fold_left (fun r j -> enqueue q store j r) empty noise_jobs
           : submit_report);
       stats := add_stats !stats (work ~params q store)
     end);
  let runner config ~steps =
    match Store.find store ~hash:(Job.hash ~config ~steps) with
    | Some row ->
        { Sweep.r_avg = row.Store.r_measured;
          r_pk = row.Store.r_peak;
          hot_frac = row.Store.hot_fraction;
          flat = row.Store.flattening }
    | None -> Sweep.measure config ~steps
  in
  let points =
    Sweep.reflectivity_vs_intensity ~base ~steps ~with_noise_run ~noise_floor
      ~runner ~a0s ()
  in
  (points, !stats)
