(** The campaign service: ties {!Spec} → {!Queue} → worker pool →
    {!Store} into one lease-based parameter-study engine.

    {b Lifecycle.}  {!submit} expands a spec into content-hashed jobs
    and enqueues them ([done/]/[failed/] jobs are reopened — a reopened
    done job is served from the results cache in zero simulation steps,
    which is what makes resubmission free).  {!work} runs a pool of
    domains ({!Vpic_parallel.Team}, the {!Vpic_util.Pool} fork-join
    contract) that lease jobs, simulate each as a 1-block
    {!Vpic.Multiblock} world ({!Vpic_lpi.Deck.build_over}) under
    {!Vpic.Sentinel} monitoring with per-job trace spans, checkpoint
    every [checkpoint_every] steps through
    {!Vpic.Multiblock.save_generation} (plus a CRC-framed
    reflectivity-probe sidecar so a resumed probe average is bitwise the
    uninterrupted one), and append results to the store {e before}
    marking the job done.

    {b Failure semantics.}  A worker that dies (e.g. an injected kill)
    abandons its lease; the deadline expires and the next {!work} run
    reclaims the job, re-leases it with [attempts+1], and the runner
    resumes from the newest valid checkpoint generation
    ({!Vpic.Multiblock.resume}).  Jobs whose
    attempts exhaust [retry_budget] land in [failed/].  A lost lease
    (reclaimed while the worker was still alive) is detected by the
    fencing generation at renew/complete time and the worker's result is
    discarded without harm — results are idempotent by content hash. *)

type params = {
  workers : int;          (** pool lanes (>= 1; lane 0 is the caller) *)
  lease_s : float;        (** lease duration; renewed at a third of it *)
  retry_budget : int;     (** max leases per job before [failed/] *)
  checkpoint_every : int; (** steps between generations; 0 = never *)
  keep : int;             (** checkpoint generations retained per job *)
  sentinel_every : int;   (** health-check interval, steps *)
  poll_s : float;         (** idle backoff while waiting on leases *)
}

val default_params : params

(** Counters accumulated by one {!work} run (also published to the
    calling domain's metrics registry as [campaign.jobs.completed],
    [.failed], [.retried], [.cache_hits] and [campaign.sim_steps]). *)
type stats = {
  completed : int;
  failed : int;      (** attempts that raised (not counting retries) *)
  exhausted : int;   (** jobs that ran out of retry budget *)
  retried : int;     (** leases granted with attempts > 1 *)
  cache_hits : int;  (** jobs served from the results store *)
  sim_steps : int;   (** total simulation steps actually executed *)
}

type submit_report = {
  jobs : int;        (** spec cardinality after dedup *)
  submitted : int;   (** newly enqueued *)
  reopened : int;    (** re-enqueued from [done/] or [failed/] *)
  in_flight : int;   (** already pending or leased *)
  precached : int;   (** ids that already have a results-store row *)
}

(** Expand and enqueue a spec. *)
val submit : Queue.t -> Store.t -> Spec.t -> submit_report

(** Run the worker pool until the queue drains ([pending/] and
    [leased/] both empty).  Propagates a worker's
    {!Vpic_parallel.Team.Worker_failed} (e.g. around an
    {!Vpic_util.Fault.Injected_kill}) after the team joins — leases held
    at that point stay on disk for the next run to reclaim. *)
val work : ?params:params -> Queue.t -> Store.t -> stats

(** {1 Reflectivity sidecar}

    The probe state saved next to each checkpoint generation
    ([refl.bin]): a magic line, the CRC-32 of the payload as hex, then
    {!Vpic_lpi.Reflectivity.encode}'s image.  The write is atomic (temp
    file, then rename). *)

val write_refl_sidecar : path:string -> Vpic_lpi.Reflectivity.t -> unit

(** [None] for a missing, truncated or corrupted sidecar (bad magic, CRC
    mismatch, an image {!Vpic_lpi.Reflectivity.decode} refuses) — never
    an exception: the resumed job then restarts its probe average. *)
val read_refl_sidecar : path:string -> Vpic_lpi.Reflectivity.t option

(** (pending, leased, done, failed) queue counts plus the store's
    distinct cached hashes. *)
val status : Queue.t -> Store.t -> (int * int * int * int) * int

(** Route a reflectivity sweep through the campaign: enqueue the seeded
    jobs, drain them, enqueue the seed-off noise jobs for every point at
    or above the noise floor (only when [with_noise_run]), drain again,
    then assemble {!Vpic_lpi.Sweep.point}s with a store-backed runner —
    re-running the sweep against a warm store performs zero simulation
    steps.  Defaults mirror {!Vpic_lpi.Sweep.reflectivity_vs_intensity}. *)
val sweep :
  ?params:params ->
  ?base:Vpic_lpi.Deck.config ->
  ?steps:int ->
  ?with_noise_run:bool ->
  ?noise_floor:float ->
  a0s:float list ->
  Queue.t ->
  Store.t ->
  Vpic_lpi.Sweep.point list * stats
