(** Named metrics: counters, gauges and log-bucketed histograms, with a
    collective reduction over [Comm] so a verdict is the whole world's,
    not rank-0's view.

    A registry ({!t}) is cheap and domain-local; {!default} returns the
    calling domain's implicit registry, created on first use.  Like
    {!Trace}, instrumentation sites gate on a single global atomic
    ({!enabled}) so disabled runs pay one load per site.

    Kinds:
    - {b counter}: monotonically accumulated float ({!counter_add});
      reduced by sum.
    - {b gauge}: last-set value ({!gauge_set}); reduced by max.
    - {b histogram}: log-bucketed samples ({!observe}; 16 buckets per
      decade over [1e-12, 1e12), ~15% bucket width) with exact count,
      sum, min and max; buckets/count/sum reduce by sum, min/max by
      min/max, quantiles are estimated from the reduced buckets to
      half-bucket (~7.5%) accuracy. *)

type t

val create : unit -> t

(** {1 Global gate + per-domain default registry} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** The calling domain's implicit registry. *)
val default : unit -> t

(** Replace the calling domain's implicit registry with a fresh one. *)
val reset_default : unit -> unit

(** {1 Recording}

    A name keeps the kind of its first use; re-using it with another
    kind raises [Invalid_argument]. *)

val counter_add : t -> string -> float -> unit
val gauge_set : t -> string -> float -> unit
val observe : t -> string -> float -> unit

(** Current value of a counter/gauge on this registry (0 if absent). *)
val value : t -> string -> float

(** {1 Snapshots and reduction} *)

type summary = {
  count : float;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
}

type value_kind = Counter of float | Gauge of float | Histogram of summary

(** Alphabetical by name. *)
type snapshot = (string * value_kind) list

(** Local snapshot, no reduction. *)
val snapshot_local : t -> snapshot

(** Collective world snapshot: every rank calls with its registry
    (which must hold the same metric names and kinds, in any order);
    every rank receives the reduced result. *)
val reduce_comm : Vpic_parallel.Comm.t -> t -> snapshot

(** Generic reduction for embeddings without a [Comm]: [sum_arrays] and
    [max_arrays] are element-wise collective array reductions. *)
val reduce :
  sum_arrays:(float array -> float array) ->
  max_arrays:(float array -> float array) ->
  t ->
  snapshot

(** One-line JSON object: [{"type":"metrics","step":N,"metrics":{...}}].
    Non-finite numbers render as [null] so the output is always valid
    JSON. *)
val snapshot_to_json : ?step:int -> snapshot -> string

(** Install a {!Vpic_parallel.Comm} wait observer feeding this domain's
    default registry: counter ["comm.park_s"] (total parked seconds)
    and histogram ["comm.park"] (per-wait park duration). *)
val install_comm_wait_observer : unit -> unit
