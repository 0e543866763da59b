(** Performance accounting: flop / byte / particle-step ledgers and the
    wall clock.  The kernels in [vpic_particle] and [vpic_field] report
    their analytic operation counts here; the Roadrunner performance
    model in [vpic_cell] consumes the resulting per-particle and
    per-voxel costs.  Phase timing lives in [Vpic_telemetry.Trace].

    Counters are plain mutable fields, so no two domains may add into
    one ledger: the team push counts in its tiles' workspaces and
    charges their sum once, after the fan-out (every term is an
    integer-valued float, so the sum is exact). *)

type counters = {
  mutable flops : float;          (** floating-point operations *)
  mutable bytes_moved : float;    (** main-memory traffic modelled *)
  mutable particle_steps : float; (** particles advanced x steps *)
  mutable voxel_updates : float;  (** field voxels updated x steps *)
}

val create : unit -> counters

val add_flops : counters -> float -> unit
val add_bytes : counters -> float -> unit
val add_particle_steps : counters -> float -> unit
val add_voxel_updates : counters -> float -> unit

(** Global default ledger used when a caller does not thread its own. *)
val global : counters

(** {1 Wall-clock timing} *)

(** The one wall-clock source for benches, examples and tracing spans. *)
val now : unit -> float

(** Time a thunk, returning its result and the elapsed seconds. *)
val timed : (unit -> 'a) -> 'a * float
