(** Numerical health sentinel.

    Attached to a {!Multiblock} world's monitor hook, the sentinel
    inspects the run every [interval] steps: non-finite scans of every
    owned block's field components and species' momenta first (so a NaN
    cannot launder itself into a reduction), then max particle gamma,
    relative energy drift against the first observation, and the
    Gauss-law residual.  All verdicts are reduced through the world
    ({!Multiblock.reduce_max}, {!Multiblock.energies},
    {!Multiblock.gauss_residual}), so every rank of a parallel run takes
    the same decision in lockstep — the check itself is collective.

    What happens on a violation is the {!policy}: log and continue
    ([Warn]), force a Marder divergence clean for field-consistency
    violations ([Force_clean], {!Multiblock.settle_fields}; non-finite
    states escalate to an abort — a Marder pass cannot remove a NaN), or
    commit a final checkpoint generation ({!Multiblock.save_generation})
    and raise ([Checkpoint_abort]; poisoned states are {e not}
    checkpointed, so the newest committed generation stays a usable
    restart point).  Every rank raises: a NaN on one rank aborts the
    whole world. *)

type kind =
  | Non_finite_field of string     (** component name *)
  | Non_finite_momentum of string  (** species name *)
  | Energy_drift                   (** relative, against first observation *)
  | Gauss_residual                 (** max |div E - rho| *)
  | Max_gamma

type diagnosis = { step : int; kind : kind; value : float; threshold : float }

exception Health_violation of diagnosis

type policy =
  | Warn
  | Force_clean
  | Checkpoint_abort of { dir : string; keep : int }

type tolerances = {
  energy_drift : float;  (** relative; default 0.1 *)
  gauss : float;         (** absolute residual; default 1e-2 *)
  max_gamma : float;     (** default 1e4 *)
}

val default_tolerances : tolerances

type t

val kind_to_string : kind -> string
val diagnosis_to_string : diagnosis -> string

(** [make ()] builds a sentinel checking every [interval] steps
    (default 50) with [tols] (default {!default_tolerances}) and
    [policy] (default [Warn]).  [log] receives one line per violation
    (default: stderr). *)
val make :
  ?interval:int ->
  ?tols:tolerances ->
  ?policy:policy ->
  ?log:(string -> unit) ->
  unit ->
  t

(** Install the sentinel as the world's monitor
    ({!Multiblock.set_monitor}, replacing any previous one): it checks
    after every [interval]-th step.  In a parallel run, attach on every
    rank: the checks are collective. *)
val attach : t -> Multiblock.t -> unit

(** Run the checks now, regardless of the interval.  Collective. *)
val check : t -> Multiblock.t -> unit

(** Violations observed so far (including warned-and-continued ones). *)
val violations : t -> int
