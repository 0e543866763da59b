(** Fault injection for resilience testing.

    A process-global registry of injections, armed explicitly by tests or
    by the runner's [--fault-*] flags.  Core code calls the probe
    functions at well-known points (step loop, checkpoint commit,
    rebalance); every probe is a single atomic load when the framework is
    disabled, so production runs pay nothing.

    Injections are seed-deterministic: the same [enable ~seed] and arm
    sequence corrupts the same bytes and fires at the same points on
    every run, so recovery tests are reproducible.

    The registry is shared by all domains of an in-process [Comm.run]
    world — arm everything before spawning ranks. *)

(** Raised by {!kill_point} when a [Kill_rank] injection fires. *)
exception Injected_kill of { rank : int; step : int }

type injection =
  | Kill_rank of { rank : int; step : int }
      (** raise {!Injected_kill} from rank [rank]'s step loop at step
          [step] (mid-step: after the push, before migration) *)
  | Corrupt_checkpoint of { rank : int; gen : int }
      (** flip bytes in the checkpoint file rank [rank] writes for
          generation [gen], right after it is committed to disk *)
  | Poison_field of { rank : int; step : int }
      (** overwrite one field cell with NaN on [rank] at step [step] *)
  | Kill_in_rebalance of { rank : int }
      (** raise {!Injected_kill} from rank [rank] in the middle of the
          next block-rebalance move loop — after ownership has started
          to change but before every survivor has applied it *)
  | Kill_in_checkpoint of { rank : int; gen : int }
      (** raise {!Injected_kill} from rank [rank] during the generation
          [gen] checkpoint — after its block files are written but
          before the manifest commit barrier, leaving a
          partially-written generation on disk *)
  | Fail_checkpoint_io of { rank : int; path_substring : string; times : int }
      (** make the next [times] checkpoint writes on [rank] whose path
          contains [path_substring] fail with a transient [Sys_error];
          the injection disarms itself after the last charge *)

(** Turn the framework on (explicit hook: nothing fires, and no probe
    does more than one atomic load, until this is called). *)
val enable : seed:int -> unit

(** Disarm everything and turn the framework off. *)
val disable : unit -> unit

val enabled : unit -> bool
val arm : injection -> unit

(** {1 Probe points} (called from core code; no-ops when disabled) *)

(** Raises {!Injected_kill} if a matching [Kill_rank] is armed. *)
val kill_point : rank:int -> step:int -> unit

(** True exactly once per matching armed [Poison_field]. *)
val poison_due : rank:int -> step:int -> bool

(** Corrupt [path] in place if a matching [Corrupt_checkpoint] is armed
    (fires once per armed injection). *)
val checkpoint_written : rank:int -> gen:int -> path:string -> unit

(** Raises {!Injected_kill} if a matching [Kill_in_rebalance] is armed
    ([step] only labels the exception). *)
val rebalance_kill_point : rank:int -> step:int -> unit

(** Raises {!Injected_kill} if a matching [Kill_in_checkpoint] is armed. *)
val checkpoint_kill_point : rank:int -> gen:int -> unit

(** True while a matching [Fail_checkpoint_io] still has charges left;
    each call consumes one charge. *)
val io_failure : rank:int -> path:string -> bool
