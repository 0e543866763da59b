(** Deterministic, splittable pseudo-random number generator.

    SplitMix64 core: fast, high quality for simulation seeding, and fully
    reproducible across runs and platforms (no dependence on the stdlib
    [Random] global state).  Each rank/species gets its own stream via
    [split], mirroring how VPIC seeds per-pipeline generators. *)

type t

(** Fresh generator from a 64-bit seed. *)
val create : int64 -> t

(** Convenience: seed from an int. *)
val of_int : int -> t

(** Derive an independent stream; deterministic in [t]'s state and [i]. *)
val split : t -> int -> t

(** Uniform float in [0, 1). *)
val uniform : t -> float

(** Uniform float in [a, b). *)
val uniform_in : t -> float -> float -> float

(** Uniform int in [0, n). Requires n > 0. *)
val int : t -> int -> int

(** Standard normal deviate (Box–Muller, cached spare). *)
val normal : t -> float

(** Fisher–Yates shuffle of an array, in place. *)
val shuffle : t -> 'a array -> unit

(** {1 Stateless draws}

    Counter-based, as in Random123: a draw is a pure function of a key,
    so it does not depend on the order in which draws are made. *)

(** The SplitMix64 finaliser: a bijective 64-bit mix.  Hash a key by
    folding its parts through it. *)
val mix64 : int64 -> int64

(** [uniform_at key i] is a uniform float in [0, 1): the [i]th draw
    ([i >= 0]) of the stream [create key], without the stream. *)
val uniform_at : int64 -> int -> float
