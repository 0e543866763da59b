(** Backscatter (reflectivity) diagnostic.

    In the quasi-1D SRS geometry the y-polarised EM field separates into
    right- and left-moving characteristics  F+ = (Ey + Bz)/2 and
    F- = (Ey - Bz)/2 (with Bz centred from its half-cell-staggered slots
    onto the Ey node).  At a measurement plane between the antenna and the
    plasma, the backscattered power is the running time-average of F-^2
    (cycle-averaged intensity of a wave of amplitude B is B^2/2, so
    <F-^2> directly) and the incident intensity is e0^2/2.  Reflectivity
    R = <F-^2> / (e0^2 / 2). *)

type t

(** [create ~plane_i ~e0] measures at x-slot [plane_i] against an incident
    wave of normalised amplitude [e0].  [window] is the number of most
    recent samples averaged (default 400, a few laser cycles). *)
val create : ?window:int -> plane_i:int -> e0:float -> unit -> t

(** Record one sample (call once per step, after the field advance). *)
val sample : t -> Vpic_field.Em_field.t -> unit

(** Record one sample from the co-resident blocks of an over-decomposed
    run: the blocks' plane sums add up to the plane average over their
    union.  [sample_many t [f]] is [sample t f], bit for bit. *)
val sample_many : t -> Vpic_field.Em_field.t list -> unit

(** Current reflectivity estimate (0 until sampled). *)
val reflectivity : t -> float

(** Largest windowed backscatter seen so far, as a reflectivity — SRS is
    bursty once trapping saturates, so the peak of the running average
    complements the final value. *)
val peak_reflectivity : t -> float

(** Average backscattered intensity <F-^2>. *)
val backscatter_intensity : t -> float

(** Average forward intensity <F+^2> (sanity check: ~ e0^2/2 in vacuum). *)
val forward_intensity : t -> float


(** {1 Encoding}

    An explicit little-endian image of the probe's state (its plane,
    amplitude, window, running sums, peak and sample queues), so a
    resumed run's probe continues bitwise.  [decode] returns [None] for
    any image that is not one [encode] could have written: short or
    long, a count out of range, a non-positive amplitude. *)

val encode : t -> string
val decode : string -> t option
