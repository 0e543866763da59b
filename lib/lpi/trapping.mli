(** Particle-trapping diagnostics (E4): the paper's physics target is the
    trapping of electrons in the electron plasma wave driven by SRS, which
    flattens f(v) around the wave phase velocity and produces a hot tail. *)

type fv = { centers : float array; f : float array }

(** Longitudinal velocity distribution f(v_x), normalised to unit sum. *)
val distribution :
  ?lo:float -> ?hi:float -> ?bins:int -> Vpic_particle.Species.t -> fv

(** Local logarithmic slope d(ln f)/dv averaged over
    [v_phase - width, v_phase + width]; trapping drives it toward zero
    from the large negative Maxwellian value. *)
val slope_at : fv -> v:float -> width:float -> float

(** Ratio of the measured slope at v_phase to the Maxwellian slope
    (-v/uth^2): 1 = untouched, -> 0 = fully flattened (trapped). *)
val flattening : fv -> v_phase:float -> uth:float -> width:float -> float

(** Weighted fraction of electrons above [threshold_kev] kinetic energy. *)
val hot_fraction : Vpic_particle.Species.t -> threshold_kev:float -> float

(** [world_lines electrons ~threshold_kev ~v_phase ~uth] is the hot
    fraction above [threshold_kev] and the f(v) flattening at [v_phase]
    (window 0.05) over all of [electrons] (one species per block, in
    block-id order), with the raw weights summed across ranks by
    [reduce_sum_array] (default: the identity, for one rank) before
    normalising.  On a single species it equals {!hot_fraction} and
    {!flattening} of {!distribution} bitwise. *)
val world_lines :
  ?reduce_sum_array:(float array -> float array) ->
  Vpic_particle.Species.t list ->
  threshold_kev:float ->
  v_phase:float ->
  uth:float ->
  float * float
