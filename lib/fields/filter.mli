(** Binomial (1-2-1)/4 current smoothing.

    VPIC optionally low-pass filters the deposited current before the
    field advance to suppress the high-k statistical noise of finite
    particle counts (and the associated numerical heating).  One pass
    applies the compact binomial kernel along each axis in turn; the
    total current is preserved exactly up to roundoff.

    Requires valid ghosts of the filtered scalars before each pass and
    refills them through the provided hook between axes. *)

module Sf = Vpic_grid.Scalar_field

(** One 1-2-1 pass along every axis, over the interior.  [fill] must make
    the scalars' ghosts valid (local boundary or parallel exchange); it is
    invoked before each axis. *)
val binomial_pass : fill:(Sf.t list -> unit) -> Sf.t list -> unit

(** Damping factor of the kernel at wavenumber k dx (per pass, per axis):
    cos^2(k dx / 2).  Exposed for tests. *)
val response : k_dx:float -> float
