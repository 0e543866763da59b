(* Shared helpers for the test suites. *)

module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Axis = Vpic_grid.Axis
module Em_field = Vpic_field.Em_field
module Boundary = Vpic_field.Boundary
module Maxwell = Vpic_field.Maxwell
module Diagnostics = Vpic_field.Diagnostics
module Species = Vpic_particle.Species
module Store = Vpic_particle.Store
module Particle = Vpic_particle.Particle
module Push = Vpic_particle.Push
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Moments = Vpic_particle.Moments
module Loader = Vpic_particle.Loader
module Rng = Vpic_util.Rng
module Approx = Vpic_util.Approx
module Vec3 = Vpic_util.Vec3

let check_close ?(rtol = 1e-9) ?(atol = 1e-12) label expected actual =
  if not (Approx.close ~rtol ~atol expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel err %.3g)" label
      expected actual
      (Vpic_util.Approx.rel_err actual expected)

let check_true label b = Alcotest.(check bool) label true b

(* An interpolator loaded from [f]'s E and B. *)
let loaded_interp (f : Em_field.t) =
  let ip = Interpolator.create f.Em_field.grid in
  Interpolator.load ip f;
  ip

(* [Push.advance] gathering through an interpolator freshly loaded from
   [f] — the push every simulation runs.  Without [accum] it scatters
   into a fresh accumulator and unloads it into [f]'s J meshes. *)
let push ?movers ?accum s f bc =
  let interp = loaded_interp f in
  match accum with
  | Some accum -> Push.advance ?movers ~interp ~accum s f bc
  | None ->
      let accum = Accumulator.create f.Em_field.grid in
      let st = Push.advance ?movers ~interp ~accum s f bc in
      Accumulator.unload accum f;
      st

(* What the f32 store turns a boxed particle into: offsets clamped into
   [0, pred 1.0f32], momentum and weight rounded to single precision.
   Expectations for store round-trips go through this. *)
let round_p (p : Particle.t) : Particle.t =
  { p with
    fx = Store.clamp_offset p.fx;
    fy = Store.clamp_offset p.fy;
    fz = Store.clamp_offset p.fz;
    ux = Store.round32 p.ux;
    uy = Store.round32 p.uy;
    uz = Store.round32 p.uz;
    w = Store.round32 p.w }

(* The first [count] particles of two stores agree bit for bit. *)
let check_stores_bitwise label (a : Store.t) (b : Store.t) ~count =
  let open Bigarray.Array1 in
  for m = 0 to count - 1 do
    if unsafe_get a.Store.voxel m <> unsafe_get b.Store.voxel m then
      Alcotest.failf "%s: particle %d voxel differs" label m;
    List.iter
      (fun (name, (fa : Store.f32), fb) ->
        if
          Int64.bits_of_float (unsafe_get fa m)
          <> Int64.bits_of_float (unsafe_get fb m)
        then
          Alcotest.failf "%s: particle %d field %s: %.17e <> %.17e" label m
            name (unsafe_get fa m) (unsafe_get fb m))
      [ ("fx", a.Store.fx, b.Store.fx);
        ("fy", a.Store.fy, b.Store.fy);
        ("fz", a.Store.fz, b.Store.fz);
        ("ux", a.Store.ux, b.Store.ux);
        ("uy", a.Store.uy, b.Store.uy);
        ("uz", a.Store.uz, b.Store.uz);
        ("w", a.Store.w, b.Store.w) ]
  done

(* A small cubic periodic grid with a CFL-safe dt. *)
let small_grid ?(n = 8) ?(l = 8.) () =
  let d = l /. float_of_int n in
  let dt = Grid.courant_dt ~dx:d ~dy:d ~dz:d () in
  Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt ()

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* Gauss-law residual drift for a configuration: deposit rho, run [steps]
   of field+particle evolution, return max |d(divE-rho)| change.  Used by
   the charge-conservation tests. *)
let gauss_residual_field fields species_list bc =
  Em_field.clear_rho fields;
  List.iter (fun s -> Moments.deposit_rho s ~rho:fields.Em_field.rho) species_list;
  Boundary.fold_rho bc fields;
  Boundary.fill_scalars bc (Em_field.e_components fields);
  Diagnostics.gauss_residual fields
