module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Axis = Vpic_grid.Axis

let response ~k_dx =
  let c = cos (k_dx /. 2.) in
  c *. c

(* In-place 1-2-1 along one axis over the interior; reads ghosts. *)
let smooth_axis axis f =
  let g = Sf.grid f in
  let d = Sf.data f in
  let stride =
    match axis with
    | Axis.X -> 1
    | Axis.Y -> g.Grid.gx
    | Axis.Z -> g.Grid.gx * g.Grid.gy
  in
  let open Bigarray.Array1 in
  (* Work on a copy of the line values to keep the stencil unbiased. *)
  let prev = Sf.copy f in
  let p = Sf.data prev in
  Grid.iter_interior g (fun i j k ->
      let v = Grid.voxel g i j k in
      unsafe_set d v
        (0.25
        *. (unsafe_get p (v - stride)
           +. (2. *. unsafe_get p v)
           +. unsafe_get p (v + stride))))

let binomial_pass ~fill scalars =
  List.iter
    (fun axis ->
      fill scalars;
      List.iter (smooth_axis axis) scalars)
    Axis.all
