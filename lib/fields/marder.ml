module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Perf = Vpic_util.Perf

type hooks = { fill_e : unit -> unit; fill_scalar : Sf.t -> unit }

let local_hooks bc f =
  { fill_e = (fun () -> Boundary.fill_scalars bc (Em_field.e_components f));
    fill_scalar = (fun s -> Boundary.fill_scalars bc [ s ]) }

(* Both halves of a pass are per-voxel pure (each interior node writes
   only its own slots and reads meshes the pass never writes), so they
   tile over interior (j,k) rows with no determinism caveat: any lane
   may take any row.  The row order matches [Grid.iter_interior]
   (x fastest, then y, then z).  Each row is a direct stride loop over
   the meshes' data: per-voxel [Sf.get]/[Sf.set] calls would box every
   float they return or take. *)
let tiles (pool : Vpic_util.Pool.t) = pool.Vpic_util.Pool.tiles

(* The interior rows [lo, hi) of [tile]. *)
let rows_of_tile pool g ~tile =
  Vpic_util.Pool.split ~total:(g.Grid.ny * g.Grid.nz) ~tiles:(tiles pool)
    ~tile

(* Voxel of node (1, j, k) of row [r]: the row is [v0, v0 + nx). *)
let row_start g r =
  Grid.voxel g 1 (1 + (r mod g.Grid.ny)) (1 + (r / g.Grid.ny))

let compute_err ?(pool = Vpic_util.Pool.serial) f err =
  let g = f.Em_field.grid in
  let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
  let ex = Sf.data f.Em_field.ex and ey = Sf.data f.Em_field.ey
  and ez = Sf.data f.Em_field.ez and rho = Sf.data f.Em_field.rho in
  let e = Sf.data err in
  let nx = g.Grid.nx and gx = g.Grid.gx and gxy = g.Grid.gx * g.Grid.gy in
  let open Bigarray.Array1 in
  (* err = div E - rho on interior nodes *)
  pool.Vpic_util.Pool.run ~label:"clean" ~tiles:(tiles pool)
    (fun ~lane:_ ~tile ->
      let lo, hi = rows_of_tile pool g ~tile in
      for r = lo to hi - 1 do
        let v0 = row_start g r in
        for v = v0 to v0 + nx - 1 do
          let de =
            ((unsafe_get ex v -. unsafe_get ex (v - 1)) *. rx)
            +. ((unsafe_get ey v -. unsafe_get ey (v - gx)) *. ry)
            +. ((unsafe_get ez v -. unsafe_get ez (v - gxy)) *. rz)
          in
          unsafe_set e v (de -. unsafe_get rho v)
        done
      done)

let apply_err ?(relax = 0.8) ?(pool = Vpic_util.Pool.serial) f err =
  let g = f.Em_field.grid in
  let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
  let d = relax *. 0.5 /. ((rx *. rx) +. (ry *. ry) +. (rz *. rz)) in
  let ex = Sf.data f.Em_field.ex and ey = Sf.data f.Em_field.ey
  and ez = Sf.data f.Em_field.ez in
  let e = Sf.data err in
  let nx = g.Grid.nx and gx = g.Grid.gx and gxy = g.Grid.gx * g.Grid.gy in
  let open Bigarray.Array1 in
  (* E += d grad err, componentwise on the staggered slots *)
  pool.Vpic_util.Pool.run ~label:"clean" ~tiles:(tiles pool)
    (fun ~lane:_ ~tile ->
      let lo, hi = rows_of_tile pool g ~tile in
      for r = lo to hi - 1 do
        let v0 = row_start g r in
        for v = v0 to v0 + nx - 1 do
          let e0 = unsafe_get e v in
          unsafe_set ex v
            (unsafe_get ex v +. (d *. rx *. (unsafe_get e (v + 1) -. e0)));
          unsafe_set ey v
            (unsafe_get ey v +. (d *. ry *. (unsafe_get e (v + gx) -. e0)));
          unsafe_set ez v
            (unsafe_get ez v +. (d *. rz *. (unsafe_get e (v + gxy) -. e0)))
        done
      done)

let add_flops ?(perf = Perf.global) ~passes f =
  let nvox = float_of_int (Grid.interior_count f.Em_field.grid) in
  Perf.add_flops perf (float_of_int passes *. 20. *. nvox)

(* Every pass runs each half over all fields between the fills, so a
   fill spanning several fields (the over-decomposed world's fused
   block routing) sees one consistent state per half. *)
let clean_many ?perf ?pool ?(passes = 2) ?(relax = 0.8) ~fill_e ~fill_err
    pairs =
  assert (passes >= 1 && relax > 0. && relax <= 1.);
  let residual = ref nan in
  for pass = 1 to passes do
    fill_e ();
    List.iter (fun (f, err) -> compute_err ?pool f err) pairs;
    if pass = 1 then
      residual :=
        List.fold_left
          (fun acc (_, err) -> Float.max acc (Sf.max_abs_interior err))
          0. pairs;
    fill_err ();
    List.iter (fun (f, err) -> apply_err ~relax ?pool f err) pairs
  done;
  fill_e ();
  List.iter (fun (f, _) -> add_flops ?perf ~passes f) pairs;
  !residual

let clean ?perf ?pool ?passes ?relax ~hooks f =
  let err = Sf.create f.Em_field.grid in
  clean_many ?perf ?pool ?passes ?relax ~fill_e:hooks.fill_e
    ~fill_err:(fun () -> hooks.fill_scalar err)
    [ (f, err) ]
