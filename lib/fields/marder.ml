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
   (x fastest, then y, then z). *)
let iter_rows ~(pool : Vpic_util.Pool.t) ~label g do_row =
  let nj = g.Grid.ny and nk = g.Grid.nz in
  let rows = nj * nk in
  pool.Vpic_util.Pool.run ~label ~tiles:pool.Vpic_util.Pool.tiles
    (fun ~lane:_ ~tile ->
      let lo, hi =
        Vpic_util.Pool.split ~total:rows ~tiles:pool.Vpic_util.Pool.tiles
          ~tile
      in
      for r = lo to hi - 1 do
        do_row (1 + (r mod nj)) (1 + (r / nj))
      done)

let compute_err ?(pool = Vpic_util.Pool.serial) f err =
  let g = f.Em_field.grid in
  let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
  (* err = div E - rho on interior nodes *)
  iter_rows ~pool ~label:"clean" g (fun j k ->
      for i = 1 to g.Grid.nx do
        let de =
          ((Sf.get f.ex i j k -. Sf.get f.ex (i - 1) j k) *. rx)
          +. ((Sf.get f.ey i j k -. Sf.get f.ey i (j - 1) k) *. ry)
          +. ((Sf.get f.ez i j k -. Sf.get f.ez i j (k - 1)) *. rz)
        in
        Sf.set err i j k (de -. Sf.get f.rho i j k)
      done)

let apply_err ?(relax = 0.8) ?(pool = Vpic_util.Pool.serial) f err =
  let g = f.Em_field.grid in
  let rx = 1. /. g.Grid.dx and ry = 1. /. g.Grid.dy and rz = 1. /. g.Grid.dz in
  let d = relax *. 0.5 /. ((rx *. rx) +. (ry *. ry) +. (rz *. rz)) in
  (* E += d grad err, componentwise on the staggered slots *)
  iter_rows ~pool ~label:"clean" g (fun j k ->
      for i = 1 to g.Grid.nx do
        Sf.add f.ex i j k
          (d *. rx *. (Sf.get err (i + 1) j k -. Sf.get err i j k));
        Sf.add f.ey i j k
          (d *. ry *. (Sf.get err i (j + 1) k -. Sf.get err i j k));
        Sf.add f.ez i j k
          (d *. rz *. (Sf.get err i j (k + 1) -. Sf.get err i j k))
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
