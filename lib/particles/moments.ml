module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Axis = Vpic_grid.Axis
module Vec3 = Vpic_util.Vec3
module Perf = Vpic_util.Perf

(* All moments read the f32 store into f64 registers and accumulate in
   f64 (into f64 fields or scalars) — the mixed-precision contract. *)

(* The tiled deposit's private per-tile slabs, kept across calls like
   [Accumulator.slab]'s: created zero-filled on the first multi-tile
   deposit (or when the tile count or grid changes) and zeroed as they
   are folded, so a steady deposit allocates none. *)
type slabs = { mutable data : Sf.data array }

let slabs () = { data = [||] }

let slabs_for sl ~tiles ~nv =
  if Array.length sl.data <> tiles
     || Bigarray.Array1.dim sl.data.(0) <> nv
  then
    sl.data <-
      Array.init tiles (fun _ ->
          let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout nv in
          Bigarray.Array1.fill a 0.;
          a);
  sl.data

let deposit_rho ?(perf = Vpic_util.Perf.global)
    ?(pool = Vpic_util.Pool.serial) ?(slabs = slabs ()) (s : Species.t) ~rho =
  let module P = Vpic_util.Pool in
  let g = s.Species.grid in
  assert (g == Sf.grid rho);
  let inv_dv = 1. /. Grid.cell_volume g in
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let st = s.Species.store in
  let svox = st.Store.voxel in
  let sfx = st.Store.fx and sfy = st.Store.fy and sfz = st.Store.fz in
  let sw = st.Store.w in
  let np = Species.count s in
  let open Bigarray.Array1 in
  (* direct read-modify-write sets: a local [add] closure would box each
     of the 8 node weights of every particle *)
  let deposit_range (a : Sf.data) lo hi =
    for n = lo to hi - 1 do
      let v = Int32.to_int (unsafe_get svox n) in
      let fx = unsafe_get sfx n
      and fy = unsafe_get sfy n
      and fz = unsafe_get sfz n in
      let q = s.Species.q *. unsafe_get sw n *. inv_dv in
      let mx = 1. -. fx and my = 1. -. fy and mz = 1. -. fz in
      let v1 = v + 1 and v2 = v + gx and v3 = v + gx + 1 in
      let v4 = v + gxy and v5 = v + gxy + 1 in
      let v6 = v + gxy + gx and v7 = v + gxy + gx + 1 in
      unsafe_set a v (unsafe_get a v +. (q *. mx *. my *. mz));
      unsafe_set a v1 (unsafe_get a v1 +. (q *. fx *. my *. mz));
      unsafe_set a v2 (unsafe_get a v2 +. (q *. mx *. fy *. mz));
      unsafe_set a v3 (unsafe_get a v3 +. (q *. fx *. fy *. mz));
      unsafe_set a v4 (unsafe_get a v4 +. (q *. mx *. my *. fz));
      unsafe_set a v5 (unsafe_get a v5 +. (q *. fx *. my *. fz));
      unsafe_set a v6 (unsafe_get a v6 +. (q *. mx *. fy *. fz));
      unsafe_set a v7 (unsafe_get a v7 +. (q *. fx *. fy *. fz))
    done
  in
  if pool.P.tiles <= 1 then deposit_range (Sf.data rho) 0 np
  else begin
    (* The CIC scatter shares nodes between neighbouring particles, so
       tiles deposit into private zero-filled slabs, folded into [rho]
       in ascending tile order at every node — the same private-slab
       determinism scheme as the accumulator (bitwise invariant in the
       worker count). *)
    let tiles = pool.P.tiles in
    let nv = g.Grid.nv in
    let slabs = slabs_for slabs ~tiles ~nv in
    pool.P.run ~label:"moments.rho" ~tiles (fun ~lane:_ ~tile ->
        let lo, hi = P.split ~total:np ~tiles ~tile in
        deposit_range slabs.(tile) lo hi);
    let a = Sf.data rho in
    pool.P.run ~label:"moments.rho" ~tiles (fun ~lane:_ ~tile ->
        let lo, hi = P.split ~total:nv ~tiles ~tile in
        for t = 0 to tiles - 1 do
          let d = slabs.(t) in
          for idx = lo to hi - 1 do
            let v = unsafe_get d idx in
            if v <> 0. then unsafe_set a idx (unsafe_get a idx +. v);
            unsafe_set d idx 0.
          done
        done)
  end;
  Perf.add_flops perf (float_of_int np *. 30.)

let total_current (s : Species.t) =
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let jx = ref 0. and jy = ref 0. and jz = ref 0. in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let ux = unsafe_get sux n and uy = unsafe_get suy n and uz = unsafe_get suz n in
    let inv_g = 1. /. sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
    let qw = s.Species.q *. unsafe_get sw n in
    jx := !jx +. (qw *. ux *. inv_g);
    jy := !jy +. (qw *. uy *. inv_g);
    jz := !jz +. (qw *. uz *. inv_g)
  done;
  Vec3.make !jx !jy !jz

let velocity_histogram (s : Species.t) ~component ~lo ~hi ~bins =
  assert (bins > 0 && hi > lo);
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let h = Array.make bins 0. in
  let scale = float_of_int bins /. (hi -. lo) in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let ux = unsafe_get sux n and uy = unsafe_get suy n and uz = unsafe_get suz n in
    let inv_g = 1. /. sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
    let v =
      match component with
      | Axis.X -> ux *. inv_g
      | Axis.Y -> uy *. inv_g
      | Axis.Z -> uz *. inv_g
    in
    let b = int_of_float (Float.floor ((v -. lo) *. scale)) in
    if b >= 0 && b < bins then h.(b) <- h.(b) +. unsafe_get sw n
  done;
  h

let electron_rest_kev = 510.99895

let hot_weights (s : Species.t) ~threshold_kev =
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let wtot = ref 0. and whot = ref 0. in
  let thresh = threshold_kev /. electron_rest_kev in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let ux = unsafe_get sux n and uy = unsafe_get suy n and uz = unsafe_get suz n in
    let u2 = (ux *. ux) +. (uy *. uy) +. (uz *. uz) in
    let gamma = sqrt (1. +. u2) in
    let ke = s.Species.m *. u2 /. (gamma +. 1.) in
    let w = unsafe_get sw n in
    wtot := !wtot +. w;
    if ke > thresh then whot := !whot +. w
  done;
  (!whot, !wtot)

let hot_fraction s ~threshold_kev =
  let whot, wtot = hot_weights s ~threshold_kev in
  if wtot = 0. then 0. else whot /. wtot

let mean_velocity (s : Species.t) =
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let wtot = ref 0. and vx = ref 0. and vy = ref 0. and vz = ref 0. in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let ux = unsafe_get sux n and uy = unsafe_get suy n and uz = unsafe_get suz n in
    let inv_g = 1. /. sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
    let w = unsafe_get sw n in
    wtot := !wtot +. w;
    vx := !vx +. (w *. ux *. inv_g);
    vy := !vy +. (w *. uy *. inv_g);
    vz := !vz +. (w *. uz *. inv_g)
  done;
  if !wtot = 0. then Vec3.zero
  else Vec3.make (!vx /. !wtot) (!vy /. !wtot) (!vz /. !wtot)

let thermal_spread (s : Species.t) =
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let wtot = ref 0. in
  let m1 = Array.make 3 0. and m2 = Array.make 3 0. in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let w = unsafe_get sw n in
    let us = [| unsafe_get sux n; unsafe_get suy n; unsafe_get suz n |] in
    wtot := !wtot +. w;
    for a = 0 to 2 do
      m1.(a) <- m1.(a) +. (w *. us.(a));
      m2.(a) <- m2.(a) +. (w *. us.(a) *. us.(a))
    done
  done;
  if !wtot = 0. then Vec3.zero
  else begin
    let sig_ a =
      let mu = m1.(a) /. !wtot in
      sqrt (Float.max 0. ((m2.(a) /. !wtot) -. (mu *. mu)))
    in
    Vec3.make (sig_ 0) (sig_ 1) (sig_ 2)
  end

let deposit_density (s : Species.t) ~out =
  let g = s.Species.grid in
  assert (g == Sf.grid out);
  let inv_dv = 1. /. Grid.cell_volume g in
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let a = Sf.data out in
  let st = s.Species.store in
  let svox = st.Store.voxel in
  let sfx = st.Store.fx and sfy = st.Store.fy and sfz = st.Store.fz in
  let sw = st.Store.w in
  let open Bigarray.Array1 in
  let add idx v = unsafe_set a idx (unsafe_get a idx +. v) in
  for n = 0 to Species.count s - 1 do
    let v = Int32.to_int (unsafe_get svox n) in
    let fx = unsafe_get sfx n and fy = unsafe_get sfy n and fz = unsafe_get sfz n in
    let w = unsafe_get sw n *. inv_dv in
    let mx = 1. -. fx and my = 1. -. fy and mz = 1. -. fz in
    add v (w *. mx *. my *. mz);
    add (v + 1) (w *. fx *. my *. mz);
    add (v + gx) (w *. mx *. fy *. mz);
    add (v + gx + 1) (w *. fx *. fy *. mz);
    add (v + gxy) (w *. mx *. my *. fz);
    add (v + gxy + 1) (w *. fx *. my *. fz);
    add (v + gxy + gx) (w *. mx *. fy *. fz);
    add (v + gxy + gx + 1) (w *. fx *. fy *. fz)
  done

let energy_spectrum (s : Species.t) ~e_min_kev ~e_max_kev ~bins =
  assert (bins > 0 && e_max_kev > e_min_kev && e_min_kev > 0.);
  let st = s.Species.store in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let log_lo = log e_min_kev and log_hi = log e_max_kev in
  let scale = float_of_int bins /. (log_hi -. log_lo) in
  let h = Array.make bins 0. in
  let open Bigarray.Array1 in
  for n = 0 to Species.count s - 1 do
    let ux = unsafe_get sux n and uy = unsafe_get suy n and uz = unsafe_get suz n in
    let u2 = (ux *. ux) +. (uy *. uy) +. (uz *. uz) in
    let gamma = sqrt (1. +. u2) in
    let ke_kev = s.Species.m *. u2 /. (gamma +. 1.) *. electron_rest_kev in
    if ke_kev > 0. then begin
      let b = int_of_float (Float.floor ((log ke_kev -. log_lo) *. scale)) in
      if b >= 0 && b < bins then h.(b) <- h.(b) +. unsafe_get sw n
    end
  done;
  let centers =
    Array.init bins (fun b ->
        exp (log_lo +. ((float_of_int b +. 0.5) /. scale)))
  in
  (centers, h)
