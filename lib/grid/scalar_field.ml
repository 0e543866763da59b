type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { g : Grid.t; a : data }

let create g =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout g.Grid.nv in
  Bigarray.Array1.fill a 0.;
  { g; a }

let grid t = t.g
let data t = t.a
let get t i j k = Bigarray.Array1.unsafe_get t.a (Grid.voxel t.g i j k)
let set t i j k v = Bigarray.Array1.unsafe_set t.a (Grid.voxel t.g i j k) v

let add t i j k v =
  let idx = Grid.voxel t.g i j k in
  Bigarray.Array1.unsafe_set t.a idx (Bigarray.Array1.unsafe_get t.a idx +. v)

let fill t v = Bigarray.Array1.fill t.a v

let copy t =
  let r = create t.g in
  Bigarray.Array1.blit t.a r.a;
  r

let blit ~src ~dst =
  assert (src.g.Grid.nv = dst.g.Grid.nv);
  Bigarray.Array1.blit src.a dst.a

let axpy alpha x y =
  assert (x.g.Grid.nv = y.g.Grid.nv);
  for v = 0 to x.g.Grid.nv - 1 do
    Bigarray.Array1.unsafe_set y.a v
      ((alpha *. Bigarray.Array1.unsafe_get x.a v)
      +. Bigarray.Array1.unsafe_get y.a v)
  done

let map_inplace t f =
  for v = 0 to t.g.Grid.nv - 1 do
    Bigarray.Array1.unsafe_set t.a v (f (Bigarray.Array1.unsafe_get t.a v))
  done

let set_all t f =
  let g = t.g in
  for k = 0 to g.Grid.gz - 1 do
    for j = 0 to g.Grid.gy - 1 do
      for i = 0 to g.Grid.gx - 1 do
        set t i j k (f i j k)
      done
    done
  done

let fold_interior t f init =
  let acc = ref init in
  Grid.iter_interior t.g (fun i j k -> acc := f !acc (get t i j k));
  !acc

let sum_interior t = fold_interior t ( +. ) 0.
let sum_sq_interior t = fold_interior t (fun acc x -> acc +. (x *. x)) 0.

let max_abs_interior t =
  fold_interior t (fun acc x -> Float.max acc (Float.abs x)) 0.

let max_abs_diff_interior a b =
  assert (a.g.Grid.nv = b.g.Grid.nv);
  let acc = ref 0. in
  Grid.iter_interior a.g (fun i j k ->
      acc := Float.max !acc (Float.abs (get a i j k -. get b i j k)));
  !acc

let plane_size g ~axis =
  match axis with
  | Axis.X -> g.Grid.gy * g.Grid.gz
  | Axis.Y -> g.Grid.gx * g.Grid.gz
  | Axis.Z -> g.Grid.gx * g.Grid.gy

(* Iterate the voxels of a plane in a fixed order, calling [f slot voxel]. *)
let iter_plane g ~axis ~index f =
  let n = ref 0 in
  (match axis with
  | Axis.X ->
      for k = 0 to g.Grid.gz - 1 do
        for j = 0 to g.Grid.gy - 1 do
          f !n (Grid.voxel g index j k);
          incr n
        done
      done
  | Axis.Y ->
      for k = 0 to g.Grid.gz - 1 do
        for i = 0 to g.Grid.gx - 1 do
          f !n (Grid.voxel g i index k);
          incr n
        done
      done
  | Axis.Z ->
      for j = 0 to g.Grid.gy - 1 do
        for i = 0 to g.Grid.gx - 1 do
          f !n (Grid.voxel g i j index);
          incr n
        done
      done);
  ()

(* (first voxel, inner stride, inner count, outer stride, outer count) of
   a plane, visiting voxels in [iter_plane] slot order.  The per-step
   plane routines below are direct stride loops over this geometry rather
   than [iter_plane] closures: a closure call plus [Grid.voxel] per
   element costs ~10x the loads it wraps. *)
let plane_geom g ~axis ~index =
  let gx = g.Grid.gx and gy = g.Grid.gy and gz = g.Grid.gz in
  match axis with
  | Axis.X -> (Grid.voxel g index 0 0, gx, gy, gx * gy, gz)
  | Axis.Y -> (Grid.voxel g 0 index 0, 1, gx, gx * gy, gz)
  | Axis.Z -> (Grid.voxel g 0 0 index, 1, gx, gx, gy)

let extract_plane t ~axis ~index =
  let out = Array.make (plane_size t.g ~axis) 0. in
  iter_plane t.g ~axis ~index (fun slot v ->
      out.(slot) <- Bigarray.Array1.unsafe_get t.a v);
  out

let set_plane t ~axis ~index values =
  assert (Array.length values = plane_size t.g ~axis);
  iter_plane t.g ~axis ~index (fun slot v ->
      Bigarray.Array1.unsafe_set t.a v values.(slot))

let copy_plane t ~axis ~src ~dst =
  let s0, si, ni, so, no = plane_geom t.g ~axis ~index:src in
  let d0, _, _, _, _ = plane_geom t.g ~axis ~index:dst in
  let a = t.a in
  for o = 0 to no - 1 do
    let sb = s0 + (o * so) and db = d0 + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set a (db + (i * si))
        (Bigarray.Array1.unsafe_get a (sb + (i * si)))
    done
  done

let accumulate_plane t ~axis ~src ~dst =
  let s0, si, ni, so, no = plane_geom t.g ~axis ~index:src in
  let d0, _, _, _, _ = plane_geom t.g ~axis ~index:dst in
  let a = t.a in
  for o = 0 to no - 1 do
    let sb = s0 + (o * so) and db = d0 + (o * so) in
    for i = 0 to ni - 1 do
      let d = db + (i * si) in
      Bigarray.Array1.unsafe_set a d
        (Bigarray.Array1.unsafe_get a d
        +. Bigarray.Array1.unsafe_get a (sb + (i * si)))
    done
  done

(* Plane traffic into caller-provided Float32 wire buffers: the comm layer
   owns the storage, these routines only move values (narrowing f64 -> f32
   on pack, widening on unpack).  Same slot order as [iter_plane], so pack
   on one rank and unpack on its neighbour agree. *)

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let pack_plane t ~axis ~index ~buf ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start, si, ni, so, no = plane_geom t.g ~axis ~index in
  let a = t.a in
  let n = ref off in
  for o = 0 to no - 1 do
    let base = start + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set buf !n
        (Bigarray.Array1.unsafe_get a (base + (i * si)));
      incr n
    done
  done

let unpack_plane t ~axis ~index ~buf ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start, si, ni, so, no = plane_geom t.g ~axis ~index in
  let a = t.a in
  let n = ref off in
  for o = 0 to no - 1 do
    let base = start + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set a (base + (i * si))
        (Bigarray.Array1.unsafe_get buf !n);
      incr n
    done
  done

let unpack_plane_add t ~axis ~index ~buf ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start, si, ni, so, no = plane_geom t.g ~axis ~index in
  let a = t.a in
  let n = ref off in
  for o = 0 to no - 1 do
    let base = start + (o * so) in
    for i = 0 to ni - 1 do
      let v = base + (i * si) in
      Bigarray.Array1.unsafe_set a v
        (Bigarray.Array1.unsafe_get a v +. Bigarray.Array1.unsafe_get buf !n);
      incr n
    done
  done

let fill_plane t ~axis ~index v =
  let start, si, ni, so, no = plane_geom t.g ~axis ~index in
  let a = t.a in
  for o = 0 to no - 1 do
    let base = start + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set a (base + (i * si)) v
    done
  done
