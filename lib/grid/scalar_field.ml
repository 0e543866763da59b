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

(* The interior reductions are direct stride loops over the data, in
   [Grid.iter_interior] order (x fastest, then y, then z): a closure
   called per voxel would box every value it is passed, and the energy
   diagnostics and the Marder residual run them over whole meshes. *)
let sum_interior t =
  let g = t.g in
  let acc = ref 0. in
  for k = 1 to g.Grid.nz do
    for j = 1 to g.Grid.ny do
      let v0 = Grid.voxel g 1 j k in
      for v = v0 to v0 + g.Grid.nx - 1 do
        acc := !acc +. Bigarray.Array1.unsafe_get t.a v
      done
    done
  done;
  !acc

let sum_sq_interior t =
  let g = t.g in
  let acc = ref 0. in
  for k = 1 to g.Grid.nz do
    for j = 1 to g.Grid.ny do
      let v0 = Grid.voxel g 1 j k in
      for v = v0 to v0 + g.Grid.nx - 1 do
        let x = Bigarray.Array1.unsafe_get t.a v in
        acc := !acc +. (x *. x)
      done
    done
  done;
  !acc

(* Over |x| >= 0 this is a [Float.max] fold: the larger value, NaN once
   any is. *)
let max_abs_interior t =
  let g = t.g in
  let m = ref 0. in
  for k = 1 to g.Grid.nz do
    for j = 1 to g.Grid.ny do
      let v0 = Grid.voxel g 1 j k in
      for v = v0 to v0 + g.Grid.nx - 1 do
        let x = Float.abs (Bigarray.Array1.unsafe_get t.a v) in
        if x > !m || Float.is_nan x then m := x
      done
    done
  done;
  !m

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

(* A plane in [iter_plane] slot order: from its first voxel, [outer_count]
   rows [outer_stride] apart, each of [inner_count] voxels [inner_stride]
   apart.  The per-step plane routines below are direct stride loops over
   this geometry rather than [iter_plane] closures (a closure call plus
   [Grid.voxel] per element costs ~10x the loads it wraps), and read it
   through five int functions rather than one tuple, which would be
   allocated on every call. *)
let plane_start g ~axis ~index =
  match axis with
  | Axis.X -> Grid.voxel g index 0 0
  | Axis.Y -> Grid.voxel g 0 index 0
  | Axis.Z -> Grid.voxel g 0 0 index

let inner_stride g axis = match axis with Axis.X -> g.Grid.gx | _ -> 1

let inner_count g axis =
  match axis with Axis.X -> g.Grid.gy | _ -> g.Grid.gx

let outer_stride g axis =
  match axis with Axis.Z -> g.Grid.gx | _ -> g.Grid.gx * g.Grid.gy

let outer_count g axis =
  match axis with Axis.Z -> g.Grid.gy | _ -> g.Grid.gz

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
  let s0 = plane_start t.g ~axis ~index:src
  and d0 = plane_start t.g ~axis ~index:dst in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
  let a = t.a in
  for o = 0 to no - 1 do
    let sb = s0 + (o * so) and db = d0 + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set a (db + (i * si))
        (Bigarray.Array1.unsafe_get a (sb + (i * si)))
    done
  done

let accumulate_plane t ~axis ~src ~dst =
  let s0 = plane_start t.g ~axis ~index:src
  and d0 = plane_start t.g ~axis ~index:dst in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
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
   on one rank and unpack on its neighbour agree.  [buf] is annotated: a
   buffer of unknown kind compiles to the generic Bigarray accessor, a C
   call that boxes every value it moves. *)

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let pack_plane t ~axis ~index ~(buf : buf32) ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start = plane_start t.g ~axis ~index in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
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

let unpack_plane t ~axis ~index ~(buf : buf32) ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start = plane_start t.g ~axis ~index in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
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

let unpack_plane_add t ~axis ~index ~(buf : buf32) ~off =
  assert (off + plane_size t.g ~axis <= Bigarray.Array1.dim buf);
  let start = plane_start t.g ~axis ~index in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
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
  let start = plane_start t.g ~axis ~index in
  let si = inner_stride t.g axis and ni = inner_count t.g axis in
  let so = outer_stride t.g axis and no = outer_count t.g axis in
  let a = t.a in
  for o = 0 to no - 1 do
    let base = start + (o * so) in
    for i = 0 to ni - 1 do
      Bigarray.Array1.unsafe_set a (base + (i * si)) v
    done
  done
