(* The paper-faithful 32-byte particle store: seven Float32 attributes
   (voxel-relative offsets, momentum, weight) plus one Int32 linear voxel
   index, each in its own Bigarray so kernels stream unboxed data.
   Compute stays in float64 registers (Bigarray float32 reads widen for
   free); stores round to nearest-even single precision, exactly as a
   hardware f32 pipeline would. *)

type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let bytes_per_particle = 32

type t = {
  mutable np : int;
  mutable cap : int;
  mutable voxel : i32;
  mutable fx : f32;
  mutable fy : f32;
  mutable fz : f32;
  mutable ux : f32;
  mutable uy : f32;
  mutable uz : f32;
  mutable w : f32;
  (* Reusable sort workspace (Sort.by_voxel): a second attribute buffer
     the counting sort scatters into — then swapped wholesale with the
     live arrays — plus the per-tile histograms.  Created on first sort,
     so a never-sorted store pays nothing; steady-state sorting
     allocates nothing. *)
  mutable sort_buf : t option;
  mutable sort_tile_counts : int array array;
}

let f32_create n = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n
let i32_create n = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Largest f32 below 1.0 (0x3F7FFFFF).  [Float.pred 1.] is useless here:
   it rounds back up to 1.0f32, breaking the offset-in-[0,1) invariant. *)
let f32_pred_one = Int32.float_of_bits 0x3F7FFFFFl

let clamp_offset x =
  let r = round32 x in
  if r >= 1. then f32_pred_one else if r < 0. then 0. else r

let create ?(capacity = 1024) () =
  assert (capacity > 0);
  { np = 0;
    cap = capacity;
    voxel = i32_create capacity;
    fx = f32_create capacity;
    fy = f32_create capacity;
    fz = f32_create capacity;
    ux = f32_create capacity;
    uy = f32_create capacity;
    uz = f32_create capacity;
    w = f32_create capacity;
    sort_buf = None;
    sort_tile_counts = [||] }

let count t = t.np

let footprint_bytes t =
  let open Bigarray in
  let bytes : type a b. (a, b, c_layout) Array1.t -> int =
   fun a -> Array1.dim a * kind_size_in_bytes (Array1.kind a)
  in
  bytes t.voxel + bytes t.fx + bytes t.fy + bytes t.fz + bytes t.ux
  + bytes t.uy + bytes t.uz + bytes t.w

let grow_f32 (a : f32) np cap' =
  let out = f32_create cap' in
  Bigarray.Array1.(blit (sub a 0 np) (sub out 0 np));
  out

let grow_i32 (a : i32) np cap' =
  let out = i32_create cap' in
  Bigarray.Array1.(blit (sub a 0 np) (sub out 0 np));
  out

let reserve t n =
  if t.np + n > t.cap then begin
    let cap' = max (t.np + n) (2 * t.cap) in
    t.voxel <- grow_i32 t.voxel t.np cap';
    t.fx <- grow_f32 t.fx t.np cap';
    t.fy <- grow_f32 t.fy t.np cap';
    t.fz <- grow_f32 t.fz t.np cap';
    t.ux <- grow_f32 t.ux t.np cap';
    t.uy <- grow_f32 t.uy t.np cap';
    t.uz <- grow_f32 t.uz t.np cap';
    t.w <- grow_f32 t.w t.np cap';
    t.cap <- cap'
  end

(* Offsets are clamped into [0, pred 1.0f32] (a f64 offset just below 1
   may round up to 1.0f32); momentum and weight round to nearest. *)
let set t n ~voxel ~fx ~fy ~fz ~ux ~uy ~uz ~w =
  assert (n >= 0 && n < t.np);
  let open Bigarray.Array1 in
  set t.voxel n (Int32.of_int voxel);
  set t.fx n (clamp_offset fx);
  set t.fy n (clamp_offset fy);
  set t.fz n (clamp_offset fz);
  set t.ux n ux;
  set t.uy n uy;
  set t.uz n uz;
  set t.w n w

let append t ~voxel ~fx ~fy ~fz ~ux ~uy ~uz ~w =
  reserve t 1;
  t.np <- t.np + 1;
  set t (t.np - 1) ~voxel ~fx ~fy ~fz ~ux ~uy ~uz ~w

let copy_within t ~src ~dst =
  let open Bigarray.Array1 in
  set t.voxel dst (get t.voxel src);
  set t.fx dst (get t.fx src);
  set t.fy dst (get t.fy src);
  set t.fz dst (get t.fz src);
  set t.ux dst (get t.ux src);
  set t.uy dst (get t.uy src);
  set t.uz dst (get t.uz src);
  set t.w dst (get t.w src)

let swap t a b =
  if a <> b then begin
    let open Bigarray.Array1 in
    let sw : type k e. (k, e, Bigarray.c_layout) Bigarray.Array1.t -> unit =
     fun arr ->
      let va = get arr a in
      set arr a (get arr b);
      set arr b va
    in
    sw t.voxel;
    sw t.fx;
    sw t.fy;
    sw t.fz;
    sw t.ux;
    sw t.uy;
    sw t.uz;
    sw t.w
  end

let remove t n =
  assert (n >= 0 && n < t.np);
  let last = t.np - 1 in
  if n <> last then copy_within t ~src:last ~dst:n;
  t.np <- last

let clear t = t.np <- 0

(* The double buffer the sort permutes into: reused while it can hold
   the live population, re-created at the store's current capacity when
   it cannot (the store grew since). *)
let sort_scratch t =
  match t.sort_buf with
  | Some sc when sc.cap >= t.np -> sc
  | _ ->
      let sc = create ~capacity:t.cap () in
      t.sort_buf <- Some sc;
      sc

(* Exchange the attribute buffers (and their capacity) of [a] and [b]:
   the sort's "copy back" is eight pointer swaps. *)
let swap_buffers a b =
  let iv = a.voxel in
  a.voxel <- b.voxel;
  b.voxel <- iv;
  let sw get set =
    let v = get a in
    set a (get b);
    set b v
  in
  sw (fun t -> t.fx) (fun t v -> t.fx <- v);
  sw (fun t -> t.fy) (fun t v -> t.fy <- v);
  sw (fun t -> t.fz) (fun t v -> t.fz <- v);
  sw (fun t -> t.ux) (fun t v -> t.ux <- v);
  sw (fun t -> t.uy) (fun t v -> t.uy <- v);
  sw (fun t -> t.uz) (fun t v -> t.uz <- v);
  sw (fun t -> t.w) (fun t v -> t.w <- v);
  let c = a.cap in
  a.cap <- b.cap;
  b.cap <- c
