(** VPIC's 32-byte single-precision particle record, SoA over Bigarrays:
    Float32 voxel-relative offsets [fx,fy,fz] in [0,1), Float32 momentum
    [ux,uy,uz] (gamma v / c), Float32 weight, and one Int32 {e linear
    voxel index} (replacing an (i,j,k) triple).  8 x 4 bytes = 32
    bytes/particle — the layout behind the paper's sustained
    single-precision throughput.

    Precision contract: storage is f32; all kernels read into f64
    registers (Bigarray float32 reads widen losslessly), compute and
    accumulate in f64, and round once on store.  Voxel-{e relative}
    offsets keep f32 adequate: the offset magnitude is O(1) regardless
    of global position, so absolute position resolution is ~1e-7 of a
    cell everywhere in the box. *)

type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** 7 x f32 + 1 x i32 = 32. *)
val bytes_per_particle : int

type t = {
  mutable np : int;
  mutable cap : int;
  mutable voxel : i32;  (** owning cell, flat [Grid.voxel] index *)
  mutable fx : f32;  (** in-cell offsets, [0, pred 1.0f32] *)
  mutable fy : f32;
  mutable fz : f32;
  mutable ux : f32;  (** gamma v / c *)
  mutable uy : f32;
  mutable uz : f32;
  mutable w : f32;
  mutable sort_buf : t option;
      (** {!Sort.by_voxel}'s double buffer (created on first sort, reused
          for every later one, excluded from {!footprint_bytes}) *)
  mutable sort_tile_counts : int array array;
      (** {!Sort.by_voxel}'s per-tile histograms (one row per tile) *)
}

val f32_create : int -> f32
val i32_create : int -> i32

(** Round a float to its nearest single-precision value (what a f32
    store performs). *)
val round32 : float -> float

(** The largest f32 strictly below 1.0 ([Float.pred 1.] rounds back to
    1.0f32 and is not usable as an offset clamp). *)
val f32_pred_one : float

(** [round32] followed by a clamp into [0, {!f32_pred_one}]. *)
val clamp_offset : float -> float

val create : ?capacity:int -> unit -> t
val count : t -> int

(** Allocated bytes across all eight buffers — [cap * bytes_per_particle],
    computed from the actual Bigarray dims and kind sizes. *)
val footprint_bytes : t -> int

(** Ensure room for [n] more particles (amortised doubling). *)
val reserve : t -> int -> unit

(** [set]/[append] round momentum and weight to f32 and clamp offsets
    with {!clamp_offset}. *)
val set :
  t -> int -> voxel:int -> fx:float -> fy:float -> fz:float -> ux:float ->
  uy:float -> uz:float -> w:float -> unit

val append :
  t -> voxel:int -> fx:float -> fy:float -> fz:float -> ux:float ->
  uy:float -> uz:float -> w:float -> unit

val copy_within : t -> src:int -> dst:int -> unit
val swap : t -> int -> int -> unit

(** Remove particle [n] by swapping in the last one (O(1); order changes). *)
val remove : t -> int -> unit

val clear : t -> unit

(** The sort's double buffer: reused while its capacity covers [np],
    re-created (at the store's capacity) when the store outgrew it. *)
val sort_scratch : t -> t

(** Swap the eight attribute buffers (and [cap]) of two stores in O(1) —
    how the sort's permuted copy becomes the live data. *)
val swap_buffers : t -> t -> unit
