module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Perf = Vpic_util.Perf
module Rng = Vpic_util.Rng

let flops_per_push = 70.
let flops_per_segment = 57.

(* Per-lane flop split of the block kernel's fused passes.  gather is
   the interpolator expansion ([Interpolator.flops_per_gather]); rotate
   (Boris) plus advance (inverse gamma, displacement, crossing mask) sum
   to [flops_per_push] and deposit is one Villasenor-Buneman segment —
   so the Perf ledger is width-invariant by construction: every lane
   accounts identical flops for identical work. *)
let block_flops_rotate = 47.
let block_flops_advance = 23.

let block_pass_flops () =
  [ ("gather", Interpolator.flops_per_gather);
    ("rotate", block_flops_rotate);
    ("advance", block_flops_advance);
    ("deposit", flops_per_segment) ]

let default_block_width = 8
let max_block_width = 16

(* Particles stopped at a Domain face, packed 13 Float32 values each in a
   Bigarray so the buffer IS the wire format of the comm layer's
   persistent migrate ports — posting a mover batch is a flat f32 copy,
   no boxing, no per-message array.  Layout per mover: cell i,j,k (exact
   small ints), in-cell position fx,fy,fz (f32-representable by
   construction), momentum ux,uy,uz and weight (f32 — exactly the
   precision the 32-byte store would keep after settling, so the wire
   loses nothing the store would have kept), remaining displacement
   rx,ry,rz in cell units (rounded to f32; the receiver's walk deposits
   from its own endpoints, so charge conservation is unaffected). *)
module Movers = struct
  type t = { mutable buf : Store.f32; mutable n : int }

  let stride = 13

  let create ?(capacity = 16) () =
    assert (capacity > 0);
    { buf = Store.f32_create (capacity * stride); n = 0 }

  let count t = t.n
  let clear t = t.n <- 0

  exception Corrupt of { mover : int; reason : string }

  let fields =
    [| "cell i"; "cell j"; "cell k"; "fx"; "fy"; "fz"; "ux"; "uy"; "uz"; "w";
       "rx"; "ry"; "rz" |]

  let corrupt mover fmt =
    Printf.ksprintf (fun reason -> raise (Corrupt { mover; reason })) fmt

  (* View the movers in the first [len] floats of a comm buffer in place
     (no copy; the view is only read while the buffer is valid). *)
  let of_wire buf len =
    if len < 0 || len > Bigarray.Array1.dim buf || len mod stride <> 0 then
      corrupt (len / stride) "%d floats is not a whole number of %d-float movers"
        len stride;
    { buf; n = len / stride }

  let[@inline] push t ~cell ~wk ~u ~w =
    let open Bigarray.Array1 in
    if (t.n + 1) * stride > dim t.buf then begin
      let nbuf = Store.f32_create (2 * dim t.buf) in
      let live = t.n * stride in
      if live > 0 then blit (sub t.buf 0 live) (sub nbuf 0 live);
      t.buf <- nbuf
    end;
    let o = t.n * stride in
    let b = t.buf in
    unsafe_set b o (float_of_int cell.(0));
    unsafe_set b (o + 1) (float_of_int cell.(1));
    unsafe_set b (o + 2) (float_of_int cell.(2));
    unsafe_set b (o + 3) wk.(0);
    unsafe_set b (o + 4) wk.(1);
    unsafe_set b (o + 5) wk.(2);
    unsafe_set b (o + 6) u.(0);
    unsafe_set b (o + 7) u.(1);
    unsafe_set b (o + 8) u.(2);
    unsafe_set b (o + 9) w;
    unsafe_set b (o + 10) wk.(3);
    unsafe_set b (o + 11) wk.(4);
    unsafe_set b (o + 12) wk.(5);
    t.n <- t.n + 1
end

(* Reusable list of the particle index ranges whose push is deferred to
   the boundary pass (their cell touches the ghost layer, so they need
   the ghost fill to have landed).  Range r is [idx.(2r), idx.(2r+1));
   ranges are appended in ascending order and merged when they touch, so
   a sorted population defers one range per run of shell voxels.  Lives
   across steps: zero steady-state allocation. *)
module Defer = struct
  type t = { mutable idx : Store.i32; mutable n : int (* ranges *) }

  let create ?(capacity = 64) () =
    assert (capacity > 0);
    { idx = Store.i32_create (2 * capacity); n = 0 }

  let clear t = t.n <- 0
  let bound t o = Int32.to_int (Bigarray.Array1.unsafe_get t.idx o)
  let lo t r = bound t (2 * r)
  let hi t r = bound t ((2 * r) + 1)

  (* Append [lo, hi), extending the last range when the two touch. *)
  let add t lo hi =
    let open Bigarray.Array1 in
    if t.n > 0 && bound t ((2 * t.n) - 1) = lo then
      unsafe_set t.idx ((2 * t.n) - 1) (Int32.of_int hi)
    else begin
      if 2 * (t.n + 1) > dim t.idx then begin
        let nidx = Store.i32_create (2 * dim t.idx) in
        blit (sub t.idx 0 (2 * t.n)) (sub nidx 0 (2 * t.n));
        t.idx <- nidx
      end;
      unsafe_set t.idx (2 * t.n) (Int32.of_int lo);
      unsafe_set t.idx ((2 * t.n) + 1) (Int32.of_int hi);
      t.n <- t.n + 1
    end

  (* The list of a pass that defers nothing: never appended to. *)
  let none = create ~capacity:1 ()

  (* Append [src]'s ranges to [dst] — how the team push merges its
     per-tile defer lists back into the step's one, in tile order. *)
  let append dst src =
    for r = 0 to src.n - 1 do
      add dst (lo src r) (hi src r)
    done
end

type stats = {
  advanced : int;
  segments : int;
  absorbed : int;
  reflected : int;
  refluxed : int;
  outbound : int;
  block_lanes : int;
  block_cleanup : int;
}

let boris ~u ~ex ~ey ~ez ~bx ~by ~bz ~qdt_2m =
  let ux = u.(0) +. (qdt_2m *. ex) in
  let uy = u.(1) +. (qdt_2m *. ey) in
  let uz = u.(2) +. (qdt_2m *. ez) in
  let gamma_m = sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
  let f = qdt_2m /. gamma_m in
  let tx = f *. bx and ty = f *. by and tz = f *. bz in
  let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
  let sx = 2. *. tx /. (1. +. t2) in
  let sy = 2. *. ty /. (1. +. t2) in
  let sz = 2. *. tz /. (1. +. t2) in
  (* u' = u- + u- x t *)
  let px = ux +. ((uy *. tz) -. (uz *. ty)) in
  let py = uy +. ((uz *. tx) -. (ux *. tz)) in
  let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
  (* u+ = u- + u' x s *)
  let ux = ux +. ((py *. sz) -. (pz *. sy)) in
  let uy = uy +. ((pz *. sx) -. (px *. sz)) in
  let uz = uz +. ((px *. sy) -. (py *. sx)) in
  u.(0) <- ux +. (qdt_2m *. ex);
  u.(1) <- uy +. (qdt_2m *. ey);
  u.(2) <- uz +. (qdt_2m *. ez)

(* f32 rounding through a 1-slot Float32 scratch (the caller's own, so
   concurrent team lanes never share one): a store narrows to the nearest
   f32 exactly as [Store.round32] does, and the load widens it back.
   [clamp_offset] is [Store.clamp_offset] over it.  Both are local and
   [@inline]: a cross-module call boxes its float argument and result on
   this toolchain (no flambda, and dune's dev profile compiles with
   -opaque). *)
let[@inline] round32 (s32 : Store.f32) x =
  Bigarray.Array1.unsafe_set s32 0 x;
  Bigarray.Array1.unsafe_get s32 0

let f32_pred_one = Store.f32_pred_one

let[@inline] clamp_offset s32 x =
  let r = round32 s32 x in
  if r >= 1. then f32_pred_one else if r < 0. then 0. else r

(* Deposit one straight segment (x1..x2 etc, in-cell coordinates in [0,1])
   of a particle with per-axis current coefficients (cx,cy,cz) into the
   12-slot accumulator block of the cell at flat voxel [v]
   (Villasenor-Buneman first-order, charge-conserving form; slot q of
   the block is the J-mesh target Accumulator.unload folds it onto).
   [@inline] and written as direct read-modify-write sets: a call, or a
   local [add] closure, would box every float it is passed.  The zero
   guards matter bitwise: they keep -0. slots. *)
let[@inline] deposit_segment (acc : Sf.data) v ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx
    ~cy ~cz =
  let open Bigarray.Array1 in
  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
  let xb = 0.5 *. (x1 +. x2) in
  let yb = 0.5 *. (y1 +. y2) in
  let zb = 0.5 *. (z1 +. z2) in
  let o = v * 12 in
  let qx = cx *. dx in
  if qx <> 0. then begin
    let corr = dy *. dz /. 12. in
    unsafe_set acc o
      (unsafe_get acc o +. (qx *. (((1. -. yb) *. (1. -. zb)) +. corr)));
    unsafe_set acc (o + 1)
      (unsafe_get acc (o + 1) +. (qx *. ((yb *. (1. -. zb)) -. corr)));
    unsafe_set acc (o + 2)
      (unsafe_get acc (o + 2) +. (qx *. (((1. -. yb) *. zb) -. corr)));
    unsafe_set acc (o + 3)
      (unsafe_get acc (o + 3) +. (qx *. ((yb *. zb) +. corr)))
  end;
  let qy = cy *. dy in
  if qy <> 0. then begin
    let corr = dz *. dx /. 12. in
    unsafe_set acc (o + 4)
      (unsafe_get acc (o + 4) +. (qy *. (((1. -. zb) *. (1. -. xb)) +. corr)));
    unsafe_set acc (o + 5)
      (unsafe_get acc (o + 5) +. (qy *. ((zb *. (1. -. xb)) -. corr)));
    unsafe_set acc (o + 6)
      (unsafe_get acc (o + 6) +. (qy *. (((1. -. zb) *. xb) -. corr)));
    unsafe_set acc (o + 7)
      (unsafe_get acc (o + 7) +. (qy *. ((zb *. xb) +. corr)))
  end;
  let qz = cz *. dz in
  if qz <> 0. then begin
    let corr = dx *. dy /. 12. in
    unsafe_set acc (o + 8)
      (unsafe_get acc (o + 8) +. (qz *. (((1. -. xb) *. (1. -. yb)) +. corr)));
    unsafe_set acc (o + 9)
      (unsafe_get acc (o + 9) +. (qz *. ((xb *. (1. -. yb)) -. corr)));
    unsafe_set acc (o + 10)
      (unsafe_get acc (o + 10) +. (qz *. (((1. -. xb) *. yb) -. corr)));
    unsafe_set acc (o + 11)
      (unsafe_get acc (o + 11) +. (qz *. ((xb *. yb) +. corr)))
  end

type face_action = Wrap | Reflect | Absorb | Reflux of float | Stop

let face_action = function
  | Bc.Periodic -> Wrap
  | Bc.Conducting -> Reflect
  | Bc.Absorbing -> Absorb
  | Bc.Refluxing uth -> Reflux uth
  | Bc.Domain _ -> Stop

(* Everything one push call works in: the walk's environment and state,
   the block kernel's lanes, the run-cached interpolator block and the
   call's counters.  It is kept across calls (one per tile of the team
   push, one per species for the boundary pass, one per SPE pipeline),
   so a steady push allocates none of it; [prepare] resets it at the
   start of each call.  The call's float parameters live in [fp], a
   float array, because a float field of a mixed record is boxed on
   every set. *)
type work = {
  mutable acc : Sf.data; (* the accumulator slots every segment scatters into *)
  mutable gx : int;
  mutable gy : int;
  actions : face_action array; (* indexed 2*axis + (1 if hi side) *)
  extents : int array;
  origin : int array; (* the grid's low corner in global cells *)
  mutable species_key : int; (* the species' part of a reflux draw's key *)
  s32 : Store.f32; (* 1-slot f32 rounding scratch ([round32]) *)
  fp : float array; (* qdt_2m, dt, inv_dx, inv_dy, inv_dz, kx, ky, kz *)
  cq : float array;
      (* per-axis current coefficients of the particle being walked, set
         before each [walk]: float array cells, because the arguments of
         a call that is not inlined are boxed *)
  (* walk state: wk.(0..2) in-cell position, wk.(3..5) remaining
     displacement (cell units), cell.(0..2) owning cell, u.(0..2)
     momentum *)
  u : float array;
  wk : float array;
  cell : int array;
  (* block kernel lanes (the first [width] of [max_block_width] used) *)
  bfx : float array;
  bfy : float array;
  bfz : float array;
  bux : float array;
  buy : float array;
  buz : float array;
  brx : float array;
  bry : float array;
  brz : float array;
  (* run-cached interpolator block and the decode of its voxel: sorted
     populations visit long runs of one voxel, so the 18 coefficients
     are copied and the two integer divisions paid once per run *)
  icoef : float array;
  mutable lvox : int;
  mutable lci : int;
  mutable lcj : int;
  mutable lck : int;
  mutable lshell : bool;
  (* counters of the current call *)
  mutable pushed : int;
  mutable segments : int;
  mutable absorbed : int;
  mutable reflected : int;
  mutable refluxed : int;
  mutable outbound : int;
  mutable block_lanes : int;
  mutable block_cleanup : int;
  mutable runs : int;
  mutable dead : int list; (* removed particles, descending *)
}

let no_data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let create_work () =
  let lanes () = Array.make max_block_width 0. in
  { acc = no_data;
    gx = 0;
    gy = 0;
    actions = Array.make 6 Stop;
    extents = Array.make 3 0;
    origin = Array.make 3 0;
    species_key = 0;
    s32 = Store.f32_create 1;
    fp = Array.make 8 0.;
    cq = Array.make 3 0.;
    u = Array.make 3 0.;
    wk = Array.make 6 0.;
    cell = Array.make 3 0;
    bfx = lanes ();
    bfy = lanes ();
    bfz = lanes ();
    bux = lanes ();
    buy = lanes ();
    buz = lanes ();
    brx = lanes ();
    bry = lanes ();
    brz = lanes ();
    icoef = Array.make Interpolator.coeffs_per_voxel 0.;
    lvox = min_int;
    lci = 0;
    lcj = 0;
    lck = 0;
    lshell = false;
    pushed = 0;
    segments = 0;
    absorbed = 0;
    reflected = 0;
    refluxed = 0;
    outbound = 0;
    block_lanes = 0;
    block_cleanup = 0;
    runs = 0;
    dead = [] }

module Work = struct
  type t = work

  let create = create_work
end

(* Point [w] at this call's species, boundaries and accumulator, and
   zero its counters and its run cache. *)
let prepare w ~accum (s : Species.t) f bc =
  let g = s.Species.grid in
  assert (g == f.Vpic_field.Em_field.grid);
  assert (Accumulator.grid accum == g);
  w.acc <- Accumulator.data accum;
  w.species_key <- Hashtbl.hash s.Species.name;
  w.origin.(0) <- int_of_float (Float.round (g.Grid.x0 /. g.Grid.dx));
  w.origin.(1) <- int_of_float (Float.round (g.Grid.y0 /. g.Grid.dy));
  w.origin.(2) <- int_of_float (Float.round (g.Grid.z0 /. g.Grid.dz));
  w.gx <- g.Grid.gx;
  w.gy <- g.Grid.gy;
  w.actions.(0) <- face_action bc.Bc.xlo;
  w.actions.(1) <- face_action bc.Bc.xhi;
  w.actions.(2) <- face_action bc.Bc.ylo;
  w.actions.(3) <- face_action bc.Bc.yhi;
  w.actions.(4) <- face_action bc.Bc.zlo;
  w.actions.(5) <- face_action bc.Bc.zhi;
  w.extents.(0) <- g.Grid.nx;
  w.extents.(1) <- g.Grid.ny;
  w.extents.(2) <- g.Grid.nz;
  w.lvox <- min_int;
  w.pushed <- 0;
  w.segments <- 0;
  w.absorbed <- 0;
  w.reflected <- 0;
  w.refluxed <- 0;
  w.outbound <- 0;
  w.block_lanes <- 0;
  w.block_cleanup <- 0;
  w.runs <- 0;
  w.dead <- []

(* The call's float parameters, as [fp] holds them. *)
let fp_qdt_2m = 0
let fp_dt = 1
let fp_inv_dx = 2
let fp_inv_dy = 3
let fp_inv_dz = 4
let fp_kx = 5
let fp_ky = 6
let fp_kz = 7

type walk_status = Settled | Absorbed | Outbound

let reflux_salt = 0x7EF1_0C5EL

(* The f32 bits of [x], as a key part. *)
let f32_bits x = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFF_FFFFL

(* Re-emit the particle walking in [w] from a thermal bath at the
   refluxing face [face] (2*axis + hi) it has just reached: Rayleigh
   inward normal, Maxwellian tangentials, the rest of the step
   forfeited.  The draw is stateless (see push.mli): a key hashed from
   a salt, the species, the wall's global cell and face and the f32
   bits of the crossing's in-plane offsets and momenta.  Never inlined,
   so [walk]'s fast path stays as it is. *)
let[@inline never] reflux w ~face uth =
  let cell = w.cell and wk = w.wk and u = w.u and o = w.origin in
  let a = face / 2 and hi = face land 1 = 1 in
  let b = (a + 1) mod 3 and c = (a + 2) mod 3 in
  let mix h x = Rng.mix64 (Int64.logxor h x) in
  let pair x y = Int64.logor (Int64.shift_left (f32_bits x) 32) (f32_bits y) in
  let h = mix reflux_salt (Int64.of_int w.species_key) in
  let h = mix h (Int64.of_int (cell.(0) + o.(0))) in
  let h = mix h (Int64.of_int (cell.(1) + o.(1))) in
  let h = mix h (Int64.of_int (cell.(2) + o.(2))) in
  let h = mix h (Int64.of_int face) in
  let h = mix h (pair wk.(b) wk.(c)) in
  let h = mix h (pair u.(0) u.(1)) in
  let key = mix h (f32_bits u.(2)) in
  let rayleigh i = sqrt (-2. *. log (Float.max 1e-300 (Rng.uniform_at key i))) in
  let r = uth *. rayleigh 1 and theta = 2. *. Float.pi *. Rng.uniform_at key 2 in
  u.(a) <- (if hi then -.uth else uth) *. rayleigh 0;
  u.(b) <- r *. cos theta;
  u.(c) <- r *. sin theta;
  wk.(a) <- (if hi then 1. else 0.);
  wk.(3) <- 0.;
  wk.(4) <- 0.;
  wk.(5) <- 0.

(* One axis's end of a walk segment that covers the fraction [sfrac] of
   the remaining displacement [r] from [x1a]: the crossing axis snaps to
   its face, a transverse axis of a crossing segment rounds to f32 and a
   final segment rounds and clamps (see [walk]). *)
let[@inline] endpoint s32 ~on_axis ~hi ~crossing x1a r sfrac =
  if on_axis then if hi then 1. else 0.
  else if crossing then round32 s32 (x1a +. (sfrac *. r))
  else clamp_offset s32 (x1a +. (sfrac *. r))

(* Time, as a fraction of the remaining displacement [r], until the
   in-cell position [x] reaches a face ([infinity] when [r] is zero). *)
let[@inline] face_time x r =
  if r > 0. then (1. -. x) /. r else if r < 0. then x /. -.r else infinity

(* Walk a particle through its remaining displacement, splitting at face
   crossings and depositing each segment.  The state is [w.wk], [w.cell]
   and [w.u] (momentum, mutated by reflections); [w.cq] holds the
   particle's per-axis current coefficients.  On [Outbound], the cell
   sits in the first ghost layer at the entry face and wk.(3..5) holds
   what is left of the move -- the receiving rank completes it.

   f32 consistency: every deposited segment endpoint is a value the f32
   store can represent, and it is the value carried forward — so the
   current walked into J agrees bit-for-bit with the position the
   particle ends up stored at (discrete continuity survives the f32
   narrowing).  The crossing axis snaps to its exact face value (0.0 and
   1.0 are f32-exact); transverse axes round to nearest f32; the final
   segment rounds AND clamps into [0, pred 1.0f32] before depositing.

   Allocation-free: every helper it calls with floats is [@inline], and
   it returns a constant constructor. *)
let walk w =
  let wk = w.wk and cell = w.cell and u = w.u in
  let cxc = Array.unsafe_get w.cq 0
  and cyc = Array.unsafe_get w.cq 1
  and czc = Array.unsafe_get w.cq 2 in
  let s32 = w.s32 in
  let gx = w.gx in
  let status = ref Settled in
  let moving = ref true in
  let guard = ref 0 in
  while !moving && !status = Settled do
    incr guard;
    assert (!guard <= 16);
    let x1 = Array.unsafe_get wk 0
    and y1 = Array.unsafe_get wk 1
    and z1 = Array.unsafe_get wk 2 in
    let rx = Array.unsafe_get wk 3
    and ry = Array.unsafe_get wk 4
    and rz = Array.unsafe_get wk 5 in
    (* Fraction [sfrac] of the remaining displacement until the first
       face crossing (crossing code: 2*axis + hi, or -1 for none); ties
       resolve to the later axis, the remainder handled next iteration
       as zero-length steps. *)
    let tx = face_time x1 rx
    and ty = face_time y1 ry
    and tz = face_time z1 rz in
    let cross = if tx <= 1.0 then if rx > 0. then 1 else 0 else -1 in
    let s1 = if tx <= 1.0 then if tx < 0. then 0. else tx else 1.0 in
    let cross = if ty <= s1 then if ry > 0. then 3 else 2 else cross in
    let s2 = if ty <= s1 then if ty < 0. then 0. else ty else s1 in
    let cross = if tz <= s2 then if rz > 0. then 5 else 4 else cross in
    let sfrac = if tz <= s2 then if tz < 0. then 0. else tz else s2 in
    let crossing = cross >= 0 in
    let a = if crossing then cross / 2 else -1 in
    let hi = crossing && cross land 1 = 1 in
    let x2 = endpoint s32 ~on_axis:(a = 0) ~hi ~crossing x1 rx sfrac in
    let y2 = endpoint s32 ~on_axis:(a = 1) ~hi ~crossing y1 ry sfrac in
    let z2 = endpoint s32 ~on_axis:(a = 2) ~hi ~crossing z1 rz sfrac in
    let v = cell.(0) + (gx * (cell.(1) + (w.gy * cell.(2)))) in
    deposit_segment w.acc v ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx:cxc ~cy:cyc ~cz:czc;
    w.segments <- w.segments + 1;
    Array.unsafe_set wk 0 x2;
    Array.unsafe_set wk 1 y2;
    Array.unsafe_set wk 2 z2;
    Array.unsafe_set wk 3 ((1. -. sfrac) *. rx);
    Array.unsafe_set wk 4 ((1. -. sfrac) *. ry);
    Array.unsafe_set wk 5 ((1. -. sfrac) *. rz);
    if not crossing then moving := false
    else begin
      let n_axis = Array.unsafe_get w.extents a in
      let leaving = if hi then cell.(a) = n_axis else cell.(a) = 1 in
      let action = if leaving then w.actions.(cross) else Wrap in
      match action with
      | Wrap ->
          cell.(a) <-
            (if not leaving then cell.(a) + (if hi then 1 else -1)
             else if hi then 1
             else n_axis);
          wk.(a) <- (if hi then 0. else 1.)
      | Stop ->
          (* Step into the ghost layer and stop: the neighbour finishes
             the move (keeps deposition within one ghost layer). *)
          cell.(a) <- (if hi then n_axis + 1 else 0);
          wk.(a) <- (if hi then 0. else 1.);
          status := Outbound
      | Reflect ->
          wk.(a) <- (if hi then 1. else 0.);
          wk.(3 + a) <- -.wk.(3 + a);
          u.(a) <- -.u.(a);
          w.reflected <- w.reflected + 1
      | Reflux uth ->
          reflux w ~face:cross uth;
          w.refluxed <- w.refluxed + 1
      | Absorb -> status := Absorbed
    end
  done;
  !status

(* Store a settled walk's state in slot [n]: [w.wk] holds the offsets
   the walk rounded and clamped (f32 values in [0, pred 1.0f32]), so
   those stores are exact; the momenta narrow to f32 here, once.  The
   same bits [Store.set] would write, without boxing the floats of a
   call. *)
let store_settled w (st : Store.t) g n =
  let open Bigarray.Array1 in
  let cell = w.cell and wk = w.wk and u = w.u in
  unsafe_set st.Store.voxel n
    (Int32.of_int (Grid.voxel g cell.(0) cell.(1) cell.(2)));
  unsafe_set st.Store.fx n (Array.unsafe_get wk 0);
  unsafe_set st.Store.fy n (Array.unsafe_get wk 1);
  unsafe_set st.Store.fz n (Array.unsafe_get wk 2);
  unsafe_set st.Store.ux n (Array.unsafe_get u 0);
  unsafe_set st.Store.uy n (Array.unsafe_get u 1);
  unsafe_set st.Store.uz n (Array.unsafe_get u 2)

(* Per-axis current coefficients of particle weight [wgt] into [w.cq]. *)
let[@inline] set_current_coeffs w ~q wgt =
  let qw = q *. wgt in
  Array.unsafe_set w.cq 0 (qw *. Array.unsafe_get w.fp fp_kx);
  Array.unsafe_set w.cq 1 (qw *. Array.unsafe_get w.fp fp_ky);
  Array.unsafe_set w.cq 2 (qw *. Array.unsafe_get w.fp fp_kz)

(* The walk + settle/absorb/outbound tail of a crossing lane: [w.cell],
   [w.u] and [w.wk] must already hold the run decode, the pushed momenta
   and the displacements. *)
let walk_one w (s : Species.t) movers n =
  let st = s.Species.store in
  let wgt = Bigarray.Array1.unsafe_get st.Store.w n in
  set_current_coeffs w ~q:s.Species.q wgt;
  match walk w with
  | Settled -> store_settled w st s.Species.grid n
  | Absorbed ->
      w.absorbed <- w.absorbed + 1;
      w.dead <- n :: w.dead
  | Outbound -> begin
      match movers with
      | None ->
          invalid_arg
            "Push.advance: domain face crossed without a movers buffer"
      | Some buf ->
          Movers.push buf ~cell:w.cell ~wk:w.wk ~u:w.u ~w:wgt;
          w.outbound <- w.outbound + 1;
          w.dead <- n :: w.dead
    end

(* crossing-mask slack: any value >= 1 + 2^-50 works, see pass 2 *)
let mask_slack = 1. +. 1e-15

(* ---- the block kernel ------------------------------------------------
   Push the particles [lo, hi) of [s].  Voxel runs are scanned up front
   and processed in fixed-width lane blocks against the run-cached
   72-byte interpolator block, in three fused passes: (1) gather + Boris
   rotate, (2) inverse gamma + displacement + a branch-free
   cell-crossing mask, (3) an in-order deposit/store pass whose unmasked
   lanes take one fused full-length segment and whose masked lanes fall
   out to the walk tail ([walk_one]: the walk/mover machinery), seeded
   from the scratch lanes so the gather/rotate is never redone.

   Width invariance: every lane's arithmetic is the same expression
   sequence whatever block it lands in.  For a particle that crosses no
   face the walk would use sfrac = 1.0, and 1.0 *. r = r exactly, so the
   fused endpoint [clamp_offset (x1 +. r)] and the deposited segment are
   bit-identical to the walk's.  The mask is a division-free
   over-approximation of the walk's crossing predicate (axis face time
   t <= 1): it can never miss a crossing, and a spurious flag only
   routes the lane through the (identical) walk.  Lane order equals
   particle order in pass 3, so f64 accumulator adds happen in particle
   order for every width.

   Boundary shell: cells whose gather stencil or walk can touch the
   ghost layer.  The stencil reaches one cell out and the Courant bound
   keeps a step inside +-1 cell, so only shell particles depend on the
   ghost fill or can become movers — unless [defer] is [Defer.none],
   shell runs are recorded there instead of pushed, and interior
   particles may be pushed while the fill is still in flight. *)
let run_blocks w (s : Species.t) ~(d : Store.f32) ~defer ~movers ~width lo hi =
  let open Bigarray.Array1 in
  let g = s.Species.grid in
  let st = s.Species.store in
  let svox = st.Store.voxel in
  let sfx = st.Store.fx and sfy = st.Store.fy and sfz = st.Store.fz in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let sq = s.Species.q in
  let snx = g.Grid.nx and sny = g.Grid.ny and snz = g.Grid.nz in
  let fp = w.fp in
  let qdt_2m = Array.unsafe_get fp fp_qdt_2m
  and dt = Array.unsafe_get fp fp_dt
  and inv_dx = Array.unsafe_get fp fp_inv_dx
  and inv_dy = Array.unsafe_get fp fp_inv_dy
  and inv_dz = Array.unsafe_get fp fp_inv_dz
  and kx = Array.unsafe_get fp fp_kx
  and ky = Array.unsafe_get fp fp_ky
  and kz = Array.unsafe_get fp fp_kz in
  let sl = mask_slack in
  let icoef = w.icoef and s32 = w.s32 and cell = w.cell and u = w.u
  and wk = w.wk and acc = w.acc in
  let bfx = w.bfx and bfy = w.bfy and bfz = w.bfz in
  let bux = w.bux and buy = w.buy and buz = w.buz in
  let brx = w.brx and bry = w.bry and brz = w.brz in
  let n = ref lo in
  while !n < hi do
    let vi = Int32.to_int (unsafe_get svox !n) in
    (* Extent of the voxel run.  Safe to scan ahead: processing only
       mutates the store slots of already-processed indices, and this
       run's particles are read after the scan, before any of them is
       pushed. *)
    let e = ref (!n + 1) in
    while !e < hi && Int32.to_int (unsafe_get svox !e) = vi do
      incr e
    done;
    if vi <> w.lvox then begin
      (* [Grid.cell_of_voxel], without its tuple *)
      let ci = vi mod g.Grid.gx and r = vi / g.Grid.gx in
      let cj = r mod g.Grid.gy and ck = r / g.Grid.gy in
      w.lvox <- vi;
      w.lci <- ci;
      w.lcj <- cj;
      w.lck <- ck;
      w.lshell <-
        ci = 1 || ci = snx || cj = 1 || cj = sny || ck = 1 || ck = snz;
      w.runs <- w.runs + 1;
      (* A skipped shell voxel's entry may not be loaded yet (the
         `Interior pass runs before load_boundary); its coefficients
         are copied but never evaluated. *)
      let o = vi * Interpolator.coeffs_per_voxel in
      for q = 0 to Interpolator.coeffs_per_voxel - 1 do
        Array.unsafe_set icoef q (unsafe_get d (o + q))
      done
    end;
    if w.lshell && defer != Defer.none then Defer.add defer !n !e
    else begin
      (* hoist the run's coefficient block into unboxed locals *)
      let c0 = Array.unsafe_get icoef 0
      and c1 = Array.unsafe_get icoef 1
      and c2 = Array.unsafe_get icoef 2
      and c3 = Array.unsafe_get icoef 3
      and c4 = Array.unsafe_get icoef 4
      and c5 = Array.unsafe_get icoef 5
      and c6 = Array.unsafe_get icoef 6
      and c7 = Array.unsafe_get icoef 7
      and c8 = Array.unsafe_get icoef 8
      and c9 = Array.unsafe_get icoef 9
      and c10 = Array.unsafe_get icoef 10
      and c11 = Array.unsafe_get icoef 11
      and c12 = Array.unsafe_get icoef 12
      and c13 = Array.unsafe_get icoef 13
      and c14 = Array.unsafe_get icoef 14
      and c15 = Array.unsafe_get icoef 15
      and c16 = Array.unsafe_get icoef 16
      and c17 = Array.unsafe_get icoef 17 in
      let m0 = ref !n in
      while !m0 < !e do
        let len = if !e - !m0 < width then !e - !m0 else width in
        let n0 = !m0 in
        (* pass 1: gather E/B from the run's block and rotate (Boris);
           the expressions of Interpolator.gather_into and [boris], in
           the same order (inlined: cross-module calls box every float
           argument on this toolchain) *)
        for lane = 0 to len - 1 do
          let p = n0 + lane in
          let fx = unsafe_get sfx p
          and fy = unsafe_get sfy p
          and fz = unsafe_get sfz p in
          let ex = c0 +. (fy *. c1) +. (fz *. (c2 +. (fy *. c3))) in
          let ey = c4 +. (fz *. c5) +. (fx *. (c6 +. (fz *. c7))) in
          let ez = c8 +. (fx *. c9) +. (fy *. (c10 +. (fx *. c11))) in
          let bx = c12 +. (fx *. c13) in
          let by = c14 +. (fy *. c15) in
          let bz = c16 +. (fz *. c17) in
          let ux = unsafe_get sux p +. (qdt_2m *. ex) in
          let uy = unsafe_get suy p +. (qdt_2m *. ey) in
          let uz = unsafe_get suz p +. (qdt_2m *. ez) in
          let gamma_m = sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
          let f = qdt_2m /. gamma_m in
          let tx = f *. bx and ty = f *. by and tz = f *. bz in
          let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
          let sx = 2. *. tx /. (1. +. t2) in
          let sy = 2. *. ty /. (1. +. t2) in
          let sz = 2. *. tz /. (1. +. t2) in
          let px = ux +. ((uy *. tz) -. (uz *. ty)) in
          let py = uy +. ((uz *. tx) -. (ux *. tz)) in
          let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
          let ux = ux +. ((py *. sz) -. (pz *. sy)) in
          let uy = uy +. ((pz *. sx) -. (px *. sz)) in
          let uz = uz +. ((px *. sy) -. (py *. sx)) in
          Array.unsafe_set bfx lane fx;
          Array.unsafe_set bfy lane fy;
          Array.unsafe_set bfz lane fz;
          Array.unsafe_set bux lane (ux +. (qdt_2m *. ex));
          Array.unsafe_set buy lane (uy +. (qdt_2m *. ey));
          Array.unsafe_set buz lane (uz +. (qdt_2m *. ez))
        done;
        (* pass 2: displacement + branch-free crossing mask (the walk's
           predicate: some axis has face time t <= 1) *)
        let mask = ref 0 in
        for lane = 0 to len - 1 do
          let ux = Array.unsafe_get bux lane
          and uy = Array.unsafe_get buy lane
          and uz = Array.unsafe_get buz lane in
          let inv_gamma =
            1. /. sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz))
          in
          let rx = ux *. inv_gamma *. dt *. inv_dx in
          let ry = uy *. inv_gamma *. dt *. inv_dy in
          let rz = uz *. inv_gamma *. dt *. inv_dz in
          Array.unsafe_set brx lane rx;
          Array.unsafe_set bry lane ry;
          Array.unsafe_set brz lane rz;
          let x = Array.unsafe_get bfx lane
          and y = Array.unsafe_get bfy lane
          and z = Array.unsafe_get bfz lane in
          (* Division-free over-approximation of the walk's crossing
             predicate (axis face time a /. b <= 1, a >= 0, b > 0): a
             rounded quotient <= 1 implies exactly a < b*(1+2^-53), and
             b*(1+2^-53) < fl(b *. sl) for sl >= 1+2^-50, so
             `a <= b *. sl` can never miss a crossing the walk would
             take.  The sliver it over-flags (a/b in (1, 1+eps]) only
             routes those lanes through the walk, which settles them
             identically.  Positions sit in [0, pred 1.0f32], so the
             numerators are non-negative. *)
          let c =
            Bool.to_int (rx > 0.)
            land Bool.to_int (1. -. x <= rx *. sl)
            lor (Bool.to_int (rx < 0.) land Bool.to_int (x <= (-.rx) *. sl))
            lor (Bool.to_int (ry > 0.)
                land Bool.to_int (1. -. y <= ry *. sl))
            lor (Bool.to_int (ry < 0.) land Bool.to_int (y <= (-.ry) *. sl))
            lor (Bool.to_int (rz > 0.)
                land Bool.to_int (1. -. z <= rz *. sl))
            lor (Bool.to_int (rz < 0.) land Bool.to_int (z <= (-.rz) *. sl))
          in
          mask := !mask lor (c lsl lane)
        done;
        w.block_lanes <- w.block_lanes + len;
        (* pass 3: deposit + store, lane order = particle order *)
        let mk = !mask in
        for lane = 0 to len - 1 do
          w.pushed <- w.pushed + 1;
          if (mk lsr lane) land 1 <> 0 then begin
            (* Cleanup lane: pass 1/2 already computed the pushed momenta
               and displacements, so seed the walk state from the scratch
               lanes and run only the walk tail — no redundant
               gather/rotate.  cell must be re-seeded per lane (a
               previous lane's walk mutates it). *)
            w.block_cleanup <- w.block_cleanup + 1;
            cell.(0) <- w.lci;
            cell.(1) <- w.lcj;
            cell.(2) <- w.lck;
            u.(0) <- Array.unsafe_get bux lane;
            u.(1) <- Array.unsafe_get buy lane;
            u.(2) <- Array.unsafe_get buz lane;
            wk.(0) <- Array.unsafe_get bfx lane;
            wk.(1) <- Array.unsafe_get bfy lane;
            wk.(2) <- Array.unsafe_get bfz lane;
            wk.(3) <- Array.unsafe_get brx lane;
            wk.(4) <- Array.unsafe_get bry lane;
            wk.(5) <- Array.unsafe_get brz lane;
            walk_one w s movers (n0 + lane)
          end
          else begin
            let p = n0 + lane in
            let x1 = Array.unsafe_get bfx lane
            and y1 = Array.unsafe_get bfy lane
            and z1 = Array.unsafe_get bfz lane in
            let x2 = clamp_offset s32 (x1 +. Array.unsafe_get brx lane) in
            let y2 = clamp_offset s32 (y1 +. Array.unsafe_get bry lane) in
            let z2 = clamp_offset s32 (z1 +. Array.unsafe_get brz lane) in
            let qw = sq *. unsafe_get sw p in
            let cx = qw *. kx and cy = qw *. ky and cz = qw *. kz in
            deposit_segment acc vi ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz;
            w.segments <- w.segments + 1;
            (* voxel unchanged; the offsets are f32-representable
               (clamp_offset rounded them), u narrows once, as in
               [store_settled] *)
            unsafe_set sfx p x2;
            unsafe_set sfy p y2;
            unsafe_set sfz p z2;
            unsafe_set sux p (Array.unsafe_get bux lane);
            unsafe_set suy p (Array.unsafe_get buy lane);
            unsafe_set suz p (Array.unsafe_get buz lane)
          end
        done;
        m0 := !m0 + len
      done
    end;
    n := !e
  done

(* The push's float parameters into [w.fp]. *)
let set_params w (s : Species.t) =
  let g = s.Species.grid in
  let dt = g.Grid.dt in
  let inv_dx = 1. /. g.Grid.dx
  and inv_dy = 1. /. g.Grid.dy
  and inv_dz = 1. /. g.Grid.dz in
  let fp = w.fp in
  fp.(fp_qdt_2m) <- 0.5 *. s.Species.q *. dt /. s.Species.m;
  fp.(fp_dt) <- dt;
  fp.(fp_inv_dx) <- inv_dx;
  fp.(fp_inv_dy) <- inv_dy;
  fp.(fp_inv_dz) <- inv_dz;
  (* Per-axis current coefficients modulo the particle's q*w factor. *)
  fp.(fp_kx) <- inv_dy *. inv_dz /. dt;
  fp.(fp_ky) <- inv_dz *. inv_dx /. dt;
  fp.(fp_kz) <- inv_dx *. inv_dy /. dt

let check_width width =
  if width < 1 || width > max_block_width then
    invalid_arg
      (Printf.sprintf "Push.advance: block width must be in [1,%d]"
         max_block_width)

(* Charge [perf] with [w]'s counters and return them as [stats].  Per
   particle: 32 B read + 32 B written (the store) plus ~96 B of
   accumulator scatter, and one 72 B interpolator block per voxel run. *)
let charged_stats perf w =
  let advanced = float_of_int w.pushed in
  Perf.add_particle_steps perf advanced;
  Perf.add_flops perf
    ((advanced *. (Interpolator.flops_per_gather +. flops_per_push))
    +. (float_of_int w.segments *. flops_per_segment));
  Perf.add_bytes perf
    (advanced *. (2. *. float_of_int Store.bytes_per_particle));
  Perf.add_bytes perf
    ((advanced *. 96.) +. (float_of_int w.runs *. Interpolator.bytes_per_voxel));
  { advanced = w.pushed;
    segments = w.segments;
    absorbed = w.absorbed;
    reflected = w.reflected;
    refluxed = w.refluxed;
    outbound = w.outbound;
    block_lanes = w.block_lanes;
    block_cleanup = w.block_cleanup }

let advance ?(perf = Perf.global) ?(first = 0) ?count ?movers ~interp ~accum
    ?(width = default_block_width) ?(region = `All) ?work (s : Species.t) f
    bc =
  check_width width;
  assert (Interpolator.grid interp == s.Species.grid);
  let w = match work with Some w -> w | None -> create_work () in
  prepare w ~accum s f bc;
  set_params w s;
  let np0 = Species.count s in
  let last =
    match count with
    | None -> np0 - 1
    | Some c ->
        assert (first >= 0 && first + c <= np0);
        first + c - 1
  in
  let d = Interpolator.data interp in
  (* An `Interior pass never removes particles (movers and walls need a
     shell cell), so the ranges it defers stay valid for the `Deferred
     pass that follows. *)
  (match region with
  | `Deferred dl ->
      for r = 0 to dl.Defer.n - 1 do
        run_blocks w s ~d ~defer:Defer.none ~movers ~width (Defer.lo dl r)
          (Defer.hi dl r)
      done
  | `All -> run_blocks w s ~d ~defer:Defer.none ~movers ~width first (last + 1)
  | `Interior dl -> run_blocks w s ~d ~defer:dl ~movers ~width first (last + 1));
  (* Remove absorbed/outbound particles, highest index first so the
     swap-with-last removals stay valid (dead is in descending order). *)
  List.iter (fun n -> Species.remove s n) w.dead;
  w.dead <- [];
  charged_stats perf w

(* ------------------------------------------------------- team driver ---- *)

let zero_stats =
  { advanced = 0;
    segments = 0;
    absorbed = 0;
    reflected = 0;
    refluxed = 0;
    outbound = 0;
    block_lanes = 0;
    block_cleanup = 0 }

(* Reusable per-tile workspace of the team interior push: one defer
   list and one push workspace per tile, sized on first use to the
   pool's tile count and kept across steps. *)
module Team_scratch = struct
  type t = { mutable defers : Defer.t array; mutable works : Work.t array }

  let create () = { defers = [||]; works = [||] }

  let sized t tiles =
    if Array.length t.defers <> tiles then begin
      t.defers <- Array.init tiles (fun _ -> Defer.create ());
      t.works <- Array.init tiles (fun _ -> Work.create ())
    end;
    Array.iter Defer.clear t.defers
end

let sum_stats a b =
  { advanced = a.advanced + b.advanced;
    segments = a.segments + b.segments;
    absorbed = a.absorbed + b.absorbed;
    reflected = a.reflected + b.reflected;
    refluxed = a.refluxed + b.refluxed;
    outbound = a.outbound + b.outbound;
    block_lanes = a.block_lanes + b.block_lanes;
    block_cleanup = a.block_cleanup + b.block_cleanup }

(* Add [w]'s call counters into [into]'s. *)
let add_counters ~into w =
  into.pushed <- into.pushed + w.pushed;
  into.segments <- into.segments + w.segments;
  into.absorbed <- into.absorbed + w.absorbed;
  into.reflected <- into.reflected + w.reflected;
  into.refluxed <- into.refluxed + w.refluxed;
  into.outbound <- into.outbound + w.outbound;
  into.block_lanes <- into.block_lanes + w.block_lanes;
  into.block_cleanup <- into.block_cleanup + w.block_cleanup;
  into.runs <- into.runs + w.runs

(* The `Interior pass over [pool.tiles] contiguous particle chunks.
   Safe to fan out: an interior particle cannot reach a wall or a
   domain face (the shell is deferred before walking), so no tile
   removes particles, reaches a wall or needs a mover buffer; store
   writes are disjoint per tile and each tile scatters currents into
   its private accumulator slab.  Determinism: the chunk decomposition
   is a function of the tile count alone and every merge below (defer
   lists, counters, slab reduction at unload) runs in ascending tile
   order, so results are bitwise invariant in the lane count.  A 1-tile
   pool's one slab is [accum] itself, so it deposits in particle order
   with nothing to reduce.  The counters sum into tile 0's workspace
   and are charged once: every Perf term is an integer-valued float, so
   the ledger equals per-tile charging exactly. *)
let advance_team ?(perf = Perf.global) ~interp ~accum
    ?(width = default_block_width) ~pool ~scratch ~defer (s : Species.t) f bc
    =
  let module P = Vpic_util.Pool in
  check_width width;
  assert (Interpolator.grid interp == s.Species.grid);
  let tiles = pool.P.tiles in
  Team_scratch.sized scratch tiles;
  (* allocate all slabs before the fork: [slab] caches the array on
     first use and concurrent first calls would race *)
  ignore (Accumulator.slab accum ~n:tiles ~tile:0);
  let np = Species.count s in
  let d = Interpolator.data interp in
  let works = scratch.Team_scratch.works
  and defers = scratch.Team_scratch.defers in
  pool.P.run ~label:"push.interior" ~tiles (fun ~lane:_ ~tile ->
      let w = works.(tile) in
      prepare w ~accum:(Accumulator.slab accum ~n:tiles ~tile) s f bc;
      set_params w s;
      run_blocks w s ~d ~defer:defers.(tile) ~movers:None ~width
        (P.chunk_start ~total:np ~tiles ~tile)
        (P.chunk_start ~total:np ~tiles ~tile:(tile + 1)));
  let w0 = works.(0) in
  for tile = 0 to tiles - 1 do
    assert (works.(tile).dead = []);
    Defer.append defer defers.(tile);
    if tile > 0 then add_counters ~into:w0 works.(tile)
  done;
  charged_stats perf w0

(* Refuse a damaged arriving batch before any of it is finished: each
   mover's cell must be an interior cell (exact integers), its offsets
   in [0, 1], its displacement within one cell (the Courant bound; a
   longer walk would overrun [walk]'s crossing guard) and its momentum
   and weight finite. *)
let check_wire (g : Grid.t) (m : Movers.t) =
  for idx = 0 to m.Movers.n - 1 do
    for q = 0 to Movers.stride - 1 do
      let x = Bigarray.Array1.unsafe_get m.Movers.buf ((idx * Movers.stride) + q) in
      let ok =
        if q < 3 then
          let n = if q = 0 then g.Grid.nx else if q = 1 then g.Grid.ny else g.Grid.nz in
          Float.is_integer x && x >= 1. && x <= float_of_int n
        else if q < 6 then x >= 0. && x <= 1.
        else if q < 10 then Float.is_finite x
        else Float.abs x <= 1.
      in
      if not ok then Movers.corrupt idx "%s is %g, out of range" Movers.fields.(q) x
    done
  done

let finish_movers ?(perf = Perf.global) ?movers_out ~accum ?work
    (s : Species.t) f bc (incoming : Movers.t) =
  let g = s.Species.grid in
  check_wire g incoming;
  let w = match work with Some w -> w | None -> create_work () in
  prepare w ~accum s f bc;
  let dt = g.Grid.dt in
  w.fp.(fp_kx) <- 1. /. (g.Grid.dy *. g.Grid.dz *. dt);
  w.fp.(fp_ky) <- 1. /. (g.Grid.dz *. g.Grid.dx *. dt);
  w.fp.(fp_kz) <- 1. /. (g.Grid.dx *. g.Grid.dy *. dt);
  let cell = w.cell and wk = w.wk and u = w.u in
  let settled = ref 0 and absorbed = ref 0 and reemitted = ref 0 in
  let b = incoming.Movers.buf in
  let open Bigarray.Array1 in
  for idx = 0 to incoming.Movers.n - 1 do
    let o = idx * Movers.stride in
    cell.(0) <- int_of_float (unsafe_get b o);
    cell.(1) <- int_of_float (unsafe_get b (o + 1));
    cell.(2) <- int_of_float (unsafe_get b (o + 2));
    wk.(0) <- unsafe_get b (o + 3);
    wk.(1) <- unsafe_get b (o + 4);
    wk.(2) <- unsafe_get b (o + 5);
    wk.(3) <- unsafe_get b (o + 10);
    wk.(4) <- unsafe_get b (o + 11);
    wk.(5) <- unsafe_get b (o + 12);
    u.(0) <- unsafe_get b (o + 6);
    u.(1) <- unsafe_get b (o + 7);
    u.(2) <- unsafe_get b (o + 8);
    let wgt = unsafe_get b (o + 9) in
    set_current_coeffs w ~q:s.Species.q wgt;
    match walk w with
    | Settled ->
        incr settled;
        (* [Species.append], bit for bit: [wgt] is an f32 value already *)
        let st = s.Species.store in
        Store.reserve st 1;
        let n = st.Store.np in
        st.Store.np <- n + 1;
        store_settled w st g n;
        unsafe_set st.Store.w n wgt
    | Absorbed -> incr absorbed
    | Outbound -> begin
        match movers_out with
        | None ->
            invalid_arg
              "Push.finish_movers: further domain crossing without a buffer"
        | Some buf ->
            incr reemitted;
            Movers.push buf ~cell ~wk ~u ~w:wgt
      end
  done;
  Perf.add_flops perf (float_of_int w.segments *. flops_per_segment);
  (!settled, !absorbed, !reemitted)
